package treegion

// Integration tests for the compilation-service subsystem: the concurrent
// pipeline behind CompileProgram, the content-addressed result cache, and
// the Suite's thread safety.

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// resultKey projects a ProgramResult onto its observable content (cycle
// counts, schedule lengths, expansion, region stats) as plain values, so
// results from independent compiles can be compared with reflect.DeepEqual
// without tripping over pointer identity inside the ddg graphs.
type resultKey struct {
	Name          string
	Time          float64
	CodeExpansion float64
	RegionStats   struct {
		Count, MaxBlocks  int
		AvgBlocks, AvgOps float64
	}
	FuncTimes    []float64
	SchedLengths [][]int
}

func keyOf(r *ProgramResult) resultKey {
	k := resultKey{Name: r.Name, Time: r.Time, CodeExpansion: r.CodeExpansion}
	k.RegionStats.Count = r.RegionStats.Count
	k.RegionStats.MaxBlocks = r.RegionStats.MaxBlocks
	k.RegionStats.AvgBlocks = r.RegionStats.AvgBlocks
	k.RegionStats.AvgOps = r.RegionStats.AvgOps
	for _, fr := range r.Funcs {
		k.FuncTimes = append(k.FuncTimes, fr.Time)
		var lens []int
		for _, s := range fr.Schedules {
			lens = append(lens, s.Length)
		}
		k.SchedLengths = append(k.SchedLengths, lens)
	}
	return k
}

// TestCompileProgramDeterministicWorkers is the public-API determinism
// contract: 1 worker and N workers produce identical ProgramResults —
// cycle counts, schedule lengths and speedups.
func TestCompileProgramDeterministicWorkers(t *testing.T) {
	prog, err := GenerateBenchmark("go")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	one, err := Compile(ctx, prog, profs, DefaultConfig(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	baseOne, err := Compile(ctx, prog, profs, BaselineConfig(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		many, err := Compile(ctx, prog, profs, DefaultConfig(), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(keyOf(one), keyOf(many)) {
			t.Errorf("workers=%d: ProgramResult differs from 1-worker compile", workers)
		}
		baseMany, err := Compile(ctx, prog, profs, BaselineConfig(), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if s1, sN := Speedup(baseOne.Time, one.Time), Speedup(baseMany.Time, many.Time); s1 != sN {
			t.Errorf("workers=%d: speedup %v differs from 1-worker speedup %v", workers, sN, s1)
		}
	}
}

// TestSuiteCacheSecondPass: recompiling the suite's benchmarks under an
// already-seen set of configurations must be served by the shared
// content-addressed cache (hit rate > 0 by a wide margin).
func TestSuiteCacheSecondPass(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles two benchmarks twice")
	}
	s, err := NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for i := 0; i < 2; i++ {
		if _, err := Compile(context.Background(), s.Programs[i], s.Profiles[i], cfg, WithCache(suiteCache(s))); err != nil {
			t.Fatal(err)
		}
	}
	cold := suiteCache(s).Stats()
	if cold.Hits != 0 || cold.Misses == 0 {
		t.Fatalf("first pass: %+v, want only misses", cold)
	}
	for i := 0; i < 2; i++ {
		if _, err := Compile(context.Background(), s.Programs[i], s.Profiles[i], cfg, WithCache(suiteCache(s))); err != nil {
			t.Fatal(err)
		}
	}
	warm := suiteCache(s).Stats()
	if warm.HitRate() <= 0 {
		t.Fatalf("second pass hit rate = %v, want > 0", warm.HitRate())
	}
	if warm.Hits != cold.Misses {
		t.Errorf("second pass hits = %d, want every first-pass miss (%d) served", warm.Hits, cold.Misses)
	}
}

// suiteCache exposes the Suite's shared compile cache to the tests.
func suiteCache(s *Suite) *CompileCache { return s.ccache }

// TestSuiteConcurrentAccess drives Suite methods from many goroutines: the
// memoization maps are mutex-guarded shared state under the parallel
// driver, so this must be clean under -race.
func TestSuiteConcurrentAccess(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles several configurations concurrently")
	}
	s, err := NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(2)
	configs := []Config{
		DefaultConfig(),
		{Kind: SLR, Heuristic: DepHeight, Machine: FourU, Rename: true},
		{Kind: BasicBlocks, Heuristic: DepHeight, Machine: EightU, Rename: true},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(configs)*2)
	for g := 0; g < len(configs)*2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Two goroutines per config race on the same memoization keys;
			// benchmark 0 keeps the compile volume reasonable.
			_, errs[g] = s.SpeedupOf(0, configs[g%len(configs)])
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The same config through the memoized path twice must agree.
	v1, err := s.SpeedupOf(0, configs[0])
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.SpeedupOf(0, configs[0])
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("memoized speedups differ: %v vs %v", v1, v2)
	}
}

// compileSingle compiles one function through the pipeline, as a
// one-function CompileEach on clones of fn and prof, and reports whether
// the cache served it.
func compileSingle(ctx context.Context, fn *Function, prof *ProfileData, c Config, opts ...CompileOption) (fr *FunctionResult, cached bool, err error) {
	err = CompileEach(ctx, []*Function{fn}, []*ProfileData{prof}, c, func(_ int, r *FunctionResult, hit bool, e error) error {
		fr, cached = r, hit
		return e
	}, opts...)
	return fr, cached, err
}

// TestCompileWithVerify covers the pipeline's verify mode: a clean compile
// passes with Verify on; a verified compile has a key of its own, so it
// compiles again after a plain compile of the same function; and a
// repeated verified compile is a cache hit whose result carries the
// recorded diagnostics — the verifier runs exactly once per key.
func TestCompileWithVerify(t *testing.T) {
	prog, err := GenerateBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cache := NewCompileCache(0)
	var metrics CompileMetrics
	fn, prof := prog.Funcs[0], profs[0]

	if _, cached, err := compileSingle(ctx, fn, prof, DefaultConfig(), WithCache(cache), WithMetrics(&metrics)); err != nil {
		t.Fatal(err)
	} else if cached {
		t.Fatal("first compile reported cached")
	}
	if _, cached, err := compileSingle(ctx, fn, prof, DefaultConfig(), WithCache(cache), WithMetrics(&metrics), WithVerify()); err != nil {
		t.Fatalf("verified compile: %v", err)
	} else if cached {
		t.Error("verified compile reused the plain artifact")
	}
	if n := metrics.Compiles.Load(); n != 2 {
		t.Errorf("compiles = %d, want 2 (plain and verified keys differ)", n)
	}
	if n := metrics.VerifyRuns.Load(); n != 1 {
		t.Errorf("verify runs = %d, want 1", n)
	}
	fr, cached, err := compileSingle(ctx, fn, prof, DefaultConfig(), WithCache(cache), WithMetrics(&metrics), WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("repeated verified compile missed the cache")
	}
	if n := metrics.VerifyRuns.Load(); n != 1 {
		t.Errorf("verify runs after warm verified compile = %d, want 1", n)
	}
	for _, d := range fr.Diagnostics {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	if n := metrics.VerifyFailures.Load(); n != 0 {
		t.Errorf("verify failures = %d, want 0", n)
	}
}
