package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"treegion/internal/compcache"
	"treegion/internal/ddg"
	"treegion/internal/eval"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/progen"
	"treegion/internal/verify"
)

func testProgram(t testing.TB) (*progen.Program, eval.Profiles) {
	t.Helper()
	p, ok := progen.PresetByName("compress")
	if !ok {
		t.Fatal("no compress preset")
	}
	prog, err := progen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := eval.ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, profs
}

// compileSingle compiles one function as a one-function CompileEach, on
// clones of fn and prof, and reports whether the cache served it.
func compileSingle(ctx context.Context, fn *ir.Function, prof *profile.Data, c eval.Config, opts Options) (fr *eval.FunctionResult, cached bool, err error) {
	err = CompileEach(ctx, []*ir.Function{fn}, []*profile.Data{prof}, c, opts, func(_ int, r *eval.FunctionResult, hit bool, e error) error {
		fr, cached = r, hit
		return e
	})
	return fr, cached, err
}

// projection is the observable content of a ProgramResult, copied into
// plain values so reflect.DeepEqual ignores pointer identity (the ddg
// graphs key maps by *ir.Op, which differs between independent compiles).
type projection struct {
	Name          string
	Time          float64
	CodeExpansion float64
	RegionCount   int
	FuncTimes     []float64
	FuncCopies    []float64
	OpsAfter      []int
	SchedLengths  [][]int
	Counters      [][4]int
}

func project(r *eval.ProgramResult) projection {
	p := projection{
		Name:          r.Name,
		Time:          r.Time,
		CodeExpansion: r.CodeExpansion,
		RegionCount:   r.RegionStats.Count,
	}
	for _, fr := range r.Funcs {
		p.FuncTimes = append(p.FuncTimes, fr.Time)
		p.FuncCopies = append(p.FuncCopies, fr.Copies)
		p.OpsAfter = append(p.OpsAfter, fr.OpsAfter)
		var lens []int
		for _, s := range fr.Schedules {
			lens = append(lens, s.Length)
		}
		p.SchedLengths = append(p.SchedLengths, lens)
		p.Counters = append(p.Counters, [4]int{fr.NumRenamed, fr.NumCopies, fr.NumMerged, fr.NumSpeculated})
	}
	return p
}

// TestDeterministicAcrossWorkerCounts is the determinism contract: the same
// benchmark compiled with 1 worker and N workers (with and without the
// cache) produces identical cycle counts, schedule lengths and speedups.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	prog, profs := testProgram(t)
	cfg := eval.DefaultConfig()

	serial, err := eval.CompileProgram(prog, profs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := project(serial)

	for _, workers := range []int{1, 2, 8} {
		for _, withCache := range []bool{false, true} {
			opts := Options{Workers: workers}
			if withCache {
				opts.Cache = compcache.New(64 << 20)
			}
			got, err := CompileProgram(context.Background(), prog, profs, cfg, opts)
			if err != nil {
				t.Fatalf("workers=%d cache=%v: %v", workers, withCache, err)
			}
			if !reflect.DeepEqual(project(got), want) {
				t.Errorf("workers=%d cache=%v: result differs from serial compile", workers, withCache)
			}
			base, err := CompileProgram(context.Background(), prog, profs, eval.BaselineConfig(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if sp := eval.Speedup(base.Time, got.Time); sp <= 0 {
				t.Errorf("workers=%d: speedup = %v", workers, sp)
			}
		}
	}
}

// TestOriginalsNotMutated: the pipeline must compile clones; callers keep
// the pristine program for other configurations.
func TestOriginalsNotMutated(t *testing.T) {
	prog, profs := testProgram(t)
	before := make([]int, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		before[i] = fn.NumOps()
	}
	cfg := eval.DefaultConfig()
	cfg.Kind = eval.TreegionTD // tail duplication mutates hardest
	if _, err := CompileProgram(context.Background(), prog, profs, cfg, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for i, fn := range prog.Funcs {
		if fn.NumOps() != before[i] {
			t.Errorf("function %s mutated: %d ops, was %d", fn.Name, fn.NumOps(), before[i])
		}
	}
}

// TestPanicIsolation: a panicking function compile must surface as an error
// for that function, not kill the process — and the error must be the
// first failing function by index regardless of completion order.
func TestPanicIsolation(t *testing.T) {
	prog, profs := testProgram(t)
	orig := compileFunc
	defer func() { compileFunc = orig }()
	victim := prog.Funcs[1].Name
	compileFunc = func(fn *ir.Function, prof *profile.Data, c eval.Config, ar *eval.Arena) (*eval.FunctionResult, error) {
		if fn.Name == victim {
			panic("injected scheduler bug")
		}
		return orig(fn, prof, c, ar)
	}
	var m Metrics
	_, err := CompileProgram(context.Background(), prog, profs, eval.DefaultConfig(), Options{Workers: 4, Metrics: &m})
	if err == nil {
		t.Fatal("panicking compile returned nil error")
	}
	if !strings.Contains(err.Error(), victim) || !strings.Contains(err.Error(), "injected scheduler bug") {
		t.Errorf("error %q does not name the panicking function", err)
	}
	if m.Panics.Load() != 1 {
		t.Errorf("panics counter = %d, want 1", m.Panics.Load())
	}
	if m.Errors.Load() != 1 {
		t.Errorf("errors counter = %d, want 1", m.Errors.Load())
	}
}

// TestVerifierPanicIsIsolated: the verifier runs inside the compile's panic
// isolation, so a result that crashes it becomes an error for that
// function instead of killing the process.
func TestVerifierPanicIsIsolated(t *testing.T) {
	prog, profs := testProgram(t)
	orig := compileFunc
	defer func() { compileFunc = orig }()
	compileFunc = func(fn *ir.Function, prof *profile.Data, c eval.Config, ar *eval.Arena) (*eval.FunctionResult, error) {
		fr, err := orig(fn, prof, c, ar)
		if err == nil {
			fr.Regions[0] = nil
		}
		return fr, err
	}
	var m Metrics
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("verifier panic escaped the pipeline: %v", r)
			}
		}()
		_, _, err = compileSingle(context.Background(), prog.Funcs[0], profs[0], eval.DefaultConfig(),
			Options{Verify: true, Metrics: &m})
	}()
	if err == nil || !strings.Contains(err.Error(), "compile panicked") {
		t.Fatalf("err = %v, want compile panicked", err)
	}
	if m.Panics.Load() != 1 {
		t.Errorf("panics counter = %d, want 1", m.Panics.Load())
	}
}

// TestVerifiedResultsCacheTheirDiagnostics: a verified compile has a key of
// its own, and its result carries the verifier's diagnostics through the
// cache, so a repeated verified compile runs neither the compiler nor the
// verifier again — not even when the result failed verification.
func TestVerifiedResultsCacheTheirDiagnostics(t *testing.T) {
	prog, profs := testProgram(t)
	fn, prof, cfg := prog.Funcs[0], profs[0], eval.DefaultConfig()
	ctx := context.Background()

	var m Metrics
	opts := Options{Cache: compcache.New(64 << 20), Metrics: &m}
	if _, _, err := compileSingle(ctx, fn, prof, cfg, opts); err != nil {
		t.Fatal(err)
	}
	opts.Verify = true
	if _, hit, err := compileSingle(ctx, fn, prof, cfg, opts); err != nil || hit {
		t.Fatalf("verified compile after a plain one: hit %v, err %v; want a cold compile", hit, err)
	}
	if _, hit, err := compileSingle(ctx, fn, prof, cfg, opts); err != nil || !hit {
		t.Fatalf("repeated verified compile: hit %v, err %v; want a cache hit", hit, err)
	}
	if c, v := m.Compiles.Load(), m.VerifyRuns.Load(); c != 2 || v != 1 {
		t.Fatalf("%d compiles and %d verifier runs, want 2 and 1", c, v)
	}

	// Break one data dependence: the consumer issues in its producer's
	// cycle, before the producer's latency has elapsed.
	orig := compileFunc
	defer func() { compileFunc = orig }()
	compileFunc = func(fn *ir.Function, prof *profile.Data, c eval.Config, ar *eval.Arena) (*eval.FunctionResult, error) {
		fr, err := orig(fn, prof, c, ar)
		if err != nil {
			return nil, err
		}
		for _, s := range fr.Schedules {
			for _, n := range s.Graph.Nodes {
				for _, e := range n.Succs {
					if e.Kind == ddg.EdgeData && e.Latency > 0 {
						s.Cycle[e.To.Index] = s.Cycle[n.Index]
						return fr, nil
					}
				}
			}
		}
		t.Fatal("no data dependence with a latency to break")
		return nil, nil
	}
	var bm Metrics
	bad := Options{Cache: compcache.New(64 << 20), Metrics: &bm, Verify: true}
	var fails [2]*verify.Failure
	for i := range fails {
		_, _, err := compileSingle(ctx, fn, prof, cfg, bad)
		if !errors.As(err, &fails[i]) {
			t.Fatalf("compile %d: err = %v, want a *verify.Failure", i, err)
		}
	}
	if !reflect.DeepEqual(fails[0], fails[1]) {
		t.Errorf("the cached failure differs from the first:\n%v\n%v", fails[0], fails[1])
	}
	if c, v, f := bm.Compiles.Load(), bm.VerifyRuns.Load(), bm.VerifyFailures.Load(); c != 1 || v != 1 || f != 1 {
		t.Errorf("%d compiles, %d verifier runs, %d verify failures; want 1 each", c, v, f)
	}
}

// TestFirstErrorByIndex: with several failing functions, the reported error
// is deterministic — the lowest function index wins.
func TestFirstErrorByIndex(t *testing.T) {
	prog, profs := testProgram(t)
	orig := compileFunc
	defer func() { compileFunc = orig }()
	compileFunc = func(fn *ir.Function, prof *profile.Data, c eval.Config, ar *eval.Arena) (*eval.FunctionResult, error) {
		return nil, fmt.Errorf("boom %s", fn.Name)
	}
	for trial := 0; trial < 4; trial++ {
		_, err := CompileProgram(context.Background(), prog, profs, eval.DefaultConfig(), Options{Workers: 8})
		if err == nil || !strings.Contains(err.Error(), prog.Funcs[0].Name) {
			t.Fatalf("trial %d: error %v, want first function %s", trial, err, prog.Funcs[0].Name)
		}
	}
}

// TestContextCancellation: a cancelled context aborts the run with
// context.Canceled instead of compiling everything.
func TestContextCancellation(t *testing.T) {
	prog, profs := testProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileProgram(ctx, prog, profs, eval.DefaultConfig(), Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCacheRoundTrip: a second program compile over a shared cache is all
// hits and returns identical observable results.
func TestCacheRoundTrip(t *testing.T) {
	prog, profs := testProgram(t)
	cfg := eval.DefaultConfig()
	cache := compcache.New(64 << 20)
	var m Metrics
	opts := Options{Workers: 4, Cache: cache, Metrics: &m}

	cold, err := CompileProgram(context.Background(), prog, profs, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CacheHits.Load(); got != 0 {
		t.Errorf("cold run cache hits = %d", got)
	}
	warm, err := CompileProgram(context.Background(), prog, profs, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CacheHits.Load(); got != int64(len(prog.Funcs)) {
		t.Errorf("warm run cache hits = %d, want %d", got, len(prog.Funcs))
	}
	if !reflect.DeepEqual(project(cold), project(warm)) {
		t.Error("warm result differs from cold result")
	}
	if st := cache.Stats(); st.HitRate() <= 0 {
		t.Errorf("hit rate = %v, want > 0", st.HitRate())
	}
}

// TestPanicDropsWorkerArena: a compile that panics leaves its arena in
// whatever state the panic caught it, so the worker must compile the next
// function on an empty arena, and every other function must match the
// serial compile.
func TestPanicDropsWorkerArena(t *testing.T) {
	prog, profs := testProgram(t)
	cfg := eval.DefaultConfig()
	serial, err := eval.CompileProgram(prog, profs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig := compileFunc
	defer func() { compileFunc = orig }()
	victim, after := prog.Funcs[1].Name, prog.Funcs[2].Name
	emptyAfter := false
	compileFunc = func(fn *ir.Function, prof *profile.Data, c eval.Config, ar *eval.Arena) (*eval.FunctionResult, error) {
		switch fn.Name {
		case victim:
			if _, err := orig(fn, prof, c, ar); err != nil {
				t.Errorf("filling the arena: %v", err)
			}
			panic("injected after filling the arena")
		case after:
			emptyAfter = reflect.ValueOf(ar).Elem().IsZero()
		}
		return orig(fn, prof, c, ar)
	}
	err = CompileEach(context.Background(), prog.Funcs, profs, cfg, Options{Workers: 1},
		func(i int, fr *eval.FunctionResult, _ bool, cerr error) error {
			if i == 1 {
				if cerr == nil || !strings.Contains(cerr.Error(), "injected") {
					t.Errorf("function 1: err = %v, want the injected panic", cerr)
				}
				return nil
			}
			if cerr != nil {
				t.Fatalf("function %d: %v", i, cerr)
			}
			want := serial.Funcs[i]
			if fr.Time != want.Time {
				t.Errorf("function %d: time %v, serial %v", i, fr.Time, want.Time)
			}
			if len(fr.Schedules) != len(want.Schedules) {
				t.Fatalf("function %d: %d schedules, serial %d", i, len(fr.Schedules), len(want.Schedules))
			}
			for k, s := range fr.Schedules {
				if s.Length != want.Schedules[k].Length {
					t.Errorf("function %d region %d: length %d, serial %d", i, k, s.Length, want.Schedules[k].Length)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !emptyAfter {
		t.Error("function 2 started on the arena the panicked compile left behind")
	}
}

// CompileEach must deliver every result exactly once, in index order, with
// the same content the batch compiler produces, at any worker count.
func TestCompileEachOrderedAndComplete(t *testing.T) {
	prog, profs := testProgram(t)
	cfg := eval.DefaultConfig()

	want, err := CompileProgram(context.Background(), prog, profs, cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3, 8} {
		var order []int
		var got []*eval.FunctionResult
		err := CompileEach(context.Background(), prog.Funcs, profs, cfg,
			Options{Workers: workers},
			func(i int, fr *eval.FunctionResult, cached bool, cerr error) error {
				if cerr != nil {
					t.Fatalf("workers=%d: function %d: %v", workers, i, cerr)
				}
				if cached {
					t.Fatalf("workers=%d: spurious cache hit without a cache", workers)
				}
				order = append(order, i)
				got = append(got, fr)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(order) != len(prog.Funcs) {
			t.Fatalf("workers=%d: %d results for %d functions", workers, len(order), len(prog.Funcs))
		}
		for i, idx := range order {
			if i != idx {
				t.Fatalf("workers=%d: results out of order: %v", workers, order)
			}
		}
		streamed := eval.Aggregate(prog.Name, cfg, got)
		if !reflect.DeepEqual(project(streamed), project(want)) {
			t.Errorf("workers=%d: streamed results differ from batch compile", workers)
		}
	}
}

// An emit error must stop the stream: no later emits, and the error comes
// back from CompileEach.
func TestCompileEachEmitErrorStops(t *testing.T) {
	prog, profs := testProgram(t)
	sentinel := errors.New("client gone")
	calls := 0
	err := CompileEach(context.Background(), prog.Funcs, profs,
		eval.DefaultConfig(), Options{Workers: 4},
		func(i int, fr *eval.FunctionResult, cached bool, cerr error) error {
			calls++
			return sentinel
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after failing on the first call", calls)
	}
}

// CompileEach must report cache hits: a second pass over the same inputs
// with a shared cache serves every function from it.
func TestCompileEachCacheHits(t *testing.T) {
	prog, profs := testProgram(t)
	cfg := eval.DefaultConfig()
	opts := Options{Workers: 2, Cache: compcache.New(32 << 20)}
	run := func() (hits int) {
		err := CompileEach(context.Background(), prog.Funcs, profs, cfg, opts,
			func(i int, fr *eval.FunctionResult, cached bool, cerr error) error {
				if cerr != nil {
					t.Fatal(cerr)
				}
				if cached {
					hits++
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return hits
	}
	if hits := run(); hits != 0 {
		t.Fatalf("first pass: %d cache hits, want 0", hits)
	}
	if hits := run(); hits != len(prog.Funcs) {
		t.Fatalf("second pass: %d cache hits, want %d", hits, len(prog.Funcs))
	}
}

// TestProfileMismatch: profile/function count skew is an input error, not a
// crash.
func TestProfileMismatch(t *testing.T) {
	prog, profs := testProgram(t)
	if _, err := CompileProgram(context.Background(), prog, profs[:1], eval.DefaultConfig(), Options{}); err == nil {
		t.Fatal("mismatched profiles accepted")
	}
}
