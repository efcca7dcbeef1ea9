package treegion

// Acceptance tests for the persistent artifact store: a suite compiled
// against a store directory once must compile ZERO functions when a fresh
// process (fresh memory cache, fresh store handle, same directory)
// compiles it again — every lookup is a disk hit, proven by the pipeline
// telemetry counters — and the restored results must be numerically
// identical to the cold ones.

import (
	"context"
	"strings"
	"testing"

	"treegion/internal/eval"
)

func TestWarmStoreSuiteCompileSkipsScheduler(t *testing.T) {
	dir := t.TempDir()
	progs, err := GenerateSuite()
	if err != nil {
		t.Fatal(err)
	}
	var profs []Profiles
	total := 0
	for _, p := range progs {
		pr, err := ProfileProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, pr)
		total += len(p.Funcs)
	}

	// runOnce models one process: its own memory cache and store handle,
	// sharing only the store directory. Besides the aggregate times it
	// renders every function and schedule to text, the byte-level identity
	// witness compared across the cold and warm processes.
	runOnce := func() (*CompileMetrics, []float64, []string) {
		st, err := OpenArtifactStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cache := NewCompileCache(0)
		cache.SetL2(st)
		m := &CompileMetrics{}
		var times []float64
		var renders []string
		for i := range progs {
			res, err := Compile(context.Background(), progs[i], profs[i], DefaultConfig(),
				WithCache(cache), WithMetrics(m))
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, res.Time)
			for _, fr := range res.Funcs {
				var sb strings.Builder
				sb.WriteString(PrintFunction(fr.Fn))
				for _, sc := range fr.Schedules {
					sb.WriteString(sc.String())
				}
				renders = append(renders, sb.String())
			}
		}
		return m, times, renders
	}

	m1, t1, r1 := runOnce()
	if got := m1.Compiles.Load(); got == 0 {
		t.Fatal("cold run compiled nothing")
	}
	if got := m1.StoreHits.Load(); got != 0 {
		t.Fatalf("cold run took %d store hits from an empty store", got)
	}

	m2, t2, r2 := runOnce()
	if got := m2.Compiles.Load(); got != 0 {
		t.Fatalf("warm run invoked the scheduler %d times, want 0 (all %d functions should come from disk)", got, total)
	}
	if hits := m2.StoreHits.Load(); hits == 0 {
		t.Fatal("warm run reported no store hits")
	}
	if hits, cached := m2.StoreHits.Load(), m2.CacheHits.Load(); hits > cached {
		t.Fatalf("store hits %d exceed total cache hits %d", hits, cached)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("%s: warm time %v != cold time %v", progs[i].Name, t2[i], t1[i])
		}
	}
	// Bit-identical restore: every disk-revived function and schedule must
	// render byte-for-byte equal to what the cold compile produced.
	if len(r1) != len(r2) {
		t.Fatalf("warm run produced %d function renderings, cold produced %d", len(r2), len(r1))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("function %d: warm rendering differs from cold compile:\n--- cold\n%s\n--- warm\n%s", i, r1[i], r2[i])
		}
	}
}

// TestWarmStoreVerifiedArtifactsPersist covers verified artifacts across
// process restarts: a verified compile's artifact carries its diagnostics
// under a key of its own, so a verifying run in a fresh process, over a
// store filled by verifying runs, neither compiles nor verifies.
func TestWarmStoreVerifiedArtifactsPersist(t *testing.T) {
	dir := t.TempDir()
	prog, err := GenerateBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *CompileMetrics {
		st, err := OpenArtifactStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cache := NewCompileCache(0)
		cache.SetL2(st)
		m := &CompileMetrics{}
		if _, err := Compile(context.Background(), prog, profs, DefaultConfig(),
			WithCache(cache), WithMetrics(m), WithVerify()); err != nil {
			t.Fatal(err)
		}
		return m
	}

	cold := run()
	if cold.Compiles.Load() == 0 {
		t.Fatal("cold verified run compiled nothing")
	}
	if got := cold.VerifyRuns.Load(); got != cold.Compiles.Load() {
		t.Fatalf("cold verified run ran the verifier %d times for %d compiles", got, cold.Compiles.Load())
	}
	warm := run()
	if got := warm.Compiles.Load(); got != 0 {
		t.Fatalf("warm verified run compiled %d functions, want 0", got)
	}
	if got := warm.VerifyRuns.Load(); got != 0 {
		t.Fatalf("warm verified run ran the verifier %d times, want 0", got)
	}
	if got, want := warm.CacheHits.Load(), int64(len(prog.Funcs)); got != want {
		t.Fatalf("warm verified run took %d cache hits, want %d", got, want)
	}
	if warm.StoreHits.Load() == 0 {
		t.Fatal("warm verified run took no store hits")
	}
}

// TestWarmStoreRestoredResultsDriveExperiments: results revived from disk
// must be structurally complete — the experiment analyses walk regions,
// schedules and DDG nodes of every FunctionResult, so a shallow restore
// would panic or produce different aggregates.
func TestWarmStoreRestoredResultsDriveExperiments(t *testing.T) {
	dir := t.TempDir()
	prog, err := GenerateBenchmark("go")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*ProgramResult, *CompileMetrics) {
		st, err := OpenArtifactStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cache := NewCompileCache(0)
		cache.SetL2(st)
		m := &CompileMetrics{}
		res, err := Compile(context.Background(), prog, profs, DefaultConfig(),
			WithCache(cache), WithMetrics(m))
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}
	cold, _ := run()
	warm, m := run()
	if m.Compiles.Load() != 0 {
		t.Fatalf("warm run compiled %d functions", m.Compiles.Load())
	}
	if warm.Time != cold.Time || warm.CodeExpansion != cold.CodeExpansion {
		t.Fatalf("aggregates differ: time %v/%v expansion %v/%v",
			warm.Time, cold.Time, warm.CodeExpansion, cold.CodeExpansion)
	}
	if warm.RegionStats.Count != cold.RegionStats.Count ||
		warm.RegionStats.AvgBlocks != cold.RegionStats.AvgBlocks {
		t.Fatal("region statistics differ after disk round trip")
	}
	// UtilizationOf walks every schedule's regions, DDG and profile — the
	// deepest structural consumer the experiment layer has.
	cfg := DefaultConfig()
	for i, fr := range warm.Funcs {
		cu := eval.UtilizationOf(cold.Funcs[i], cold.Funcs[i].Prof, cfg.Machine)
		wu := eval.UtilizationOf(fr, fr.Prof, cfg.Machine)
		if cu != wu {
			t.Fatalf("function %s utilization %v != %v", fr.Fn.Name, wu, cu)
		}
	}
}
