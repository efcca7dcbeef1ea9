package treegion

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each benchmark regenerates its experiment over the synthetic suite and
// reports the headline aggregate through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the reproduction's numbers next to the usual ns/op. The full
// per-benchmark rows come from `go run ./cmd/experiments`.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

var (
	suiteOnce sync.Once
	suite     *Suite
	suiteErr  error
)

func sharedSuite(b *testing.B) *Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = NewSuite()
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// BenchmarkTable1TreegionStats regenerates Table 1 (treegion statistics).
func BenchmarkTable1TreegionStats(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		avgBB, avgOps := 0.0, 0.0
		for _, r := range rows {
			avgBB += r.AvgBlocks
			avgOps += r.AvgOps
		}
		b.ReportMetric(avgBB/float64(len(rows)), "avg-bb")
		b.ReportMetric(avgOps/float64(len(rows)), "avg-ops")
	}
}

// BenchmarkTable2SLRStats regenerates Table 2 (SLR statistics).
func BenchmarkTable2SLRStats(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		avgBB, avgOps := 0.0, 0.0
		for _, r := range rows {
			avgBB += r.AvgBlocks
			avgOps += r.AvgOps
		}
		b.ReportMetric(avgBB/float64(len(rows)), "avg-bb")
		b.ReportMetric(avgOps/float64(len(rows)), "avg-ops")
	}
}

// BenchmarkTable3CodeExpansion regenerates Table 3 (code expansion for
// superblocks and tail-duplicated treegions at limits 2.0 and 3.0).
func BenchmarkTable3CodeExpansion(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		var sb, t2, t3 float64
		for _, r := range rows {
			sb += r.SB
			t2 += r.Tree20
			t3 += r.Tree30
		}
		n := float64(len(rows))
		b.ReportMetric(sb/n, "sb-expansion")
		b.ReportMetric(t2/n, "tree2.0-expansion")
		b.ReportMetric(t3/n, "tree3.0-expansion")
	}
}

// BenchmarkTable4RegionSizes regenerates Table 4 (superblock vs treegion
// region counts and sizes at expansion limit 2.0).
func BenchmarkTable4RegionSizes(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		var sbBB, treeBB float64
		for _, r := range rows {
			sbBB += r.SBAvgBB
			treeBB += r.TreeAvgBB
		}
		n := float64(len(rows))
		b.ReportMetric(sbBB/n, "sb-avg-bb")
		b.ReportMetric(treeBB/n, "tree-avg-bb")
	}
}

// BenchmarkFig6DepHeight regenerates Figure 6 (dependence-height scheduling
// of basic blocks, SLRs and treegions on 4U and 8U).
func BenchmarkFig6DepHeight(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		rows, labels, err := s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range labels {
			b.ReportMetric(GeoMean(rows, l), l)
		}
	}
}

// BenchmarkFig8Heuristics regenerates Figure 8 (the four treegion
// scheduling heuristics on 4U and 8U).
func BenchmarkFig8Heuristics(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		rows, labels, err := s.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range labels {
			b.ReportMetric(GeoMean(rows, l), l)
		}
	}
}

// BenchmarkFig13TailDup regenerates Figure 13 (superblocks vs
// tail-duplicated treegions with global weight and dominator parallelism).
func BenchmarkFig13TailDup(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		rows, labels, err := s.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range labels {
			b.ReportMetric(GeoMean(rows, l), l)
		}
	}
}

// BenchmarkProfileVariation runs the paper's future-work study: schedules
// built from the training profile evaluated against a varied input set.
func BenchmarkProfileVariation(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		rows, _, err := s.ProfileVariation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(GeoMean(rows, "globalweight/train"), "gw-train")
		b.ReportMetric(GeoMean(rows, "globalweight/varied"), "gw-varied")
		b.ReportMetric(GeoMean(rows, "depheight/varied"), "dh-varied")
	}
}

// BenchmarkWideMachines extends Figure 6 to the 16-issue model (speculation
// headroom).
func BenchmarkWideMachines(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		rows, labels, err := s.WideMachines()
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range labels {
			b.ReportMetric(GeoMean(rows, l), l)
		}
	}
}

// BenchmarkAblations quantifies renaming, dominator parallelism, and the
// expansion-limit sweep.
func BenchmarkAblations(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		rows, labels, err := s.Ablations()
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range labels {
			b.ReportMetric(GeoMean(rows, l), l)
		}
	}
}

// BenchmarkHyperblocks runs the predication-vs-tail-duplication comparison
// the paper names as future work.
func BenchmarkHyperblocks(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		rows, labels, err := s.Hyperblocks()
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range labels {
			b.ReportMetric(GeoMean(rows, l), l)
		}
	}
}

// BenchmarkCompileTreegion measures raw compilation throughput of the
// treegion pipeline on the gcc-flavoured benchmark (not a paper figure;
// useful for tracking the compiler's own speed).
func BenchmarkCompileTreegion(b *testing.B) {
	prog, err := GenerateBenchmark("gcc")
	if err != nil {
		b.Fatal(err)
	}
	profs, err := ProfileProgram(prog)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(context.Background(), prog, profs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// compileSuite compiles all eight benchmarks under the paper's headline
// configuration with the given pipeline options.
func compileSuite(b *testing.B, s *Suite, opts ...CompileOption) {
	b.Helper()
	cfg := DefaultConfig()
	for i := range s.Programs {
		if _, err := Compile(context.Background(), s.Programs[i], s.Profiles[i], cfg, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileSuiteSerial is the 1-worker, no-cache reference point for
// BenchmarkCompileSuiteParallel: the whole 8-benchmark suite compiled the
// way the seed did it.
func BenchmarkCompileSuiteSerial(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileSuite(b, s, WithWorkers(1))
	}
}

// serialSuiteSeconds measures one serial (1-worker) pass over the suite,
// the reference for the speedup-vs-serial metric. Measured once per
// process: the parallel sub-benchmarks all compare against the same
// baseline.
var (
	serialRefOnce sync.Once
	serialRefSecs float64
)

func serialSuiteSeconds(b *testing.B, s *Suite) float64 {
	b.Helper()
	serialRefOnce.Do(func() {
		const passes = 3
		start := time.Now()
		for i := 0; i < passes; i++ {
			compileSuite(b, s, WithWorkers(1))
		}
		serialRefSecs = time.Since(start).Seconds() / passes
	})
	return serialRefSecs
}

// BenchmarkCompileSuiteParallel compiles the 8-benchmark suite on the
// pipeline at several worker counts and reports each run's wall-clock
// ratio over the serial baseline. The workers=1 sub-bench runs the
// pipeline's one worker on the caller's goroutine, so it ties the
// baseline by construction; its metric is labelled serial-tie
// rather than speedup-vs-serial so the regression gate reads it as a
// dispatch-overhead check, not a parallel loss. The parallel metrics are
// honest about the hardware: the ≥2x numbers need ≥2 real cores.
func BenchmarkCompileSuiteParallel(b *testing.B) {
	s := sharedSuite(b)
	serial := serialSuiteSeconds(b, s)
	counts := []int{1, 2, runtime.NumCPU()}
	if counts[2] <= counts[1] {
		counts = counts[:2]
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			metric := "speedup-vs-serial"
			if workers == 1 {
				metric = "serial-tie"
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				compileSuite(b, s, WithWorkers(workers))
			}
			b.StopTimer()
			perOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(serial/perOp, metric)
		})
	}
}

// BenchmarkCompileStress compiles the out-of-suite stress preset (24
// functions, ~7000 ops each — an order of magnitude past the largest suite
// benchmark) at 8 workers, reporting speedup-vs-serial against a 1-worker
// pass over the same program. This is the scale-out headline number: large
// independent functions are the pipeline's best case, and the per-worker
// arena reuse pays off most on functions this size.
func BenchmarkCompileStress(b *testing.B) {
	stressOnce.Do(func() {
		stressProg, stressErr = GenerateBenchmark("stress")
		if stressErr != nil {
			return
		}
		stressProfs, stressErr = ProfileProgram(stressProg)
	})
	if stressErr != nil {
		b.Fatal(stressErr)
	}
	cfg := DefaultConfig()
	compileStress := func(workers int) {
		if _, err := Compile(context.Background(), stressProg, stressProfs, cfg, WithWorkers(workers)); err != nil {
			b.Fatal(err)
		}
	}
	start := time.Now()
	compileStress(1)
	serial := time.Since(start).Seconds()

	b.Run("workers=8", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			compileStress(8)
		}
		b.StopTimer()
		perOp := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(serial/perOp, "speedup-vs-serial")
	})
}

var (
	stressOnce  sync.Once
	stressProg  *Program
	stressProfs Profiles
	stressErr   error
)

// BenchmarkCompileSuiteVerified compiles the suite on the full worker pool
// with the static schedule verifier on, measuring the cost of proving every
// emitted schedule legal. Compare against BenchmarkCompileSuiteParallel.
func BenchmarkCompileSuiteVerified(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileSuite(b, s, WithVerify())
	}
}

// BenchmarkCompileSuiteParallelCached adds the content-addressed result
// cache: every iteration after the first is pure cache hits, and the
// reported hit rate must be > 0 on any second pass.
func BenchmarkCompileSuiteParallelCached(b *testing.B) {
	s := sharedSuite(b)
	cache := NewCompileCache(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileSuite(b, s, WithCache(cache))
	}
	b.StopTimer()
	st := cache.Stats()
	b.ReportMetric(st.HitRate(), "hit-rate")
	if b.N > 1 && st.HitRate() <= 0 {
		b.Fatalf("hit rate = %v on repeated passes, want > 0", st.HitRate())
	}
}

// BenchmarkCompileSuiteWarmStore measures a warm-start suite compile
// against a pre-populated persistent artifact store with a COLD memory
// cache: every function is decoded from disk instead of scheduled. This is
// the restart path a daemon with -store-dir takes, and the store-hit
// counter proves the scheduler never ran inside the timed region.
func BenchmarkCompileSuiteWarmStore(b *testing.B) {
	s := sharedSuite(b)
	dir := b.TempDir()
	seed, err := OpenArtifactStore(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Populate the store once, outside the timed region.
	warmCache := NewCompileCache(0)
	warmCache.SetL2(seed)
	compileSuite(b, s, WithCache(warmCache))
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}

	var m CompileMetrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := OpenArtifactStore(dir, 0) // fresh handle = fresh process
		if err != nil {
			b.Fatal(err)
		}
		cache := NewCompileCache(0) // cold memory tier every iteration
		cache.SetL2(st)
		b.StartTimer()
		compileSuite(b, s, WithCache(cache), WithMetrics(&m))
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if got := m.Compiles.Load(); got != 0 {
		b.Fatalf("warm-store pass invoked the scheduler %d times, want 0", got)
	}
	b.ReportMetric(float64(m.StoreHits.Load())/float64(b.N), "store-hits/op")
}

// BenchmarkCompileSuiteVerifiedWarm is BenchmarkCompileSuiteWarmStore with
// the static verifier on: the store holds the verified artifacts, each
// carrying its diagnostics, so a warm verifying pass decodes each artifact
// and runs neither the scheduler nor the verifier. Its cost must stay
// within a few percent of the plain warm benchmark.
func BenchmarkCompileSuiteVerifiedWarm(b *testing.B) {
	s := sharedSuite(b)
	dir := b.TempDir()
	seed, err := OpenArtifactStore(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Populate the verified artifacts once, outside the timed region.
	warmCache := NewCompileCache(0)
	warmCache.SetL2(seed)
	compileSuite(b, s, WithCache(warmCache), WithVerify())
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}

	var m CompileMetrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := OpenArtifactStore(dir, 0) // fresh handle = fresh process
		if err != nil {
			b.Fatal(err)
		}
		cache := NewCompileCache(0) // cold memory tier every iteration
		cache.SetL2(st)
		b.StartTimer()
		compileSuite(b, s, WithCache(cache), WithMetrics(&m), WithVerify())
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if got := m.Compiles.Load(); got != 0 {
		b.Fatalf("verified warm pass invoked the scheduler %d times, want 0", got)
	}
	if got := m.VerifyRuns.Load(); got != 0 {
		b.Fatalf("verified warm pass ran the verifier %d times, want 0 (diagnostics are stored with the artifacts)", got)
	}
}

// BenchmarkCompileSuiteInline compiles the two interprocedural presets
// (callhot: 90/10 hot-callee skew; calldeep: depth-3 chains) under the
// tail-duplicating former with inlining off and on. The off legs are the
// barrier-call baseline; the on legs time demand-driven inline-on-absorb
// end to end (splice + formation through the spliced body) and report the
// splice count and the speedup over the 1-issue basic-block baseline, the
// EXPERIMENTS.md inline table's headline numbers.
func BenchmarkCompileSuiteInline(b *testing.B) {
	for _, preset := range []string{"callhot", "calldeep"} {
		prog, err := GenerateBenchmark(preset)
		if err != nil {
			b.Fatal(err)
		}
		profs, err := ProfileProgram(prog)
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Kind = TreegionTD
		base, err := Compile(context.Background(), prog, profs, BaselineConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, inl := range []bool{false, true} {
			mode, c := "off", cfg
			if inl {
				mode = "on"
				c.Inline = DefaultInlineConfig()
			}
			b.Run(fmt.Sprintf("%s/inline=%s", preset, mode), func(b *testing.B) {
				var res *ProgramResult
				for i := 0; i < b.N; i++ {
					res, err = Compile(context.Background(), prog, profs, c)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(Speedup(base.Time, res.Time), "speedup")
				b.ReportMetric(float64(res.Inline.Inlined), "splices")
			})
		}
	}
}
