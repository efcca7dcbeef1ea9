// Package pipeline is the concurrent compilation driver. Region-based
// compilation is embarrassingly parallel per function — each function is
// cloned, formed and scheduled independently — so the pipeline fans the
// functions of a program out over a bounded worker pool and reassembles the
// results in function order, making the aggregate byte-identical to the
// serial path (golden tests see no difference between 1 and N workers).
//
// Each worker compile is panic-isolated (a panicking compile yields an
// error for that function instead of killing the process), honours context
// cancellation, and consults an optional content-addressed result cache
// (internal/compcache) before doing any work.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"treegion/internal/compcache"
	"treegion/internal/eval"
	"treegion/internal/inline"
	"treegion/internal/ir"
	"treegion/internal/irtext"
	"treegion/internal/profile"
	"treegion/internal/progen"
	"treegion/internal/telemetry"
	"treegion/internal/verify"
)

// Options configures a pipeline run.
type Options struct {
	// Workers bounds concurrent function compiles; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, memoizes compiles content-addressed by
	// (function IR, profile, config). Results served from the cache are
	// shared and must be treated as immutable.
	Cache *compcache.Cache
	// Metrics, when non-nil, receives pipeline counters.
	Metrics *Metrics
	// Telemetry, when non-nil, receives per-compile phase-latency
	// histograms, scheduling counters and region-shape histograms for every
	// cold compile.
	Telemetry *telemetry.Registry
	// Verify runs the static verifier over the compile result. A function
	// whose schedule produces Error-severity diagnostics fails with a
	// *verify.Failure carrying the full diagnostic list; advisory
	// diagnostics ride along on (a private copy of) the FunctionResult.
	// Verified and plain pipelines share one cache key — the verdict is
	// cached separately, keyed by the same artifact hash, so a warm
	// verified lookup re-checks nothing and a plain lookup can reuse an
	// artifact a verified caller compiled (and vice versa).
	Verify bool
	// Inline enables demand-driven inline-on-absorb: CompileProgram (and
	// CompileEach) resolve the batch's functions into an ir.Program, and
	// treegion formation splices eligible callee bodies into the caller.
	// Cache keys grow the transitive callee content, so editing a callee
	// invalidates its inlining callers.
	Inline inline.Config
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Metrics counts pipeline activity; safe for concurrent use. The daemon
// exports these on /metrics.
type Metrics struct {
	// Compiles counts cold compiles actually executed.
	Compiles atomic.Int64
	// CacheHits counts compiles served from the result cache (any tier:
	// memory, disk, or an in-flight duplicate).
	CacheHits atomic.Int64
	// StoreHits counts the subset of CacheHits served from the persistent
	// artifact store (the disk tier) rather than memory.
	StoreHits atomic.Int64
	// Panics counts compiles that panicked and were converted to errors.
	Panics atomic.Int64
	// Errors counts compiles that returned an error (including panics).
	Errors atomic.Int64
	// InFlight is the number of compiles currently executing.
	InFlight atomic.Int64
	// VerifyFailures counts compiles rejected by the static verifier.
	VerifyFailures atomic.Int64
	// VerifyRuns counts actual verifier executions (verdict-cache misses).
	VerifyRuns atomic.Int64
	// VerdictHits counts verified lookups answered from the verdict cache
	// without running the verifier.
	VerdictHits atomic.Int64
}

// compileFunc is the per-function compile entry point; tests swap it to
// inject panics and failures.
var compileFunc = eval.CompileFunctionArena

// compileMany drives fns through the batched work-stealing pool: each
// worker claims chunks of K indices from the shared queue (stealing half of
// the largest remaining range when its own runs dry) and compiles the whole
// chunk on one private arena, so the DDG/scheduler scratch is reused across
// every function the worker touches. Results and errors land at their
// function's index; cached[i], when the slice is non-nil, records cache
// hits. onDone, when non-nil, is called (possibly concurrently) after each
// index settles.
func compileMany(ctx context.Context, fns []*ir.Function, profs []*profile.Data, c eval.Config, opts Options,
	frs []*eval.FunctionResult, errs []error, cached []bool, onDone func(int)) {
	n := len(fns)
	if n == 0 {
		return
	}
	workers := opts.workers()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	q := newStealQueue(n, workers)
	k := chunkSize(n, workers)
	var mu sync.Mutex
	// work is one worker's body: it claims chunks until the queue is dry
	// and compiles them on the worker's private arena.
	work := func(w int) {
		arena := eval.NewArena()
		for {
			mu.Lock()
			chunk, ok := q.take(w, k)
			mu.Unlock()
			if !ok {
				return
			}
			for i := chunk.lo; i < chunk.hi; i++ {
				if err := ctx.Err(); err != nil {
					// Settle the claimed tail as cancelled so callers
					// report cancellation rather than a nil result.
					errs[i] = err
				} else {
					var hit bool
					frs[i], hit, errs[i] = compileOne(fns[i], profs[i], c, opts, arena)
					if cached != nil {
						cached[i] = hit
					}
				}
				if onDone != nil {
					onDone(i)
				}
			}
		}
	}
	if workers == 1 {
		// A single worker runs on the caller's goroutine: a one-worker
		// pool otherwise pays a goroutine hop for nothing, which showed
		// up as a single-worker pipeline running measurably slower than a
		// plain serial loop.
		work(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
}

// CompileProgram compiles every function of prog under c across the
// batched work-stealing worker pool and aggregates the results exactly as
// eval.CompileProgram does. Function results are assembled in function
// order regardless of completion order, so the returned ProgramResult is
// deterministic in the inputs. On error it returns the failing function
// with the lowest index (also deterministic). The originals in prog and
// profs are never mutated.
func CompileProgram(ctx context.Context, prog *progen.Program, profs eval.Profiles, c eval.Config, opts Options) (*eval.ProgramResult, error) {
	if len(profs) != len(prog.Funcs) {
		return nil, fmt.Errorf("pipeline: %s: %d profiles for %d functions", prog.Name, len(profs), len(prog.Funcs))
	}
	if err := applyInline(&c, prog.Funcs, profs, opts); err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", prog.Name, err)
	}
	n := len(prog.Funcs)
	frs := make([]*eval.FunctionResult, n)
	errs := make([]error, n)
	compileMany(ctx, prog.Funcs, profs, c, opts, frs, errs, nil, nil)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pipeline: %s: function %s: %w", prog.Name, prog.Funcs[i].Name, err)
		}
	}
	return eval.Aggregate(prog.Name, c, frs), nil
}

// CompileEach compiles fns[i] against profs[i] on the work-stealing pool
// and calls emit exactly once per index, in index order, as results become
// available — the streaming core of the daemon's /v1/compile-batch. A
// per-function failure is delivered to emit as err (the run continues); an
// error returned BY emit (e.g. the client went away) cancels the remaining
// work and is returned after the workers drain. emit runs on the caller's
// goroutine.
func CompileEach(ctx context.Context, fns []*ir.Function, profs []*profile.Data, c eval.Config, opts Options,
	emit func(i int, fr *eval.FunctionResult, cached bool, err error) error) error {
	if len(profs) != len(fns) {
		return fmt.Errorf("pipeline: %d profiles for %d functions", len(profs), len(fns))
	}
	if err := applyInline(&c, fns, profs, opts); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	n := len(fns)
	if n == 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	frs := make([]*eval.FunctionResult, n)
	errs := make([]error, n)
	cached := make([]bool, n)
	done := make([]bool, n)
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	go func() {
		// Wake the emit loop when the context dies with results pending.
		<-ctx.Done()
		cond.Broadcast()
	}()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		compileMany(ctx, fns, profs, c, opts, frs, errs, cached, func(i int) {
			mu.Lock()
			done[i] = true
			cond.Broadcast()
			mu.Unlock()
		})
	}()

	var emitErr error
	for i := 0; i < n && emitErr == nil; i++ {
		mu.Lock()
		for !done[i] && ctx.Err() == nil {
			cond.Wait()
		}
		ready := done[i]
		mu.Unlock()
		if !ready {
			emitErr = ctx.Err()
			break
		}
		emitErr = emit(i, frs[i], cached[i], errs[i])
	}
	if emitErr != nil {
		cancel() // stop compiling what nobody will read
	}
	<-finished
	return emitErr
}

// applyInline copies the pipeline's inline option onto the eval config,
// resolving the batch into a program the inliner (and the verifier's
// differential check) can splice callee bodies from. A batch that does not
// form a valid program — duplicate names, calls to functions outside the
// batch, arity mismatches — is rejected up front: silently compiling it
// without inlining would make the option's effect depend on input shape.
func applyInline(c *eval.Config, fns []*ir.Function, profs []*profile.Data, opts Options) error {
	if !opts.Inline.Enabled || c.InlineEnv != nil {
		return nil
	}
	p, err := ir.NewProgram(fns)
	if err != nil {
		return err
	}
	c.Inline = opts.Inline
	c.InlineEnv = &inline.Env{Prog: p, Profiles: profs}
	return nil
}

// CompileFunction compiles a single function through the cache and the
// panic isolation of the pipeline. Unlike eval.CompileFunction it does NOT
// mutate fn or prof — it compiles clones — so callers can keep feeding the
// same parsed function. It reports whether the result came from the cache.
// A cold compile runs on an arena of its own.
func CompileFunction(ctx context.Context, fn *ir.Function, prof *profile.Data, c eval.Config, opts Options) (*eval.FunctionResult, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	return compileOne(fn, prof, c, opts, eval.NewArena())
}

// keyBufPool recycles the buffer contentKey serializes into: the key-form
// IR and profile bytes exist only to be hashed, so the warm cache path
// should not allocate a fresh buffer per lookup.
var keyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// contentKey computes the content-addressed cache key of one compilation
// input triple. It hashes the compact binary serializations
// (irtext.AppendFuncKey, profile.AppendKey), which carry exactly the
// information of irtext.Print and profile.Canonical: the keys partition
// compilations identically to hashing the text forms, without the
// formatting cost.
func contentKey(orig *ir.Function, prof *profile.Data, c eval.Config) compcache.Key {
	bp := keyBufPool.Get().(*[]byte)
	buf := irtext.AppendFuncKey((*bp)[:0], orig)
	// With inlining on, the compile reads the transitive callees' bodies and
	// profiles, so they are input content: hash them into the key (in the
	// deterministic first-reached order of the call-graph walk) so editing a
	// callee invalidates every caller that could splice it. Inline-off keys
	// are unchanged — residual calls never read the callee.
	if c.Inline.Enabled && c.InlineEnv != nil && c.InlineEnv.Prog != nil {
		if fi := c.InlineEnv.Prog.Index(orig.Name); fi >= 0 {
			for _, ci := range c.InlineEnv.Prog.Callees(fi) {
				buf = irtext.AppendFuncKey(buf, c.InlineEnv.Prog.Funcs[ci])
				if ci < len(c.InlineEnv.Profiles) && c.InlineEnv.Profiles[ci] != nil {
					buf = c.InlineEnv.Profiles[ci].AppendKey(buf)
				}
			}
		}
	}
	mark := len(buf)
	buf = prof.AppendKey(buf)
	k := compcache.KeyOfBytes(buf[:mark], buf[mark:], c.Fingerprint())
	*bp = buf[:0]
	keyBufPool.Put(bp)
	return k
}

// compileOne compiles one function on clones of (orig, prof), going through
// the tiered cache (memory, then disk, then compile) when one is
// configured. Concurrent identical requests coalesce onto one compile.
// arena, when non-nil, is the calling worker's private compile scratch.
//
// Verification rides on top: the artifact is compiled and cached once under
// the unified key, and the verifier's verdict is cached alongside it under
// the same key, so the verifier runs only when no verdict is known yet. A
// failing verdict is cached too — the artifact stays valid for plain
// callers while verified callers keep getting the recorded Failure without
// re-running the verifier.
func compileOne(orig *ir.Function, prof *profile.Data, c eval.Config, opts Options, arena *eval.Arena) (*eval.FunctionResult, bool, error) {
	var key compcache.Key
	if opts.Cache != nil {
		key = contentKey(orig, prof, c)
	}
	fr, src, err := opts.Cache.GetOrCompute(key, func() (*eval.FunctionResult, error) {
		fr, err := compileIsolated(orig.Clone(), prof.Clone(), c, opts.Metrics, arena)
		if err != nil {
			return nil, err
		}
		if opts.Telemetry != nil {
			observeResult(opts.Telemetry, fr)
		}
		return fr, nil
	})
	if err != nil {
		if opts.Metrics != nil {
			opts.Metrics.Errors.Add(1)
		}
		return nil, false, err
	}
	hit := src != compcache.SourceCompile
	if opts.Metrics != nil && hit {
		opts.Metrics.CacheHits.Add(1)
		if src == compcache.SourceL2 {
			opts.Metrics.StoreHits.Add(1)
		}
	}
	if !opts.Verify {
		return fr, hit, nil
	}
	v, ok := opts.Cache.Verdict(key)
	if ok {
		if opts.Metrics != nil {
			opts.Metrics.VerdictHits.Add(1)
		}
	} else {
		// No verdict yet (or no cache at all): run the verifier. Cached
		// results are shared and immutable, so the diagnostics go into the
		// verdict, never onto fr.
		t0 := time.Now()
		ds := eval.VerifyDiagnostics(orig, fr, c)
		elapsed := time.Since(t0)
		v = &verify.Verdict{Passed: !verify.HasErrors(ds), Diagnostics: ds}
		opts.Cache.PutVerdict(key, v)
		if opts.Metrics != nil {
			opts.Metrics.VerifyRuns.Add(1)
			if !v.Passed {
				opts.Metrics.VerifyFailures.Add(1)
			}
		}
		if opts.Telemetry != nil {
			observeVerify(opts.Telemetry, fr, ds, elapsed)
		}
	}
	if !v.Passed {
		if opts.Metrics != nil {
			opts.Metrics.Errors.Add(1)
		}
		return nil, false, &verify.Failure{Fn: orig.Name, Diagnostics: v.Diagnostics}
	}
	if len(v.Diagnostics) > 0 {
		// Advisory diagnostics ride on a private shallow copy: the cached
		// result stays pristine for plain callers.
		out := *fr
		out.Diagnostics = v.Diagnostics
		fr = &out
	}
	return fr, hit, nil
}

// observeVerify publishes one verifier run's telemetry: the verify phase
// latency (which no longer lives on the compile trace — cached artifacts
// share one trace regardless of who verifies them) and per-rule diagnostic
// counters, counted once per verifier execution rather than once per
// caller served from the verdict cache.
func observeVerify(reg *telemetry.Registry, fr *eval.FunctionResult, ds []verify.Diagnostic, elapsed time.Duration) {
	lbl := telemetry.Labels{"phase": telemetry.PhaseVerify.String()}
	reg.Histogram("treegion_compile_phase_seconds", lbl,
		"Wall time per compile phase per function.", telemetry.DefBuckets).Observe(elapsed.Seconds())
	reg.LabeledCounter("treegion_compile_phase_ops_total", lbl,
		"Ops processed per compile phase.").Add(int64(fr.OpsAfter))
	for _, d := range ds {
		reg.LabeledCounter("treegion_verify_diagnostics_total",
			telemetry.Labels{"rule": d.Rule, "severity": d.Severity.String()},
			"Static-verifier diagnostics by rule and severity.").Inc()
	}
}

// observeResult publishes one cold compile's telemetry: per-phase latency
// histograms and op counters, the scheduling counters behind the paper's
// why-treegions-win discussion, and region-shape histograms.
func observeResult(reg *telemetry.Registry, fr *eval.FunctionResult) {
	reg.Counter("treegion_compile_functions_total", "Functions cold-compiled through the pipeline.").Inc()
	reg.Counter("treegion_compile_ops_total",
		"Ops compiled (post-formation) across all cold compiles; divide by wall time for ops/sec.").Add(int64(fr.OpsAfter))
	snap := fr.Trace.Snapshot()
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		ps := snap.Phase[p]
		if ps.Calls == 0 {
			continue
		}
		lbl := telemetry.Labels{"phase": p.String()}
		reg.Histogram("treegion_compile_phase_seconds", lbl,
			"Wall time per compile phase per function.", telemetry.DefBuckets).Observe(ps.Duration().Seconds())
		reg.LabeledCounter("treegion_compile_phase_ops_total", lbl,
			"Ops processed per compile phase.").Add(ps.Ops)
	}
	ss := fr.Sched
	reg.Counter("treegion_sched_speculated_ops_total",
		"Ops scheduled above an ancestor block's branch.").Add(int64(ss.Speculated))
	reg.Counter("treegion_sched_renamed_dests_total",
		"Destinations renamed at compile time to enable speculation.").Add(int64(fr.NumRenamed))
	reg.Counter("treegion_sched_copies_total",
		"Renaming copy ops inserted.").Add(int64(fr.NumCopies))
	reg.Counter("treegion_sched_merged_ops_total",
		"Duplicate ops merged by dominator parallelism.").Add(int64(fr.NumMerged))
	reg.Counter("treegion_sched_branches_total",
		"Terminator ops scheduled.").Add(int64(ss.Branches))
	reg.Counter("treegion_sched_branch_cycles_total",
		"Cycles issuing at least one branch.").Add(int64(ss.BranchCycles))
	reg.Counter("treegion_sched_predicated_branch_cycles_total",
		"Cycles issuing two or more branches (predicated multiway MultiOps).").Add(int64(ss.PredicatedCycles))
	for _, r := range fr.Regions {
		reg.Histogram("treegion_region_blocks", nil,
			"Basic blocks per formed region.", telemetry.SizeBuckets).Observe(float64(len(r.Blocks)))
		reg.Histogram("treegion_region_paths", nil,
			"Root-to-leaf paths per formed region.", telemetry.SizeBuckets).Observe(float64(r.PathCount()))
	}
	if fr.OpsBefore > 0 {
		reg.Histogram("treegion_code_expansion_ratio", nil,
			"Tail-duplication code expansion per function (ops after / ops before).",
			telemetry.RatioBuckets).Observe(float64(fr.OpsAfter) / float64(fr.OpsBefore))
	}
	// Inline counters appear only when the compile actually consulted the
	// inliner, so inline-off runs expose an unchanged metric set.
	il := fr.Inline
	if il.Inlined > 0 || il.Declined() > 0 {
		reg.Counter("treegion_inline_splices_total",
			"Calls inlined (spliced) during treegion formation.").Add(int64(il.Inlined))
		reg.Counter("treegion_inline_ops_total",
			"Ops added by inline splices (callee clones plus binding copies).").Add(int64(il.InlinedOps))
		for _, d := range []struct {
			reason string
			n      int
		}{
			{"depth", il.DeclinedDepth},
			{"size", il.DeclinedSize},
			{"budget", il.DeclinedBudget},
			{"guarded", il.DeclinedGuarded},
			{"shape", il.DeclinedShape},
		} {
			if d.n > 0 {
				reg.LabeledCounter("treegion_inline_declined_total",
					telemetry.Labels{"reason": d.reason},
					"Calls left as barriers, by the first inline budget they failed.").Add(int64(d.n))
			}
		}
	}
}

// Register exposes the pipeline counters on reg under prefix (for the
// daemon, "treegiond"), so the whole service reports through one registry.
func (m *Metrics) Register(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+"_pipeline_compiles_total", "Cold function compiles executed.", m.Compiles.Load)
	reg.CounterFunc(prefix+"_pipeline_cache_hits_total", "Pipeline compiles served from cache.", m.CacheHits.Load)
	reg.CounterFunc(prefix+"_pipeline_store_hits_total", "Pipeline compiles served from the persistent artifact store.", m.StoreHits.Load)
	reg.CounterFunc(prefix+"_pipeline_panics_total", "Compiles that panicked (isolated to errors).", m.Panics.Load)
	reg.CounterFunc(prefix+"_pipeline_errors_total", "Compiles that returned errors.", m.Errors.Load)
	reg.GaugeFunc(prefix+"_pipeline_in_flight", "Compiles currently executing.", m.InFlight.Load)
	reg.CounterFunc(prefix+"_pipeline_verify_failures_total", "Compiles rejected by the static verifier.", m.VerifyFailures.Load)
	reg.CounterFunc(prefix+"_pipeline_verify_runs_total", "Verifier executions (verdict-cache misses).", m.VerifyRuns.Load)
	reg.CounterFunc(prefix+"_pipeline_verdict_hits_total", "Verified compiles answered from the verdict cache.", m.VerdictHits.Load)
	telemetry.ExportReadyOccupancy(reg)
}

// compileIsolated runs one compile with panic isolation: a panic inside
// region formation or scheduling becomes an error result for this function
// instead of killing the process.
func compileIsolated(fn *ir.Function, prof *profile.Data, c eval.Config, m *Metrics, arena *eval.Arena) (fr *eval.FunctionResult, err error) {
	if m != nil {
		m.InFlight.Add(1)
		defer m.InFlight.Add(-1)
		m.Compiles.Add(1)
	}
	defer func() {
		if r := recover(); r != nil {
			if m != nil {
				m.Panics.Add(1)
			}
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			fr, err = nil, fmt.Errorf("compile panicked: %v\n%s", r, buf)
		}
	}()
	return compileFunc(fn, prof, c, arena)
}
