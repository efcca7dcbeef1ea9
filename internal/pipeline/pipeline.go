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
	// Verify runs the static verifier as the last step of every compile
	// and records its diagnostics on the FunctionResult, which is cached
	// like any other field under a key of its own (plain and verified
	// compiles never share an artifact). A function whose result holds an
	// Error-severity diagnostic fails with a *verify.Failure carrying the
	// full list, whether it was compiled now or served from a cache tier;
	// advisory diagnostics ride on the result.
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
	// VerifyFailures counts verifier runs that found an Error.
	VerifyFailures atomic.Int64
	// VerifyRuns counts verifier executions: one per cold verified compile.
	VerifyRuns atomic.Int64
}

// compileFunc is the per-function compile entry point; tests swap it to
// inject panics and failures.
var compileFunc = eval.CompileFunctionArena

// CompileProgram compiles every function of prog under c through
// CompileEach and aggregates the results exactly as eval.CompileProgram
// does. Results are collected in function order, so the returned
// ProgramResult is deterministic in the inputs. On error it returns the
// failing function with the lowest index (also deterministic) and compiles
// nothing past it. The originals in prog and profs are never mutated.
func CompileProgram(ctx context.Context, prog *progen.Program, profs eval.Profiles, c eval.Config, opts Options) (*eval.ProgramResult, error) {
	if len(profs) != len(prog.Funcs) {
		return nil, fmt.Errorf("pipeline: %s: %d profiles for %d functions", prog.Name, len(profs), len(prog.Funcs))
	}
	if err := applyInline(&c, prog.Funcs, profs, opts); err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", prog.Name, err)
	}
	frs := make([]*eval.FunctionResult, len(prog.Funcs))
	err := CompileEach(ctx, prog.Funcs, profs, c, opts, func(i int, fr *eval.FunctionResult, _ bool, err error) error {
		if err != nil {
			return fmt.Errorf("function %s: %w", prog.Funcs[i].Name, err)
		}
		frs[i] = fr
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", prog.Name, err)
	}
	return eval.Aggregate(prog.Name, c, frs), nil
}

// CompileEach compiles fns[i] against profs[i] and calls emit exactly once
// per index, in index order, as results become available — the pipeline's
// one driver, behind CompileProgram and the daemon's /v1/compile-batch.
// Each worker claims the next index from a shared counter and compiles it
// on the worker's own arena. A per-function failure is delivered to emit
// as err (the run continues); an error returned BY emit (e.g. the client
// went away) cancels the remaining work and is returned after the workers
// drain. emit runs on the caller's goroutine.
func CompileEach(ctx context.Context, fns []*ir.Function, profs []*profile.Data, c eval.Config, opts Options,
	emit func(i int, fr *eval.FunctionResult, cached bool, err error) error) error {
	if len(profs) != len(fns) {
		return fmt.Errorf("pipeline: %d profiles for %d functions", len(profs), len(fns))
	}
	if err := applyInline(&c, fns, profs, opts); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	n := len(fns)
	workers := min(opts.workers(), n)
	if workers <= 1 {
		// A single worker compiles and emits in turn on the caller's
		// goroutine: a goroutine hop per function buys nothing there, and
		// showed up as a one-worker pipeline running measurably slower
		// than a plain serial loop.
		arena := eval.NewArena()
		for i := range fns {
			if err := ctx.Err(); err != nil {
				return err
			}
			fr, hit, err := compileOne(fns[i], profs[i], c, opts, arena)
			if err := emit(i, fr, hit, err); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Worker results land at their index; done[i] closes once index i has
	// settled, which also publishes frs[i], cached[i] and errs[i].
	frs := make([]*eval.FunctionResult, n)
	cached := make([]bool, n)
	errs := make([]error, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			arena := eval.NewArena()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				frs[i], cached[i], errs[i] = compileOne(fns[i], profs[i], c, opts, arena)
				close(done[i])
			}
		}()
	}

	var err error
	for i := 0; i < n && err == nil; i++ {
		select {
		case <-done[i]:
		case <-ctx.Done():
		}
		// An index that settled as ctx died is still emitted.
		select {
		case <-done[i]:
			err = emit(i, frs[i], cached[i], errs[i])
		default:
			err = ctx.Err()
		}
	}
	cancel() // stop compiling what nobody will read
	wg.Wait()
	return err
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
// formatting cost. A verified compile's result carries the verifier's
// diagnostics, so it is a different artifact: verified keys append
// "/verify" to the fingerprint, and plain keys stay as they were.
func contentKey(orig *ir.Function, prof *profile.Data, c eval.Config, verified bool) compcache.Key {
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
	fp := c.Fingerprint()
	if verified {
		fp += "/verify"
	}
	k := compcache.KeyOfBytes(buf[:mark], buf[mark:], fp)
	*bp = buf[:0]
	keyBufPool.Put(bp)
	return k
}

// compileOne compiles one function on clones of (orig, prof), going through
// the tiered cache (memory, then disk, then compile) when one is
// configured. Concurrent identical requests coalesce onto one compile.
// arena is the calling worker's private compile scratch.
//
// A verified result carries its diagnostics from whichever tier served it,
// so a failing function is compiled and verified once per key, and every
// later lookup returns the recorded Failure without re-running either.
func compileOne(orig *ir.Function, prof *profile.Data, c eval.Config, opts Options, arena *eval.Arena) (*eval.FunctionResult, bool, error) {
	var key compcache.Key
	if opts.Cache != nil {
		key = contentKey(orig, prof, c, opts.Verify)
	}
	fr, src, err := opts.Cache.GetOrCompute(key, func() (*eval.FunctionResult, error) {
		fr, err := compileIsolated(orig, prof, c, opts, arena)
		if err == nil && opts.Telemetry != nil {
			observeResult(opts.Telemetry, fr)
		}
		return fr, err
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
	if opts.Verify && verify.HasErrors(fr.Diagnostics) {
		if opts.Metrics != nil {
			opts.Metrics.Errors.Add(1)
		}
		return nil, false, &verify.Failure{Fn: orig.Name, Diagnostics: fr.Diagnostics}
	}
	return fr, hit, nil
}

// observeResult publishes one cold compile's telemetry: per-phase latency
// histograms and op counters, the scheduling counters behind the paper's
// why-treegions-win discussion, and region-shape histograms.
func observeResult(reg *telemetry.Registry, fr *eval.FunctionResult) {
	reg.Counter("treegion_compile_functions_total", "Functions cold-compiled through the pipeline.").Inc()
	reg.Counter("treegion_compile_ops_total",
		"Ops compiled (post-formation) across all cold compiles; divide by wall time for ops/sec.").Add(int64(fr.OpsAfter))
	for _, d := range fr.Diagnostics {
		reg.LabeledCounter("treegion_verify_diagnostics_total",
			telemetry.Labels{"rule": d.Rule, "severity": d.Severity.String()},
			"Static-verifier diagnostics by rule and severity.").Inc()
	}
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
	reg.CounterFunc(prefix+"_pipeline_verify_runs_total", "Verifier executions (cold verified compiles).", m.VerifyRuns.Load)
	telemetry.ExportReadyOccupancy(reg)
}

// compileIsolated compiles clones of (orig, prof) with panic isolation: a
// panic inside region formation, scheduling or the verifier becomes an
// error result for this function instead of killing the process. The
// pipeline is the only code that recovers a compile panic, and a panicked
// compile leaves its scratch mid-build, so the recovery replaces the
// worker's arena with an empty one. With opts.Verify the verifier runs
// last: its diagnostics land on the result and its time on the trace.
func compileIsolated(orig *ir.Function, prof *profile.Data, c eval.Config, opts Options, arena *eval.Arena) (fr *eval.FunctionResult, err error) {
	m := opts.Metrics
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
			*arena = eval.Arena{}
			fr, err = nil, fmt.Errorf("compile panicked: %v\n%s", r, buf)
		}
	}()
	fr, err = compileFunc(orig.Clone(), prof.Clone(), c, arena)
	if err != nil || !opts.Verify {
		return fr, err
	}
	t0 := time.Now()
	ds := eval.VerifyResult(orig, fr, c)
	fr.Trace.Observe(telemetry.PhaseVerify, time.Since(t0), fr.OpsAfter)
	if m != nil {
		m.VerifyRuns.Add(1)
		if verify.HasErrors(ds) {
			m.VerifyFailures.Add(1)
		}
	}
	return fr, nil
}
