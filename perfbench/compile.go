package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"treegion"
	"treegion/internal/eval"
	"treegion/internal/verify"
)

// namedConfig is one compile configuration of a workload.
type namedConfig struct {
	label string
	cfg   treegion.Config
}

// headline is the paper's headline configuration: tree, global weight, 4U.
func headline() namedConfig {
	return namedConfig{"tree/GW/4U", treegion.DefaultConfig()}
}

// fig13 is Figure 13's tree-td configuration: tail duplication at expansion
// limit 2.0, global weight, 8U, dominator parallelism on.
func fig13() namedConfig {
	return namedConfig{"tree-td(2.0)/GW/8U", treegion.Config{
		Kind: treegion.TreegionTD, Heuristic: treegion.GlobalWeight, Machine: treegion.EightU, Rename: true,
		DominatorParallelism: true,
		TD:                   treegion.TDConfig{ExpansionLimit: 2.0, PathLimit: 20, MergeLimit: 4},
	}}
}

// compileWorkload is a workload that compiles generated programs
// in-process, cold, on one worker.
type compileWorkload struct {
	configs []namedConfig
	verify  bool
	inputs  func(seed uint64) ([]*program, error)
	// setupReps is how many times setup is repeated; setup_s is the median.
	setupReps int
}

// compilePass is one timed pass: every program under every config.
type compilePass struct {
	wall, cpu time.Duration
	peak      float64 // MiB, VmHWM over the pass
	ops       int
	opsAfter  int
	lat       []float64 // ms per function, as the caller sees it
	est       float64   // Σ program Time, in cycles
	digest    uint64    // schedule lengths and est, to prove passes identical
	goDelta   goStats
	results   [][]*eval.ProgramResult // [config][program]
}

func (w *compileWorkload) options() []treegion.CompileOption {
	opts := []treegion.CompileOption{treegion.WithWorkers(1)}
	if w.verify {
		opts = append(opts, treegion.WithVerify())
	}
	return opts
}

// runPass compiles every program through the pipeline's streaming entry
// point, CompileEach: the same serial compile loop and per-call scratch
// arena as treegion.Compile, but with a callback per finished function, so
// each function's latency is observable. The results are then aggregated
// exactly as Compile does.
func (w *compileWorkload) runPass(ctx context.Context, progs []*program) (*compilePass, error) {
	runtime.GC()
	resetPeakRSS("self") // a failed reset is reported once, in run
	p := &compilePass{results: make([][]*eval.ProgramResult, len(w.configs))}
	opts := w.options()
	g0 := readGo()
	c0 := cpuTime()
	t0 := time.Now()
	for ci, nc := range w.configs {
		p.results[ci] = make([]*eval.ProgramResult, len(progs))
		for pi, prog := range progs {
			frs := make([]*eval.FunctionResult, len(prog.fns))
			prev := time.Now()
			err := treegion.CompileEach(ctx, prog.fns, prog.profs, nc.cfg, func(i int, fr *treegion.FunctionResult, _ bool, err error) error {
				if err != nil {
					return fmt.Errorf("%s: %s: %w", nc.label, prog.fns[i].Name, err)
				}
				now := time.Now()
				p.lat = append(p.lat, float64(now.Sub(prev))/1e6)
				prev = now
				frs[i] = fr
				return nil
			}, opts...)
			if err != nil {
				return nil, err
			}
			p.results[ci][pi] = eval.Aggregate(prog.name, nc.cfg, frs)
		}
	}
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - c0
	p.goDelta = readGo().sub(g0)
	var err error
	if p.peak, err = peakRSSMiB("self"); err != nil {
		return nil, err
	}
	p.summarize()
	return p, nil
}

// summarize fills the pass's op counts, estimate and digest from its
// results.
func (p *compilePass) summarize() {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	p.ops, p.opsAfter, p.est = 0, 0, 0
	for _, byProg := range p.results {
		for _, r := range byProg {
			p.est += r.Time
			put(math.Float64bits(r.Time))
			for _, fr := range r.Funcs {
				p.ops += fr.OpsBefore
				p.opsAfter += fr.OpsAfter
				for _, s := range fr.Schedules {
					put(uint64(s.Length))
				}
			}
		}
	}
	p.digest = h.Sum64()
}

// tracedPass replays the same pass through the layer entry points with
// spans recorded around each call.
func (w *compileWorkload) tracedPass(rec *recorder, progs []*program) (*compilePass, error) {
	runtime.GC()
	p := &compilePass{results: make([][]*eval.ProgramResult, len(w.configs))}
	t0 := time.Now()
	for ci, nc := range w.configs {
		p.results[ci] = make([]*eval.ProgramResult, len(progs))
		for pi, prog := range progs {
			r, err := replayProgram(rec, prog, nc.cfg, w.verify)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", nc.label, err)
			}
			p.results[ci][pi] = r
		}
	}
	p.wall = time.Since(t0)
	p.summarize()
	return p, nil
}

// checkOutputs verifies every compiled function of one pass once with the
// static verifier, with Orig set so the differential interpretation runs
// on the independent interpreter. It returns the number of functions
// checked and one line per failure.
func (w *compileWorkload) checkOutputs(p *compilePass, progs []*program) (int, []string) {
	n := 0
	var bad []string
	for ci, nc := range w.configs {
		for pi, prog := range progs {
			for fi, fr := range p.results[ci][pi].Funcs {
				n++
				opts := verifyOptions(prog.fns[fi], nc.cfg)
				ds := verify.Compiled(fr.Fn, fr.Regions, fr.Schedules, opts)
				if verify.HasErrors(ds) {
					bad = append(bad, fmt.Sprintf("verify %s %s: %v", nc.label, fr.Fn.Name, verify.Rules(ds)))
				}
			}
		}
	}
	return n, bad
}

// Published seed-0 figures (EXPERIMENTS.md): Figure 8's tree/GW/4U geomean
// speedup, Figure 13's tree-td(2.0)/GW/8U geomean speedup, and Table 3's
// average tree(2.0) code expansion.
const (
	paperFig8GeoMean  = 2.496
	paperFig13GeoMean = 2.810
	paperTable3Exp    = 1.44
)

// checkPaperFigures recomputes the published suite figures at seed 0 from
// one pass's results plus a bb/1U baseline compile of each program.
func checkPaperFigures(ctx context.Context, p *compilePass, progs []*program) ([]string, error) {
	base := make([]float64, len(progs))
	for i, prog := range progs {
		r, err := treegion.Compile(ctx, &treegion.Program{Name: prog.name, Funcs: prog.fns}, prog.profs,
			treegion.BaselineConfig(), treegion.WithWorkers(1))
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", prog.name, err)
		}
		base[i] = r.Time
	}
	geo := func(ci int) float64 {
		s := 0.0
		for i, r := range p.results[ci] {
			s += math.Log(treegion.Speedup(base[i], r.Time))
		}
		return math.Exp(s / float64(len(progs)))
	}
	var exp float64
	for _, r := range p.results[1] {
		exp += r.CodeExpansion
	}
	exp /= float64(len(progs))
	var bad []string
	if got := math.Round(geo(0)*1000) / 1000; got != paperFig8GeoMean {
		bad = append(bad, fmt.Sprintf("fig8 tree/GW/4U geomean %.3f, published %.3f", got, paperFig8GeoMean))
	}
	if got := math.Round(geo(1)*1000) / 1000; got != paperFig13GeoMean {
		bad = append(bad, fmt.Sprintf("fig13 tree-td(2.0)/GW/8U geomean %.3f, published %.3f", got, paperFig13GeoMean))
	}
	if got := math.Round(exp*100) / 100; got != paperTable3Exp {
		bad = append(bad, fmt.Sprintf("table3 tree(2.0) expansion %.2f, published %.2f", got, paperTable3Exp))
	}
	return bad, nil
}

// compileWorkloads defines the three in-process workloads.
func compileWorkloads() map[string]*compileWorkload {
	return map[string]*compileWorkload{
		"suite":    {configs: []namedConfig{headline(), fig13()}, inputs: suiteInputs, setupReps: 11},
		"bigfn":    {configs: []namedConfig{headline()}, inputs: bigfnInputs, setupReps: 11},
		"verified": {configs: []namedConfig{headline()}, verify: true, inputs: suiteInputs, setupReps: 11},
	}
}

// runCompile sets up, warms up, measures for o.seconds and checks one
// compile workload.
func runCompile(ctx context.Context, w *compileWorkload, o runOpts, rep *report) error {
	var setups []float64
	var progs []*program
	for i := 0; i < w.setupReps; i++ {
		progs = nil
		runtime.GC() // no set-up pays for the last one's garbage
		t0 := time.Now()
		ps, err := w.inputs(o.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		progs = ps
	}
	nfn, nops := 0, 0
	for _, p := range progs {
		nfn += len(p.fns)
		nops += p.ops()
	}
	var labels []string
	for _, nc := range w.configs {
		labels = append(labels, nc.label)
	}
	rep.linef("# inputs: %d programs, %d functions, %d ops; configs %v; verify=%t; workers=1", len(progs), nfn, nops, labels, w.verify)

	if _, err := w.runPass(ctx, progs); err != nil {
		rep.fail("warm-up pass: %v", err)
		return nil
	}
	if o.trace {
		return w.runTraced(ctx, progs, o, rep)
	}
	window := time.Duration(o.seconds * float64(time.Second))
	var passes []*compilePass
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < window {
		if err := ctx.Err(); err != nil {
			return err
		}
		p, err := w.runPass(ctx, progs)
		if err != nil {
			rep.fail("pass %d: %v", len(passes), err)
			break
		}
		// Results are dropped as soon as they are summarized, so the peak
		// RSS is that of one pass, as for a caller of treegion.Compile.
		p.results = nil
		passes = append(passes, p)
	}
	if len(passes) == 0 {
		return nil
	}
	rep.attempted += len(passes) * nfn * len(w.configs)

	// Output checks, outside the timed window, on one more pass.
	first := passes[0]
	last, err := w.runPass(ctx, progs)
	if err != nil {
		rep.fail("check pass: %v", err)
		return nil
	}
	for i, p := range append(passes, last) {
		if p.digest != first.digest {
			rep.fail("pass %d: schedules or estimate differ from pass 0", i)
		}
	}
	checked, bad := w.checkOutputs(last, progs)
	rep.attempted += checked
	for _, b := range bad {
		rep.fail("%s", b)
	}
	rep.linef("# check: %d passes identical; %d functions verified (IR/RG/SC/SEM) with %d failures", len(passes)+1, checked, len(bad))
	if o.workload == "suite" && o.seed == 0 {
		bad, err := checkPaperFigures(ctx, last, progs)
		if err != nil {
			return err
		}
		rep.attempted++
		for _, b := range bad {
			rep.fail("%s", b)
		}
		rep.linef("# check: seed 0 reproduces Fig. 8 %.3f, Fig. 13 %.3f and Table 3 %.2f: %t",
			paperFig8GeoMean, paperFig13GeoMean, paperTable3Exp, len(bad) == 0)
	}

	var kops, cpuPerKop, peaks, lat []float64
	for _, p := range passes {
		k := float64(p.ops) / 1000
		kops = append(kops, k/p.wall.Seconds())
		cpuPerKop = append(cpuPerKop, float64(p.cpu)/1e6/k)
		peaks = append(peaks, p.peak)
		lat = append(lat, p.lat...)
	}
	rep.addTimed("setup_s", setups, "s")
	rep.addTimed("kops_per_s", kops, "kops/s")
	rep.addTimed("cpu_ms_per_kop", cpuPerKop, "ms")
	rep.addTimed("peak_rss_mb", peaks, "MiB")
	printLatency(rep, lat, "function compile")
	dyn := 0.0
	for _, p := range progs {
		dyn += p.dynOps()
	}
	rep.add("est_mcycles", first.est/(dyn*float64(len(w.configs))), "Mcycles/Mop")
	rep.add("code_expansion", float64(first.opsAfter)/float64(first.ops), "x")
	rep.linef("metric %-26s %14.6g fraction (%d failed of %d attempted)", "fail_frac",
		float64(len(rep.failures))/float64(rep.attempted), len(rep.failures), rep.attempted)
	return nil
}

// printLatency prints lat_ms_p50, and lat_ms_p99 when enough samples lie
// beyond it. Neither is bounded: a latency percentile moves with the input
// sizes a seed draws, not only with the code.
func printLatency(rep *report, lat []float64, what string) {
	rep.linef("metric %-26s %14.6g %-8s samples=%d (per %s; printed only)", "lat_ms_p50", median(lat), "ms", len(lat), what)
	if p99, err := tail(lat, 0.99); err == nil {
		rep.linef("metric %-26s %14.6g %-8s samples=%d (printed only)", "lat_ms_p99", p99, "ms", len(lat))
	} else {
		rep.linef("metric %-26s %14s %-8s not reported: %v", "lat_ms_p99", "-", "ms", err)
	}
}

// runTraced alternates untraced passes with traced replays of the same
// work until the window is spent, checks that each replay reproduced its
// twin exactly, and emits the per-layer ledger.
func (w *compileWorkload) runTraced(ctx context.Context, progs []*program, o runOpts, rep *report) error {
	rec := newRecorder()
	rec.countAllocs = true
	if _, err := w.tracedPass(rec, progs); err != nil {
		rep.fail("warm-up traced pass: %v", err)
		return nil
	}
	rec.countAllocs = false
	led := ledger{ddgAllocMiB: float64(rec.c.ddgAllocBytes) / (1 << 20)}
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for led.passes == 0 || time.Since(start) < window {
		if err := ctx.Err(); err != nil {
			return err
		}
		plain, err := w.runPass(ctx, progs)
		if err != nil {
			rep.fail("untraced pass: %v", err)
			break
		}
		rec.pass++
		mark, c0 := len(rec.spans), rec.c
		traced, err := w.tracedPass(rec, progs)
		if err != nil {
			rep.fail("traced pass: %v", err)
			break
		}
		rep.attempted++
		if traced.digest != plain.digest || traced.est != plain.est {
			rep.fail("traced pass %d: replay est %.0f differs from untraced %.0f (or schedule lengths differ)", led.passes, traced.est, plain.est)
		}
		led.addPass(rec, mark, c0, traced.wall, plain.wall)
		led.plainOps += plain.ops
		d := plain.goDelta
		led.goDelta.gcCPU += d.gcCPU
		led.goDelta.totalCPU += d.totalCPU
		led.goDelta.allocBytes += d.allocBytes
	}
	led.emit(rep)
	if err := rec.write(spanPath(o)); err != nil {
		return err
	}
	rep.linef("# spans written to %s", spanPath(o))
	return nil
}
