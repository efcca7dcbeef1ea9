package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"treegion/internal/cfg"
	"treegion/internal/core"
	"treegion/internal/ddg"
	"treegion/internal/eval"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/region"
	"treegion/internal/sched"
	"treegion/internal/telemetry"
	"treegion/internal/verify"
)

// layer names one timed boundary: an exported entry point of a layer
// package, called from this benchmark's replay.
type layer uint8

const (
	lForm layer = iota
	lLiveness
	lDDG
	lSched
	lMeasure
	lVerifyIR
	lVerifyRG
	lVerifySC
	lVerifySEM
	lVerifyCL
	lProfile
	lParse
	lCache
	lStoreGet
	lStorePut
	// lGlue marks a structural span: it separates a child layer from its
	// parent's self time, and its own self time is unattributed.
	lGlue
	numLayers
)

// layerMetric is the per-layer metric name of each layer's self time.
var layerMetric = [numLayers]string{
	lForm:      "core.form_ms",
	lLiveness:  "cfg.liveness_ms",
	lDDG:       "ddg.build_ms",
	lSched:     "sched.ms",
	lMeasure:   "eval.measure_ms",
	lVerifyIR:  "verify.ir_ms",
	lVerifyRG:  "verify.rg_ms",
	lVerifySC:  "verify.sc_ms",
	lVerifySEM: "verify.sem_ms",
	lVerifyCL:  "verify.cl_ms",
	lProfile:   "interp.profile_ms",
	lParse:     "irtext.parse_ms",
	lCache:     "compcache.get_ms",
	lStoreGet:  "store.get_ms",
	lStorePut:  "store.put_ms",
	lGlue:      "unattributed",
}

// span is one timed call. Times are nanoseconds since the recorder's base.
type span struct {
	start, end int64
	parent     int32
	pass       int32
	fn         int32
	layer      layer
}

// counts are recorded at the same boundaries as the spans.
type counts struct {
	regions, nodes, edges, cycles int
	ddgAllocBytes                 uint64
}

// recorder keeps every span in memory; they are written out when the run
// ends. A nil *recorder records nothing, so one replay serves both the
// traced and the untraced side.
type recorder struct {
	base  time.Time
	spans []span
	cur   int32
	pass  int32
	fn    int32
	c     counts
	alloc []metrics.Sample
	// countAllocs turns on the heap-allocation reads around each ddg
	// build. They cost microseconds per region, so they run only on a
	// pass that is kept out of the timing ledger.
	countAllocs bool
}

func newRecorder() *recorder {
	return &recorder{
		base:  time.Now(),
		cur:   -1,
		alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (r *recorder) begin(l layer) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{start: int64(time.Since(r.base)), parent: r.cur, pass: r.pass, fn: r.fn, layer: l})
	r.cur = id
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].end = int64(time.Since(r.base))
	r.cur = r.spans[id].parent
}

func (r *recorder) allocBytes() uint64 {
	if r == nil || !r.countAllocs {
		return 0
	}
	metrics.Read(r.alloc)
	return r.alloc[0].Value.Uint64()
}

// selfTimes returns each layer's self time (span minus child spans) over
// spans[from:], in nanoseconds. Structural spans land in lGlue.
func (r *recorder) selfTimes(from int) [numLayers]int64 {
	var out [numLayers]int64
	self := make([]int64, len(r.spans)-from)
	for i := from; i < len(r.spans); i++ {
		s := r.spans[i]
		d := s.end - s.start
		self[i-from] += d
		if p := int(s.parent); p >= from {
			self[p-from] -= d
		}
	}
	for i, v := range self {
		out[r.spans[from+i].layer] += v
	}
	return out
}

// write dumps every span as tab-separated text.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tpass\tfn\tlayer\tstart_ns\tend_ns")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.pass, s.fn, layerMetric[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scratch is the replay's counterpart of eval.Arena: one ddg and one
// scheduler scratch reused across the functions of one compile call.
type scratch struct {
	ddg   ddg.Scratch
	sched sched.Scratch
}

// replayFunction compiles a clone of orig exactly as the pipeline does
// (eval.CompileFunctionArena behind compileOne's clones), calling the layer
// entry points in the same order and recording a span around each.
func replayFunction(rec *recorder, orig *ir.Function, prof0 *profile.Data, c eval.Config, sc *scratch) (*eval.FunctionResult, error) {
	if c.IfConvert || c.Inline.Enabled {
		return nil, fmt.Errorf("replay: if-conversion and inlining are not replayed")
	}
	fn := orig.Clone()
	prof := prof0.Clone()
	tr := telemetry.NewTrace(fn.Name)
	res := &eval.FunctionResult{Fn: fn, Prof: prof, OpsBefore: fn.NumOps(), Trace: tr}

	s := rec.begin(lForm)
	g := cfg.New(fn)
	switch c.Kind {
	case eval.Treegion:
		res.Regions = core.FormInline(fn, g, nil)
	case eval.TreegionTD:
		td := c.TD
		if td.ExpansionLimit == 0 {
			td = core.DefaultTDConfig()
		}
		res.Regions = core.FormTDInlineTraced(fn, prof, td, tr, nil)
	default:
		rec.end(s)
		return nil, fmt.Errorf("replay: region kind %s is not replayed", c.Kind)
	}
	rec.end(s)
	res.OpsAfter = fn.NumOps()
	if rec != nil {
		rec.c.regions += len(res.Regions)
	}
	if err := region.CheckPartition(fn, res.Regions); err != nil {
		return nil, fmt.Errorf("replay: %s: %w", fn.Name, err)
	}

	s = rec.begin(lLiveness)
	lv := cfg.ComputeLiveness(cfg.New(fn))
	rec.end(s)

	for _, r := range res.Regions {
		s = rec.begin(lDDG)
		a0 := rec.allocBytes()
		dg, err := ddg.BuildScratch(fn, r, ddg.Options{
			Rename:               c.Rename,
			DominatorParallelism: c.DominatorParallelism,
			Liveness:             lv,
			Profile:              prof,
		}, &sc.ddg)
		a1 := rec.allocBytes()
		rec.end(s)
		if err != nil {
			return nil, err
		}
		s = rec.begin(lSched)
		sch := sched.ListScheduleScratch(dg, c.Machine, c.Heuristic.Keys, tr, &sc.sched)
		rec.end(s)
		if err := sch.Verify(); err != nil {
			return nil, fmt.Errorf("replay: %s: %w", fn.Name, err)
		}
		s = rec.begin(lMeasure)
		rt := eval.MeasureRegion(sch, prof, lv)
		rec.end(s)
		if rec != nil {
			rec.c.ddgAllocBytes += a1 - a0
			rec.c.nodes += len(dg.Nodes)
			for _, n := range dg.Nodes {
				rec.c.edges += len(n.Succs)
			}
			rec.c.cycles += sch.Length
		}
		res.Time += rt.Time
		res.Copies += rt.TimeWithCopies
		res.Schedules = append(res.Schedules, sch)
		res.NumRenamed += dg.NumRenamed
		res.NumCopies += dg.NumCopies
		res.NumMerged += dg.NumMerged
		ss := sch.Stats()
		res.Sched = res.Sched.Add(ss)
		res.NumSpeculated += ss.Speculated
	}
	return res, nil
}

// verifyOptions translates a compile config into verifier options exactly
// as eval.VerifyDiagnostics does, with Orig set so the differential
// semantics check runs.
func verifyOptions(orig *ir.Function, c eval.Config) verify.Options {
	var td core.TDConfig
	if c.Kind == eval.TreegionTD {
		td = c.TD
		if td.ExpansionLimit == 0 {
			td = core.DefaultTDConfig()
		}
	}
	return verify.Options{Machine: c.Machine, TD: td, IfConvert: c.IfConvert, Orig: orig}
}

// replayVerify runs verify.Compiled's rule families one call at a time, in
// Compiled's order, with a span around each family.
func replayVerify(rec *recorder, orig *ir.Function, fr *eval.FunctionResult, c eval.Config) []verify.Diagnostic {
	opts := verifyOptions(orig, c)
	if err := opts.Machine.Validate(); err != nil {
		return []verify.Diagnostic{{Rule: "MC001", Severity: verify.Error, Fn: fr.Fn.Name, Block: ir.NoBlock, Op: -1, Message: err.Error()}}
	}
	s := rec.begin(lVerifyIR)
	ds := verify.CheckFunction(fr.Fn, opts.IfConvert)
	rec.end(s)
	if verify.HasErrors(ds) {
		return ds
	}
	s = rec.begin(lLiveness)
	lv := cfg.ComputeLiveness(cfg.New(fr.Fn))
	rec.end(s)
	s = rec.begin(lVerifyRG)
	ds = append(ds, verify.CheckRegionsInline(fr.Fn, fr.Regions, opts.TD, opts.Inline)...)
	rec.end(s)
	s = rec.begin(lVerifySC)
	for i, sch := range fr.Schedules {
		ds = append(ds, verify.CheckSchedule(fr.Fn, fr.Regions[i], sch, lv)...)
	}
	rec.end(s)
	if opts.Prog != nil || opts.Inline != nil {
		s = rec.begin(lVerifyCL)
		ds = append(ds, verify.CheckCalls(fr.Fn, opts)...)
		rec.end(s)
	}
	s = rec.begin(lVerifySEM)
	ds = append(ds, verify.CheckSemanticsProgram(opts.Prog, opts.Orig, fr.Fn, opts.Seeds, opts.MaxSteps)...)
	rec.end(s)
	return ds
}

// replayProgram mirrors one CompileEach call plus eval.Aggregate: a fresh
// scratch per call, functions in order, verification after each compile
// when asked.
func replayProgram(rec *recorder, p *program, c eval.Config, verified bool) (*eval.ProgramResult, error) {
	var sc scratch
	frs := make([]*eval.FunctionResult, len(p.fns))
	for i, orig := range p.fns {
		fr, err := replayFunction(rec, orig, p.profs[i], c, &sc)
		if err != nil {
			return nil, err
		}
		if verified {
			if ds := replayVerify(rec, orig, fr, c); verify.HasErrors(ds) {
				return nil, &verify.Failure{Fn: orig.Name, Diagnostics: ds}
			}
		}
		frs[i] = fr
		if rec != nil {
			rec.fn++
		}
	}
	return eval.Aggregate(p.name, c, frs), nil
}
