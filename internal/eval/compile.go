package eval

import (
	"fmt"
	"time"

	"treegion/internal/cfg"
	"treegion/internal/core"
	"treegion/internal/ddg"
	"treegion/internal/hyper"
	"treegion/internal/inline"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/linear"
	"treegion/internal/machine"
	"treegion/internal/profile"
	"treegion/internal/progen"
	"treegion/internal/region"
	"treegion/internal/sched"
	"treegion/internal/telemetry"
	"treegion/internal/verify"
)

// RegionKind selects the region former for a compilation.
type RegionKind uint8

// Region formers, in the paper's order of presentation.
const (
	BasicBlocks RegionKind = iota
	SLR
	Treegion
	Superblock
	TreegionTD
)

// String names the kind as in the paper.
func (k RegionKind) String() string {
	switch k {
	case BasicBlocks:
		return "bb"
	case SLR:
		return "slr"
	case Treegion:
		return "tree"
	case Superblock:
		return "sb"
	case TreegionTD:
		return "tree-td"
	default:
		return "?"
	}
}

// ParseRegionKind resolves a command-line name.
func ParseRegionKind(s string) (RegionKind, error) {
	for _, k := range []RegionKind{BasicBlocks, SLR, Treegion, Superblock, TreegionTD} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown region kind %q (want bb, slr, tree, sb or tree-td)", s)
}

// Config is one compilation configuration: how regions are formed and
// scheduled, and on which machine the result is timed.
type Config struct {
	Kind      RegionKind
	Heuristic core.Heuristic
	Machine   machine.Model
	// Rename enables compile-time register renaming (paper: on).
	Rename bool
	// DominatorParallelism enables duplicate merging; meaningful for
	// TreegionTD (paper Section 4).
	DominatorParallelism bool
	// TD bounds treegion tail duplication (TreegionTD only).
	TD core.TDConfig
	// SB bounds superblock formation (Superblock only).
	SB linear.SuperblockConfig
	// IfConvert runs hyperblock-style if-conversion before region formation
	// (the paper's future-work comparison of predication vs tail
	// duplication); Hyper bounds it.
	IfConvert bool
	Hyper     hyper.Config
	// Inline enables demand-driven inline-on-absorb during treegion
	// formation (Treegion and TreegionTD kinds): calls whose callee fits the
	// budgets are spliced into the growing region. Requires InlineEnv.
	Inline inline.Config
	// InlineEnv is the interprocedural context (resolved program plus
	// per-function profiles) the inliner clones callee bodies from. It is
	// input content, not configuration — the pipeline hashes the reachable
	// callees into cache keys separately — so it is not fingerprinted.
	InlineEnv *inline.Env
}

// Fingerprint returns a canonical string covering every field of the
// Config. It is the configuration component of content-addressed cache keys
// and memoization keys: two Configs compile identically iff their
// fingerprints match.
func (c Config) Fingerprint() string {
	fp := fmt.Sprintf("k%s/h%s/m%s-%d/r%t/d%t/td%g-%d-%d/sb%d-%g/ic%t-%d-%d",
		c.Kind, c.Heuristic, c.Machine.Name, c.Machine.IssueWidth,
		c.Rename, c.DominatorParallelism,
		c.TD.ExpansionLimit, c.TD.PathLimit, c.TD.MergeLimit,
		c.SB.MaxTraceLen, c.SB.ExpansionLimit,
		c.IfConvert, c.Hyper.MaxArmOps, c.Hyper.MaxPasses)
	// The inline segment appears only when inlining is on, keeping every
	// pre-existing fingerprint (and cache key derived from it) byte-stable.
	if c.Inline.Enabled {
		fp += "/il" + c.Inline.Fingerprint()
	}
	return fp
}

// tdConfig returns the tail-duplication bounds TreegionTD compiles and
// verifies under: an expansion limit of 0 means core.DefaultTDConfig().
// Fingerprint hashes the raw fields.
func (c Config) tdConfig() core.TDConfig {
	if c.TD.ExpansionLimit == 0 {
		return core.DefaultTDConfig()
	}
	return c.TD
}

// DefaultConfig returns the paper's headline configuration: treegion
// scheduling with the global weight heuristic on the 4-issue machine.
func DefaultConfig() Config {
	return Config{
		Kind:      Treegion,
		Heuristic: core.GlobalWeight,
		Machine:   machine.FourU,
		Rename:    true,
		TD:        core.DefaultTDConfig(),
		SB:        linear.DefaultSuperblockConfig(),
	}
}

// FunctionResult is the outcome of compiling one function.
type FunctionResult struct {
	Fn *ir.Function
	// Prof is the profile as adjusted by region formation (tail duplication
	// splits weights onto the duplicate blocks).
	Prof      *profile.Data
	Regions   []*region.Region
	Schedules []*sched.Schedule
	Time      float64 // paper metric (copies excluded)
	Copies    float64 // metric including copies
	// Static code size before and after region formation (code expansion).
	OpsBefore, OpsAfter int
	// Transformation counters summed over regions.
	NumRenamed, NumCopies, NumMerged, NumSpeculated int
	// Sched aggregates the per-region schedule statistics (speculation,
	// branch packing, copies) over every region of the function.
	Sched sched.Stats
	// Trace is the per-phase compile telemetry of this function. Its call
	// and op counts are deterministic in the inputs; wall times are not.
	Trace *telemetry.CompileTrace
	// If-conversion statistics (when Config.IfConvert was set).
	Hyper hyper.Stats
	// Inline records the demand-driven inlining performed during formation
	// (when Config.Inline.Enabled was set): splices, added ops, declines.
	Inline inline.Stats
	// Diagnostics holds the static verifier's findings when verification
	// ran (see VerifyResult); nil when it did not.
	Diagnostics []verify.Diagnostic
}

// CompileFunction forms regions over fn (mutating it — pass a clone if the
// original must survive), schedules every region, and measures the result.
// The profile is mutated in step with tail duplication; pass a clone.
func CompileFunction(fn *ir.Function, prof *profile.Data, c Config) (*FunctionResult, error) {
	return CompileFunctionArena(fn, prof, c, NewArena())
}

// CompileFunctionArena is CompileFunction compiling through a caller-owned
// scratch arena. The pipeline gives each worker one arena and reuses it
// across every function the worker compiles.
func CompileFunctionArena(fn *ir.Function, prof *profile.Data, c Config, ar *Arena) (*FunctionResult, error) {
	tr := telemetry.NewTrace(fn.Name)
	res := &FunctionResult{Fn: fn, Prof: prof, OpsBefore: fn.NumOps(), Trace: tr}
	if c.IfConvert {
		t0 := time.Now()
		res.Hyper = hyper.IfConvert(fn, prof, c.Hyper)
		tr.Observe(telemetry.PhaseIfConvert, time.Since(t0), fn.NumOps())
		if err := fn.Validate(); err != nil {
			return nil, fmt.Errorf("eval: %s: invalid after if-conversion: %w", fn.Name, err)
		}
	}
	// Formation. Tail duplication records its own phase inside
	// FormTDInlineTraced; the treeform phase is the formation time net of
	// it, so the trace's phase totals add up without double counting.
	t0 := time.Now()
	// Demand-driven inlining hooks into the treegion formers. New returns
	// nil when disabled or without program context; the typed nil must not
	// reach the interface, or the formers would see a non-nil rewriter.
	in := inline.New(c.Inline, c.InlineEnv, fn, prof)
	var rw core.BlockRewriter
	if in != nil {
		rw = in
	}
	// g is the CFG snapshot formation reads. SLR and treeform without a
	// rewriter leave the function as it was, so liveness reads g too.
	var g *cfg.Graph
	switch c.Kind {
	case BasicBlocks:
		res.Regions = linear.BasicBlocks(fn)
	case SLR:
		g = cfg.New(fn)
		res.Regions = linear.SLRs(fn, g, prof)
	case Treegion:
		g = cfg.New(fn)
		res.Regions = core.FormInline(fn, g, rw)
		if rw != nil {
			g = nil
		}
	case Superblock:
		res.Regions = linear.Superblocks(fn, prof, c.SB)
	case TreegionTD:
		res.Regions = core.FormTDInlineTraced(fn, prof, c.tdConfig(), tr, rw)
	default:
		return nil, fmt.Errorf("eval: unknown region kind %d", c.Kind)
	}
	if in != nil {
		res.Inline = in.Stats()
	}
	res.OpsAfter = fn.NumOps()
	tr.Observe(telemetry.PhaseTreeform,
		time.Since(t0)-time.Duration(tr.PhaseNanos(telemetry.PhaseTailDup)), res.OpsAfter)
	// Every former forms over one region.Partition; its owned-block count
	// confirms the regions cover the function without a map.
	if len(res.Regions) == 0 {
		return nil, fmt.Errorf("eval: %s: no regions formed", fn.Name)
	}
	if err := res.Regions[0].Partition().Check(res.Regions); err != nil {
		return nil, fmt.Errorf("eval: %s: %w", fn.Name, err)
	}
	t0 = time.Now()
	if g == nil {
		g = cfg.New(fn)
	}
	lv := cfg.ComputeLiveness(g)
	tr.Observe(telemetry.PhaseLiveness, time.Since(t0), res.OpsAfter)
	for _, r := range res.Regions {
		t0 = time.Now()
		dg, err := ddg.BuildScratch(fn, r, ddg.Options{
			Rename:               c.Rename,
			DominatorParallelism: c.DominatorParallelism,
			Liveness:             lv,
			Profile:              prof,
		}, &ar.ddg)
		if err != nil {
			return nil, err
		}
		tr.Observe(telemetry.PhaseDDG, time.Since(t0), len(dg.Nodes))
		s := sched.ListScheduleScratch(dg, c.Machine, c.Heuristic.Keys, tr, &ar.sched)
		if err := s.Verify(); err != nil {
			return nil, fmt.Errorf("eval: %s: %w", fn.Name, err)
		}
		t0 = time.Now()
		rt := ar.MeasureRegion(s, prof, lv)
		tr.Observe(telemetry.PhaseMeasure, time.Since(t0), len(dg.Nodes))
		res.Time += rt.Time
		res.Copies += rt.TimeWithCopies
		res.Schedules = append(res.Schedules, s)
		res.NumRenamed += dg.NumRenamed
		res.NumCopies += dg.NumCopies
		res.NumMerged += dg.NumMerged
		ss := s.Stats()
		res.Sched = res.Sched.Add(ss)
		res.NumSpeculated += ss.Speculated
	}
	return res, nil
}

// ProgramResult aggregates one benchmark under one configuration.
type ProgramResult struct {
	Name  string
	Cfg   Config
	Funcs []*FunctionResult
	// Time is the estimated program execution time in cycles.
	Time float64
	// CodeExpansion is Σ ops-after / Σ ops-before.
	CodeExpansion float64
	// RegionStats aggregates the formed regions (executed regions only when
	// a profile is supplied to the underlying stats call).
	RegionStats region.Stats
	// Sched aggregates schedule statistics over every function.
	Sched sched.Stats
	// Inline aggregates the per-function inlining statistics.
	Inline inline.Stats
	// Trace merges the per-function compile traces. Its call and op counts
	// are deterministic in the inputs and the worker count.
	Trace *telemetry.CompileTrace
}

// Profiles holds the per-function profiles of one generated program.
type Profiles []*profile.Data

// ProfileProgram runs the stochastic interpreter over every function of the
// generated program, with the preset's trip count.
func ProfileProgram(prog *progen.Program) (Profiles, error) {
	trips := prog.Preset.ProfileTrips
	if trips <= 0 {
		trips = 50
	}
	out := make(Profiles, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		d, err := interp.Profile(fn, prog.Preset.Seed*1000+uint64(i), trips, interp.Config{MaxSteps: interp.ProfileMaxSteps})
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// CompileProgram compiles every function of prog under c, on fresh clones of
// the functions and profiles, and aggregates the results. When c enables
// inlining without supplying an InlineEnv, the env is resolved from prog
// itself (the original functions — the inliner clones out of them while the
// compilation mutates its own copies). Production code compiles programs
// through pipeline.CompileProgram; this serial form is kept because eval's
// own tests drive whole programs with it and eval cannot import pipeline.
func CompileProgram(prog *progen.Program, profs Profiles, c Config) (*ProgramResult, error) {
	if c.Inline.Enabled && c.InlineEnv == nil {
		p, err := ir.NewProgram(prog.Funcs)
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", prog.Name, err)
		}
		c.InlineEnv = &inline.Env{Prog: p, Profiles: profs}
	}
	frs := make([]*FunctionResult, len(prog.Funcs))
	for i, orig := range prog.Funcs {
		fn := orig.Clone()
		prof := profs[i].Clone()
		fr, err := CompileFunction(fn, prof, c)
		if err != nil {
			return nil, err
		}
		frs[i] = fr
	}
	return Aggregate(prog.Name, c, frs), nil
}

// Aggregate folds per-function results (in function order — aggregation
// order matters for float sums, so parallel drivers must preserve it) into a
// ProgramResult exactly as the serial CompileProgram does.
func Aggregate(name string, c Config, frs []*FunctionResult) *ProgramResult {
	res := &ProgramResult{Name: name, Cfg: c, Trace: telemetry.NewTrace(name)}
	before, after := 0, 0
	var statParts []region.Stats
	for _, fr := range frs {
		res.Funcs = append(res.Funcs, fr)
		before += fr.OpsBefore
		after += fr.OpsAfter
		res.Sched = res.Sched.Add(fr.Sched)
		res.Inline = res.Inline.Add(fr.Inline)
		res.Trace.Merge(fr.Trace)
		switch c.Kind {
		case Superblock:
			// The paper's Table 4 counts only trace-formed superblocks.
			var traces []*region.Region
			for _, r := range fr.Regions {
				if r.FromTrace {
					traces = append(traces, r)
				}
			}
			statParts = append(statParts, region.ComputeStats(traces, nil))
		default:
			statParts = append(statParts, region.ComputeStats(fr.Regions, nil))
		}
	}
	if before > 0 {
		res.CodeExpansion = float64(after) / float64(before)
	}
	res.RegionStats = region.Merge(statParts)
	res.Time = aggregateTime(frs)
	return res
}

// aggregateTime folds per-function times into an estimated program time.
//
// For call-free programs it is the plain function-order sum the serial
// pipeline has always produced (bit-identical floats). When functions call
// each other — resolved residual calls left in the compiled code, or calls
// the inliner absorbed (recorded as splices) — the standalone sum would count
// a callee twice: once in its caller's profile-weighted time (the call's own
// latency, or the spliced body) and once standalone. Instead, each function's
// total time charges every residual callsite with the callee's
// per-invocation time (its total time divided by its profiled entry weight),
// and the program time sums only the roots — functions no other function
// references. Inlined callsites charge nothing: the spliced body is already
// inside the caller's schedule and profile.
func aggregateTime(frs []*FunctionResult) float64 {
	idx := make(map[string]int, len(frs))
	for i, fr := range frs {
		idx[fr.Fn.Name] = i
	}
	// Reference edges: residual resolved calls in the compiled bodies, plus
	// splices (calls that existed in the source and were absorbed).
	called := make([]bool, len(frs))
	anyCalls := false
	for _, fr := range frs {
		for _, b := range fr.Fn.Blocks {
			for _, op := range b.Ops {
				if op.Opcode != ir.Call || op.Callee == "" {
					continue
				}
				if j, ok := idx[op.Callee]; ok {
					called[j] = true
					anyCalls = true
				}
			}
		}
		for _, sp := range fr.Inline.Splices {
			if j, ok := idx[sp.Callee]; ok {
				called[j] = true
				anyCalls = true
			}
		}
	}
	if !anyCalls {
		var sum float64
		for _, fr := range frs {
			sum += fr.Time
		}
		return sum
	}
	// tt(i): fr.Time plus the residual-call charges, memoized; on-stack
	// cycle detection breaks recursion deterministically by charging the
	// cycle edge nothing (generated programs are acyclic; hand-written
	// recursive inputs still get a stable, finite estimate).
	const (
		unvisited = iota
		onstack
		doneState
	)
	state := make([]int, len(frs))
	memo := make([]float64, len(frs))
	var tt func(i int) float64
	tt = func(i int) float64 {
		switch state[i] {
		case doneState:
			return memo[i]
		case onstack:
			return 0
		}
		state[i] = onstack
		fr := frs[i]
		t := fr.Time
		for _, b := range fr.Fn.Blocks {
			w := fr.Prof.BlockWeight(b.ID)
			if w == 0 {
				continue
			}
			for _, op := range b.Ops {
				if op.Opcode != ir.Call || op.Callee == "" {
					continue
				}
				j, ok := idx[op.Callee]
				if !ok {
					continue
				}
				ew := frs[j].Prof.BlockWeight(frs[j].Fn.Entry)
				if ew <= 0 {
					continue
				}
				t += w * (tt(j) / ew)
			}
		}
		state[i] = doneState
		memo[i] = t
		return t
	}
	var sum float64
	roots := 0
	for i := range frs {
		if !called[i] {
			sum += tt(i)
			roots++
		}
	}
	// Degenerate fully-cyclic programs have no roots; fall back to summing
	// everything so the estimate never collapses to zero.
	if roots == 0 {
		for i := range frs {
			sum += tt(i)
		}
	}
	return sum
}

// BaselineConfig is the speedup denominator: basic-block scheduling on the
// single-issue machine.
func BaselineConfig() Config {
	return Config{Kind: BasicBlocks, Heuristic: core.DepHeight, Machine: machine.Scalar, Rename: true}
}

// Speedup returns baselineTime / t.
func Speedup(baselineTime, t float64) float64 {
	if t == 0 {
		return 0
	}
	return baselineTime / t
}
