// Package treegion is a reproduction of "Treegion Scheduling for Wide Issue
// Processors" (Havanki, Banerjia, Conte; HPCA 1998): a compiler backend that
// forms non-linear tree-shaped scheduling regions over a program's control
// flow graph and list schedules them onto wide VLIW machine models, with
// speculation, compile-time register renaming, tail duplication, and
// dominator parallelism.
//
// The public API exposes the full pipeline:
//
//	prog, _  := treegion.GenerateBenchmark("gcc")   // synthetic SPECint95-like program
//	profs, _ := treegion.ProfileProgram(prog)       // stochastic profiling
//	cfg      := treegion.DefaultConfig()            // treegions + global weight + 4U
//	res, _   := treegion.Compile(ctx, prog, profs, cfg, treegion.WithWorkers(8))
//	base, _  := treegion.Compile(ctx, prog, profs, treegion.BaselineConfig())
//	fmt.Println(treegion.Speedup(base.Time, res.Time))
//
// plus experiment drivers that regenerate every table and figure of the
// paper (Table1 .. Table4, Figure6, Figure8, Figure13).
package treegion

import (
	"context"
	"fmt"

	"treegion/internal/compcache"
	"treegion/internal/core"
	"treegion/internal/eval"
	"treegion/internal/hyper"
	"treegion/internal/inline"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/irtext"
	"treegion/internal/machine"
	"treegion/internal/pipeline"
	"treegion/internal/profile"
	"treegion/internal/progen"
	"treegion/internal/region"
	"treegion/internal/sched"
	"treegion/internal/store"
	"treegion/internal/telemetry"
	"treegion/internal/verify"
	"treegion/internal/viz"
)

// Re-exported pipeline types. The aliases expose the full internal
// functionality as the library's public surface.
type (
	// Config selects region former, heuristic and machine model.
	Config = eval.Config
	// RegionKind selects the region former.
	RegionKind = eval.RegionKind
	// Heuristic is one of the paper's four scheduling priorities.
	Heuristic = core.Heuristic
	// Machine is a VLIW machine model.
	Machine = machine.Model
	// TDConfig bounds treegion tail duplication.
	TDConfig = core.TDConfig
	// HyperConfig bounds hyperblock-style if-conversion.
	HyperConfig = hyper.Config
	// Program is a generated synthetic benchmark.
	Program = progen.Program
	// Profiles holds per-function profile data for a program.
	Profiles = eval.Profiles
	// ProgramResult aggregates one benchmark compilation.
	ProgramResult = eval.ProgramResult
	// FunctionResult is one compiled function.
	FunctionResult = eval.FunctionResult
	// Function is an IR function (for users building their own inputs).
	Function = ir.Function
	// IRProgram is a multi-function IR unit with a resolved call graph —
	// the input to interprocedural compilation (Program remains the
	// generated-benchmark container).
	IRProgram = ir.Program
	// InlineConfig bounds demand-driven inline-on-absorb (WithInline).
	InlineConfig = inline.Config
	// InlineStats reports the splices performed and calls declined.
	InlineStats = inline.Stats
	// ProfileData is block/edge execution counts for one function.
	ProfileData = profile.Data
	// CompileMetrics holds the pipeline's activity counters.
	CompileMetrics = pipeline.Metrics
	// Telemetry is the metrics registry: counters, gauges and phase-latency
	// histograms rendered in the Prometheus text format (NewTelemetry).
	Telemetry = telemetry.Registry
	// CompileTrace is the per-function (or per-program, when merged)
	// compile-phase trace attached to every FunctionResult.
	CompileTrace = telemetry.CompileTrace
	// TraceSnapshot is a point-in-time copy of a CompileTrace.
	TraceSnapshot = telemetry.TraceSnapshot
	// Phase identifies one compile phase in a CompileTrace.
	Phase = telemetry.Phase
	// SchedStats summarizes schedules: speculation, branch packing, copies.
	SchedStats = sched.Stats
	// RegionStats aggregates region shapes (counts, sizes, histograms).
	RegionStats = region.Stats
	// CompileCache is a sharded content-addressed cache of function
	// compilation results with LRU eviction under a byte budget.
	CompileCache = compcache.Cache
	// CacheKey addresses one compiled function in a CompileCache and the
	// ArtifactStore under it.
	CacheKey = compcache.Key
	// CacheStats is a snapshot of a CompileCache's counters.
	CacheStats = compcache.Stats
	// ArtifactStore is the disk-backed content-addressed artifact store:
	// the persistent L2 tier behind a CompileCache (see SetL2).
	ArtifactStore = store.Store
	// StoreStats is a snapshot of an ArtifactStore's counters.
	StoreStats = store.Stats
	// Diagnostic is one static-verifier finding: a stable rule ID, a
	// severity, and a function/block/op location.
	Diagnostic = verify.Diagnostic
	// Severity grades a Diagnostic.
	Severity = verify.Severity
	// VerifyFailure is the error a verifying compile returns when the
	// verifier proves a schedule illegal; it carries the full diagnostic
	// list and the distinct violated rule IDs.
	VerifyFailure = verify.Failure
)

// Diagnostic severities.
const (
	SeverityInfo    = verify.Info
	SeverityWarning = verify.Warning
	SeverityError   = verify.Error
)

// Region formers.
const (
	BasicBlocks = eval.BasicBlocks
	SLR         = eval.SLR
	Treegion    = eval.Treegion
	Superblock  = eval.Superblock
	TreegionTD  = eval.TreegionTD
)

// Scheduling heuristics (Section 3 of the paper).
const (
	DepHeight     = core.DepHeight
	ExitCount     = core.ExitCount
	GlobalWeight  = core.GlobalWeight
	WeightedCount = core.WeightedCount
)

// Machine models.
var (
	Scalar   = machine.Scalar
	FourU    = machine.FourU
	EightU   = machine.EightU
	SixteenU = machine.SixteenU
)

// Benchmarks lists the eight synthetic SPECint95-flavoured benchmark names.
func Benchmarks() []string {
	var out []string
	for _, p := range progen.Presets() {
		out = append(out, p.Name)
	}
	return out
}

// GenerateBenchmark deterministically builds the named synthetic benchmark.
func GenerateBenchmark(name string) (*Program, error) {
	p, ok := progen.PresetByName(name)
	if !ok {
		return nil, fmt.Errorf("treegion: unknown benchmark %q (want one of %v)", name, Benchmarks())
	}
	return progen.Generate(p)
}

// GenerateSuite builds all eight benchmarks.
func GenerateSuite() ([]*Program, error) { return progen.GenerateAll() }

// ProfileProgram profiles every function of prog with the stochastic
// interpreter (deterministic in the preset seed).
func ProfileProgram(prog *Program) (Profiles, error) { return eval.ProfileProgram(prog) }

// ProfileFunction profiles a single user-built function.
func ProfileFunction(fn *Function, seed uint64, trips int) (*ProfileData, error) {
	return interp.Profile(fn, seed, trips, interp.Config{MaxSteps: interp.ProfileMaxSteps})
}

// CompileOption customizes Compile and CompileOne. The zero set of options
// compiles with GOMAXPROCS workers, no cache, no metrics, no telemetry.
type CompileOption func(*pipeline.Options)

// options applies opts to the zero pipeline options.
func options(opts []CompileOption) pipeline.Options {
	var o pipeline.Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithWorkers bounds concurrent function compiles (<= 0 means GOMAXPROCS).
func WithWorkers(n int) CompileOption {
	return func(o *pipeline.Options) { o.Workers = n }
}

// WithCache memoizes compiles in a shared content-addressed result cache.
func WithCache(c *CompileCache) CompileOption {
	return func(o *pipeline.Options) { o.Cache = c }
}

// WithMetrics publishes pipeline activity counters to m.
func WithMetrics(m *CompileMetrics) CompileOption {
	return func(o *pipeline.Options) { o.Metrics = m }
}

// WithTelemetry publishes per-compile phase-latency histograms, scheduling
// counters and region-shape histograms to the registry.
func WithTelemetry(t *Telemetry) CompileOption {
	return func(o *pipeline.Options) { o.Telemetry = t }
}

// WithVerify runs the static verifier over every cold compile: IR
// well-formedness, region invariants, schedule legality and differential
// semantics are re-derived and proven rather than trusted. A function that
// fails verification returns a *VerifyFailure; advisory diagnostics are
// attached to its FunctionResult. Verified results cache under a key of
// their own, diagnostics included, so a cached result is never verified
// twice.
func WithVerify() CompileOption {
	return func(o *pipeline.Options) { o.Verify = true }
}

// WithInline enables demand-driven inline-on-absorb (Way & Pollock style)
// during treegion formation: the batch's functions are resolved into a
// program, and calls whose callee fits cfg's budgets are spliced into the
// growing treegion, letting regions extend across call sites. Non-inlined
// calls remain scheduling barriers exactly as without the option. Use
// DefaultInlineConfig for the experiments' budgets.
func WithInline(cfg InlineConfig) CompileOption {
	return func(o *pipeline.Options) { o.Inline = cfg }
}

// DefaultInlineConfig returns the enabled inlining budgets used by the
// experiments: depth 3, callee bodies up to 48 ops / 12 blocks, 3× code
// expansion.
func DefaultInlineConfig() InlineConfig { return inline.DefaultConfig() }

// VerifyFunction runs the static verifier over an already compiled
// function. orig, when non-nil, is the pre-compilation function and enables
// the differential interpretation check. It verifies on an arena of its
// own.
func VerifyFunction(orig *Function, fr *FunctionResult, c Config) []Diagnostic {
	return eval.VerifyResult(orig, fr, c, eval.NewArena())
}

// NewTelemetry builds an empty metrics registry; render it with its
// WritePrometheus method (the daemon serves it on /v1/metrics).
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// Compile compiles prog under c on fresh clones and aggregates times, code
// expansion, region statistics, scheduling statistics and the compile
// trace. Functions compile concurrently on the worker pipeline with results
// reassembled in function order, so the output is byte-identical to a
// serial compile regardless of worker count.
func Compile(ctx context.Context, prog *Program, profs Profiles, c Config, opts ...CompileOption) (*ProgramResult, error) {
	return pipeline.CompileProgram(ctx, prog, profs, c, options(opts))
}

// CompileOne compiles a single function through the pipeline's cache and
// panic isolation. Unlike CompileFunction it does not mutate fn or prof (it
// compiles clones); it reports whether the result was served from the cache.
func CompileOne(ctx context.Context, fn *Function, prof *ProfileData, c Config, opts ...CompileOption) (*FunctionResult, bool, error) {
	return pipeline.CompileFunction(ctx, fn, prof, c, options(opts))
}

// CompileKeyed is CompileOne addressed by key instead of by its inputs'
// content: a hit on key returns without calling load, and a miss runs load
// once, inside the cache's compute. A load error is returned unchanged and
// never cached. treegiond keys its requests so (DESIGN.md §27).
func CompileKeyed(ctx context.Context, key CacheKey, load func() (*Function, *ProfileData, error), c Config, opts ...CompileOption) (*FunctionResult, bool, error) {
	return pipeline.CompileKeyed(ctx, key, load, c, options(opts))
}

// CompileEach compiles fns[i] against profs[i] (on clones — the originals
// are never mutated) on the pipeline's workers, which claim indices from
// one shared counter, and calls emit exactly once per index, in index
// order, on the caller's goroutine, as results become available. A
// per-function failure is delivered to emit as err and the run continues;
// an error returned by emit cancels the remaining work and is returned.
// This is the streaming core behind the daemon's /v1/compile-batch.
func CompileEach(ctx context.Context, fns []*Function, profs []*ProfileData, c Config,
	emit func(i int, fr *FunctionResult, cached bool, err error) error, opts ...CompileOption) error {
	return pipeline.CompileEach(ctx, fns, profs, c, options(opts), emit)
}

// NewCompileCache builds a content-addressed compilation result cache with
// the given byte budget (<= 0 selects a default of 512 MiB).
func NewCompileCache(budgetBytes int64) *CompileCache {
	return compcache.New(budgetBytes)
}

// OpenArtifactStore opens (creating if needed) the disk-backed artifact
// store rooted at dir, holding it to budgetBytes of entries (<= 0 means
// the 4 GiB default). Layer it under a memory cache with
// cache.SetL2(store) so pipeline lookups go memory → disk → compile, and
// warm store directories survive process restarts.
func OpenArtifactStore(dir string, budgetBytes int64) (*ArtifactStore, error) {
	return store.Open(dir, budgetBytes)
}

// CompileFunction compiles one function (mutating it; pass a clone to keep
// the original) and returns its regions, schedules and estimated time.
func CompileFunction(fn *Function, prof *ProfileData, c Config) (*FunctionResult, error) {
	return eval.CompileFunction(fn, prof, c)
}

// DefaultConfig is the paper's headline configuration: treegion scheduling,
// global weight heuristic, 4-issue machine, renaming on.
func DefaultConfig() Config { return eval.DefaultConfig() }

// BaselineConfig is the speedup denominator: basic-block scheduling on the
// single-issue machine.
func BaselineConfig() Config { return eval.BaselineConfig() }

// Speedup returns baselineTime / t.
func Speedup(baselineTime, t float64) float64 { return eval.Speedup(baselineTime, t) }

// ParseFunction reads a function in the textual IR format (see
// internal/irtext's package documentation for the grammar).
func ParseFunction(src string) (*Function, error) { return irtext.Parse(src) }

// PrintFunction serializes a function to the textual IR format.
func PrintFunction(fn *Function) string { return irtext.Print(fn) }

// ParseIRProgram reads a multi-function .tir source and resolves its call
// graph (callees must be defined, call arities must match signatures).
func ParseIRProgram(src string) (*IRProgram, error) { return irtext.ParseProgram(src) }

// ResolveProgram resolves already-built functions into a multi-function
// program with a checked call graph — the same validation ParseIRProgram
// applies (unique names, defined callees, matching call arities).
func ResolveProgram(fns []*Function) (*IRProgram, error) { return ir.NewProgram(fns) }

// PrintIRProgram serializes a resolved program to the textual IR format.
func PrintIRProgram(p *IRProgram) string { return irtext.PrintProgram(p) }

// DOT renders a function's CFG (with optional regions and profile) as
// Graphviz DOT for visual inspection of what the region formers built.
func DOT(fn *Function, regions []*region.Region, prof *ProfileData) string {
	return viz.DOT(fn, regions, prof)
}

// ParseHeuristic resolves a heuristic name (depheight, exitcount,
// globalweight, weightedcount).
func ParseHeuristic(name string) (Heuristic, error) { return core.ParseHeuristic(name) }

// ParseRegionKind resolves a region former name (bb, slr, tree, sb, tree-td).
func ParseRegionKind(name string) (RegionKind, error) { return eval.ParseRegionKind(name) }

// MachineByName resolves a machine model name (1U, 4U, 8U, 16U).
func MachineByName(name string) (Machine, bool) { return machine.ByName(name) }
