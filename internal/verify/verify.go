// Package verify is the compiler's static-analysis gate: a suite of passes
// that independently re-derives the legality of everything the pipeline
// emitted — IR well-formedness, region-shape invariants, schedule legality
// and observable semantics — instead of trusting the transformations that
// produced it. Each violated invariant becomes a Diagnostic carrying a
// stable rule ID (IR0xx, RG0xx, SC0xx, SEM0xx, MC0xx) so CLIs, the daemon
// and telemetry can report machine-readable findings. DESIGN.md §9
// documents every rule with its paper justification.
//
// The verifier deliberately does not reuse the builders it checks: register
// and memory dependences are re-derived by walking every root-to-leaf path
// of each region, control windows are recomputed from the schedule itself,
// and off-path clobbers are found from final (recomputed) liveness. The DDG
// the scheduler consumed is additionally checked edge by edge, so a bug in
// either the graph builder or the list scheduler is caught by the other
// side's derivation.
package verify

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"treegion/internal/cfg"
	"treegion/internal/core"
	"treegion/internal/inline"
	"treegion/internal/ir"
	"treegion/internal/machine"
	"treegion/internal/region"
	"treegion/internal/sched"
)

// Severity grades a diagnostic.
type Severity uint8

const (
	// Info marks advisory findings that do not fail a compile.
	Info Severity = iota
	// Warning marks suspicious but not provably illegal results.
	Warning
	// Error marks a proven invariant violation; pipelines running with
	// verification fail the function.
	Error
)

// String names the severity as rendered by treegion-lint.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return "?"
	}
}

// Diagnostic is one verifier finding, locatable to a function, block and op.
type Diagnostic struct {
	// Rule is the stable machine-readable rule ID (e.g. "SC002").
	Rule     string
	Severity Severity
	// Fn is the function name.
	Fn string
	// Block is the block the finding anchors to, or ir.NoBlock.
	Block ir.BlockID
	// Op is the ID of the op the finding anchors to, or -1.
	Op      int
	Message string
}

// String renders "error SC002 fn/bb3/op12: message".
func (d Diagnostic) String() string {
	loc := d.Fn
	if d.Block != ir.NoBlock {
		loc += fmt.Sprintf("/bb%d", d.Block)
	}
	if d.Op >= 0 {
		loc += fmt.Sprintf("/op%d", d.Op)
	}
	return fmt.Sprintf("%s %s %s: %s", d.Severity, d.Rule, loc, d.Message)
}

// HasErrors reports whether any diagnostic is Error severity or above.
func HasErrors(ds []Diagnostic) bool {
	for _, d := range ds {
		if d.Severity >= Error {
			return true
		}
	}
	return false
}

// Rules returns the distinct rule IDs present, sorted.
func Rules(ds []Diagnostic) []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range ds {
		if !seen[d.Rule] {
			seen[d.Rule] = true
			out = append(out, d.Rule)
		}
	}
	sort.Strings(out)
	return out
}

// Failure is the error a verifying pipeline returns when a compile produced
// Error-severity diagnostics. It carries the full diagnostic list so CLIs
// and the daemon can render rule IDs instead of a bare string.
type Failure struct {
	Fn          string
	Diagnostics []Diagnostic
}

// Error summarizes the failure with the violated rule IDs.
func (f *Failure) Error() string {
	var rules []string
	for _, d := range f.Diagnostics {
		if d.Severity >= Error {
			rules = append(rules, d.Rule)
		}
	}
	sort.Strings(rules)
	rules = dedupSorted(rules)
	return fmt.Sprintf("verify: %s: %d diagnostics (rules %s)",
		f.Fn, len(f.Diagnostics), strings.Join(rules, ", "))
}

// Rules returns the distinct Error-severity rule IDs, sorted.
func (f *Failure) Rules() []string {
	var rules []string
	for _, d := range f.Diagnostics {
		if d.Severity >= Error {
			rules = append(rules, d.Rule)
		}
	}
	sort.Strings(rules)
	return dedupSorted(rules)
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Options configures Compiled.
type Options struct {
	// Machine is the model the schedules were produced for.
	Machine machine.Model
	// TD bounds tail duplication; checked against KindTreegionTD regions
	// (RG005). The zero value skips the bound checks.
	TD core.TDConfig
	// IfConvert records that hyperblock if-conversion ran: guarded
	// definitions relax the def-before-use rule and the oracle-driven
	// differential check is skipped (branch decisions moved into computed
	// predicates).
	IfConvert bool
	// Orig, when non-nil, is the pre-compilation function; it enables the
	// differential interpretation check (SEM001/SEM002).
	Orig *ir.Function
	// Seeds drives the differential interpreter; empty selects defaults.
	Seeds []uint64
	// MaxSteps bounds each differential run (0 selects a default).
	MaxSteps int
	// Prog, when non-nil, is the resolved program context: the differential
	// check executes resolved calls through the callee bodies (both sides),
	// and the call-convention rule (CL001) checks residual calls against the
	// callee signatures.
	Prog *ir.Program
	// Inline, when non-nil, carries the inliner's splice records and the
	// budgets it ran under; it enables the splice-integrity rules
	// (CL002/CL003) and the region-shape checks' treatment of spliced
	// blocks.
	Inline *inline.Stats
}

// Compiled runs every verification pass over one compiled function: fn is
// the post-compilation IR, regions/schedules are the pipeline's outputs
// (parallel slices). It returns all diagnostics, most severe first, then by
// rule ID. It runs on a fresh Scratch.
func Compiled(fn *ir.Function, regions []*region.Region, schedules []*sched.Schedule, opts Options) []Diagnostic {
	return CompiledScratch(fn, regions, schedules, opts, new(Scratch))
}

// CompiledScratch is Compiled on sc's reusable tables, the one
// implementation of the verifier: a caller that verifies many functions
// keeps one Scratch across them. The IR, liveness and region checks share
// one CFG of fn.
func CompiledScratch(fn *ir.Function, regions []*region.Region, schedules []*sched.Schedule, opts Options, sc *Scratch) []Diagnostic {
	var ds []Diagnostic
	if err := opts.Machine.Validate(); err != nil {
		ds = append(ds, Diagnostic{
			Rule: "MC001", Severity: Error, Fn: fn.Name, Block: ir.NoBlock, Op: -1,
			Message: err.Error(),
		})
	}
	irds, g := sc.checkFunction(fn, opts.IfConvert)
	ds = append(ds, irds...)
	if HasErrors(ds) {
		// A malformed CFG poisons every downstream analysis (liveness and
		// region walks would index out of range); stop at the IR layer.
		sortDiagnostics(ds)
		return ds
	}
	if g == nil {
		g = cfg.New(fn)
	}
	lv := cfg.ComputeLiveness(g)
	ds = append(ds, sc.checkRegions(fn, g, regions, opts.TD, opts.Inline)...)
	if len(schedules) == len(regions) {
		for i, s := range schedules {
			ds = append(ds, sc.checkSchedule(fn, regions[i], s, lv)...)
		}
	} else if len(schedules) != 0 {
		ds = append(ds, Diagnostic{
			Rule: "SC001", Severity: Error, Fn: fn.Name, Block: ir.NoBlock, Op: -1,
			Message: fmt.Sprintf("%d schedules for %d regions", len(schedules), len(regions)),
		})
	}
	if opts.Prog != nil || opts.Inline != nil {
		ds = append(ds, CheckCalls(fn, opts)...)
	}
	if opts.Orig != nil && !opts.IfConvert {
		ds = append(ds, sc.checkSemantics(opts.Prog, opts.Orig, fn, opts.Seeds, opts.MaxSteps)...)
	}
	sortDiagnostics(ds)
	return ds
}

// sortDiagnostics orders most severe first, then by rule, block, op and
// message, so the output is deterministic in the inputs.
func sortDiagnostics(ds []Diagnostic) {
	slices.SortStableFunc(ds, func(a, b Diagnostic) int {
		if a.Severity != b.Severity {
			return int(b.Severity) - int(a.Severity)
		}
		if a.Rule != b.Rule {
			return strings.Compare(a.Rule, b.Rule)
		}
		if a.Block != b.Block {
			return int(a.Block) - int(b.Block)
		}
		if a.Op != b.Op {
			return a.Op - b.Op
		}
		return strings.Compare(a.Message, b.Message)
	})
}
