// Package telemetry is the compiler's observability layer. It has two
// halves:
//
//   - CompileTrace: a per-function compile trace recording wall time, call
//     counts and op counts for every phase of the compile path (treeform,
//     tail duplication, liveness, DDG build, priority sort, list
//     scheduling, timing measurement, register allocation, VLIW
//     simulation). Traces merge deterministically in their counts, so a
//     program-level trace is identical across worker counts.
//
//   - Registry: a process-wide metrics registry of counters, gauges and
//     histograms rendered in the Prometheus text exposition format, which
//     the daemon serves on /v1/metrics.
//
// The layer is allocation-conscious: a CompileTrace is a fixed-size array
// of plain counters — no maps, no locks, no allocation on the hot path —
// and a nil trace is a valid "tracing off" sentinel (every method no-ops),
// so instrumented code never branches on a tracing flag.
package telemetry

import (
	"fmt"
	"strings"
	"time"
)

// Phase identifies one stage of the per-function compile path.
type Phase uint8

// Compile phases, in pipeline order.
const (
	// PhaseIfConvert is hyperblock-style if-conversion (when enabled).
	PhaseIfConvert Phase = iota
	// PhaseTreeform is region formation (any former), excluding the tail
	// duplication it triggers.
	PhaseTreeform
	// PhaseTailDup is tail duplication performed during tree-td formation.
	PhaseTailDup
	// PhaseLiveness is the post-formation liveness computation.
	PhaseLiveness
	// PhaseDDG is data-dependence-graph construction (including renaming).
	PhaseDDG
	// PhasePrioritySort is the static priority sort of a region's nodes.
	PhasePrioritySort
	// PhaseListSched is the cycle-driven list-scheduling loop.
	PhaseListSched
	// PhaseMeasure is the paper's path-height timing estimate per region.
	PhaseMeasure
	// PhaseVerify is the static schedule/IR verifier (when enabled).
	PhaseVerify
	// PhaseRegalloc is linear-scan register allocation (experiments).
	PhaseRegalloc
	// PhaseVLSim is cycle-accurate VLIW simulation (validation runs).
	PhaseVLSim

	// NumPhases bounds the Phase enum.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"ifconvert", "treeform", "tail-dup", "liveness", "ddg-build",
	"priority-sort", "list-sched", "measure", "verify", "regalloc", "vlsim",
}

// String names the phase as printed in trace tables and metric labels.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase%d", int(p))
}

// PhaseStat is one phase's activity.
type PhaseStat struct {
	// Nanos is accumulated wall time in nanoseconds.
	Nanos int64
	// Calls counts Observe invocations (e.g. regions scheduled).
	Calls int64
	// Ops counts the ops the phase covered across all calls.
	Ops int64
}

// Duration returns the accumulated wall time.
func (s PhaseStat) Duration() time.Duration { return time.Duration(s.Nanos) }

func (s PhaseStat) add(o PhaseStat) PhaseStat {
	return PhaseStat{Nanos: s.Nanos + o.Nanos, Calls: s.Calls + o.Calls, Ops: s.Ops + o.Ops}
}

// CompileTrace records per-phase wall time and op counts for one function
// compile, or — merged — for a whole program. The Calls and Ops columns
// are deterministic in the compile inputs; Nanos is wall time and varies
// run to run. A nil trace is valid: every method no-ops or reads zeros, so
// instrumentation sites need no tracing flag.
//
// The counters are plain integers, so a trace has one writer: whoever owns
// the result it rides on. The compile writes its own trace (eval, with
// treeform-td's tail duplication and sched inside it), the pipeline's
// verifier adds its phase before the result is cached, and vlsim.Run adds
// its phase to a result its caller compiled. A result once published — to
// a cache, a store or another goroutine — is only read.
type CompileTrace struct {
	// Function is the traced function (or program) name.
	Function string
	// Phase holds each phase's counters, indexed by Phase.
	Phase [NumPhases]PhaseStat
}

// NewTrace builds an empty trace for the named function or program.
func NewTrace(function string) *CompileTrace {
	return &CompileTrace{Function: function}
}

// Observe records one execution of phase p taking d and covering ops ops.
func (t *CompileTrace) Observe(p Phase, d time.Duration, ops int) {
	if t == nil || p >= NumPhases {
		return
	}
	st := &t.Phase[p]
	st.Nanos += int64(d)
	st.Calls++
	st.Ops += int64(ops)
}

// Merge adds o's counts into t. Counts are integers, so merging is
// order-independent: a program trace assembled from per-function traces is
// identical regardless of worker count or completion order.
func (t *CompileTrace) Merge(o *CompileTrace) {
	if t == nil || o == nil {
		return
	}
	for p := range t.Phase {
		t.Phase[p] = t.Phase[p].add(o.Phase[p])
	}
}

// Total sums every phase.
func (t *CompileTrace) Total() PhaseStat {
	var tot PhaseStat
	if t == nil {
		return tot
	}
	for _, ps := range t.Phase {
		tot = tot.add(ps)
	}
	return tot
}

// Counts projects the trace onto its deterministic columns (calls and ops
// per phase), the part golden tests may compare across worker counts.
func (t *CompileTrace) Counts() [NumPhases][2]int64 {
	var out [NumPhases][2]int64
	if t == nil {
		return out
	}
	for p, ps := range t.Phase {
		out[p] = [2]int64{ps.Calls, ps.Ops}
	}
	return out
}

// Table renders the trace as an aligned per-phase table (idle phases
// omitted) with a totals row — the `treegionc -stats` output.
func (t *CompileTrace) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %12s\n", "phase", "calls", "ops", "time")
	if t != nil {
		for p, ps := range t.Phase {
			if ps.Calls == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-14s %10d %10d %12s\n", Phase(p), ps.Calls, ps.Ops, fmtDuration(ps.Duration()))
		}
	}
	tot := t.Total()
	fmt.Fprintf(&b, "%-14s %10d %10d %12s\n", "total", tot.Calls, tot.Ops, fmtDuration(tot.Duration()))
	return b.String()
}

// fmtDuration rounds to a readable precision without losing small phases.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}
