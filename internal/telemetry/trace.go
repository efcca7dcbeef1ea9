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
// of atomic counters — no maps, no locks, no allocation on the hot path —
// and a nil trace is a valid "tracing off" sentinel (every method no-ops),
// so instrumented code never branches on a tracing flag.
package telemetry

import (
	"fmt"
	"strings"
	"sync/atomic"
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

// phaseStat accumulates one phase's activity. All fields are atomics so a
// trace attached to a cached (shared) FunctionResult stays safe to read and
// merge concurrently.
type phaseStat struct {
	nanos atomic.Int64
	calls atomic.Int64
	ops   atomic.Int64
}

// CompileTrace records per-phase wall time and op counts for one function
// compile, or — merged — for a whole program. A nil trace is valid: every
// method no-ops, so instrumentation sites need no tracing flag.
type CompileTrace struct {
	// Function is the traced function (or program) name.
	Function string
	phase    [NumPhases]phaseStat
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
	st := &t.phase[p]
	st.nanos.Add(int64(d))
	st.calls.Add(1)
	st.ops.Add(int64(ops))
}

// PhaseNanos returns the accumulated wall time of phase p in nanoseconds.
func (t *CompileTrace) PhaseNanos(p Phase) int64 {
	if t == nil || p >= NumPhases {
		return 0
	}
	return t.phase[p].nanos.Load()
}

// Merge adds o's counts into t. Counts are integers, so merging is
// order-independent: a program trace assembled from per-function traces is
// identical regardless of worker count or completion order.
func (t *CompileTrace) Merge(o *CompileTrace) {
	if t == nil || o == nil {
		return
	}
	for p := Phase(0); p < NumPhases; p++ {
		src, dst := &o.phase[p], &t.phase[p]
		dst.nanos.Add(src.nanos.Load())
		dst.calls.Add(src.calls.Load())
		dst.ops.Add(src.ops.Load())
	}
}

// PhaseSnapshot is a point-in-time copy of one phase's counters.
type PhaseSnapshot struct {
	// Nanos is accumulated wall time in nanoseconds.
	Nanos int64
	// Calls counts Observe invocations (e.g. regions scheduled).
	Calls int64
	// Ops counts the ops the phase covered across all calls.
	Ops int64
}

// Duration returns the accumulated wall time.
func (s PhaseSnapshot) Duration() time.Duration { return time.Duration(s.Nanos) }

func (s PhaseSnapshot) add(o PhaseSnapshot) PhaseSnapshot {
	return PhaseSnapshot{Nanos: s.Nanos + o.Nanos, Calls: s.Calls + o.Calls, Ops: s.Ops + o.Ops}
}

// TraceSnapshot is a point-in-time copy of a whole trace, safe to compare
// and serialize. The Calls and Ops columns are deterministic in the compile
// inputs; Nanos is wall time and varies run to run.
type TraceSnapshot struct {
	Function string
	Phase    [NumPhases]PhaseSnapshot
}

// Snapshot copies the trace's counters. A nil trace snapshots to zeros.
func (t *CompileTrace) Snapshot() TraceSnapshot {
	var s TraceSnapshot
	if t == nil {
		return s
	}
	s.Function = t.Function
	for p := Phase(0); p < NumPhases; p++ {
		st := &t.phase[p]
		s.Phase[p] = PhaseSnapshot{Nanos: st.nanos.Load(), Calls: st.calls.Load(), Ops: st.ops.Load()}
	}
	return s
}

// Restore materializes a live trace carrying the snapshot's counts. The
// artifact store persists traces as snapshots; a result served from disk
// gets its original compile trace back, so trace tables and phase metrics
// of warm results match their cold compile.
func (s TraceSnapshot) Restore() *CompileTrace {
	t := NewTrace(s.Function)
	for p := Phase(0); p < NumPhases; p++ {
		st := &t.phase[p]
		st.nanos.Store(s.Phase[p].Nanos)
		st.calls.Store(s.Phase[p].Calls)
		st.ops.Store(s.Phase[p].Ops)
	}
	return t
}

// Total sums every phase.
func (s TraceSnapshot) Total() PhaseSnapshot {
	var tot PhaseSnapshot
	for p := Phase(0); p < NumPhases; p++ {
		tot = tot.add(s.Phase[p])
	}
	return tot
}

// Counts projects the snapshot onto its deterministic columns (calls and
// ops per phase), the part golden tests may compare across worker counts.
func (s TraceSnapshot) Counts() [NumPhases][2]int64 {
	var out [NumPhases][2]int64
	for p := Phase(0); p < NumPhases; p++ {
		out[p] = [2]int64{s.Phase[p].Calls, s.Phase[p].Ops}
	}
	return out
}

// Table renders the snapshot as an aligned per-phase table (idle phases
// omitted) with a totals row — the `treegionc -stats` output.
func (s TraceSnapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %12s\n", "phase", "calls", "ops", "time")
	for p := Phase(0); p < NumPhases; p++ {
		ps := s.Phase[p]
		if ps.Calls == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-14s %10d %10d %12s\n", p, ps.Calls, ps.Ops, fmtDuration(ps.Duration()))
	}
	tot := s.Total()
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
