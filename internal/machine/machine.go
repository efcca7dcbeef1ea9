// Package machine describes the paper's statically scheduled VLIW machine
// models: universal, fully pipelined functional units, so the only resource
// constraint is the issue width. Latencies are unit except load (2 cycles),
// floating-point multiply (3) and floating-point divide (9).
package machine

import (
	"fmt"

	"treegion/internal/ir"
)

// Model is a VLIW machine model.
type Model struct {
	Name string
	// IssueWidth is the number of Ops per MultiOp. Units are universal and
	// fully pipelined, so width is the only resource bound.
	IssueWidth int
}

// The paper's machine models plus the single-issue baseline used as the
// speedup denominator, and a wider model for headroom ablations.
var (
	Scalar   = Model{Name: "1U", IssueWidth: 1}
	FourU    = Model{Name: "4U", IssueWidth: 4}
	EightU   = Model{Name: "8U", IssueWidth: 8}
	SixteenU = Model{Name: "16U", IssueWidth: 16}
)

// Validate checks that the model can execute code at all: a MultiOp must
// hold at least one Op. The verifier reports a violation as rule MC001.
func (m Model) Validate() error {
	if m.IssueWidth < 1 {
		return fmt.Errorf("machine: model %q has issue width %d (want >= 1)", m.Name, m.IssueWidth)
	}
	return nil
}

// ByName looks a model up by its paper name ("1U", "4U", "8U", "16U").
func ByName(name string) (Model, bool) {
	for _, m := range []Model{Scalar, FourU, EightU, SixteenU} {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}

// CallLatency is the issue-to-result latency of a non-inlined CALL: the
// branch-and-link plus return overhead a call pays even when the callee's
// own cycles are accounted separately (see eval's interprocedural time
// model). Inlining removes this cost along with the scheduling barrier.
const CallLatency = 4

// Latency returns the issue-to-result latency of an opcode on all models.
func Latency(o ir.Opcode) int {
	switch o {
	case ir.Ld:
		return 2
	case ir.FMul:
		return 3
	case ir.FDiv:
		return 9
	case ir.Call:
		return CallLatency
	default:
		return 1
	}
}
