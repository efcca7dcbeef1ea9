package verify

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"treegion/internal/ir"
	"treegion/internal/machine"
)

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "SC002", Severity: Error, Fn: "f", Block: 3, Op: 12, Message: "too early"}
	if got, want := d.String(), "error SC002 f/bb3/op12: too early"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	d = Diagnostic{Rule: "SEM001", Severity: Error, Fn: "f", Block: ir.NoBlock, Op: -1, Message: "stores diverge"}
	if got := d.String(); strings.Contains(got, "bb") || strings.Contains(got, "op") {
		t.Errorf("blockless diagnostic rendered a location: %q", got)
	}
}

func TestHasErrorsAndRules(t *testing.T) {
	ds := []Diagnostic{
		{Rule: "IR009", Severity: Info},
		{Rule: "SC003", Severity: Error},
		{Rule: "SC003", Severity: Error},
	}
	if !HasErrors(ds) {
		t.Error("HasErrors = false with an Error diagnostic present")
	}
	if HasErrors(ds[:1]) {
		t.Error("HasErrors = true for advisory-only diagnostics")
	}
	if got := Rules(ds); len(got) != 2 || got[0] != "IR009" || got[1] != "SC003" {
		t.Errorf("Rules = %v, want [IR009 SC003]", got)
	}
}

func TestFailureError(t *testing.T) {
	f := &Failure{Fn: "g", Diagnostics: []Diagnostic{
		{Rule: "SC005", Severity: Error},
		{Rule: "SC002", Severity: Error},
	}}
	msg := f.Error()
	if !strings.Contains(msg, "g") || !strings.Contains(msg, "SC002") || !strings.Contains(msg, "SC005") {
		t.Errorf("Error() = %q, want function name and both rule IDs", msg)
	}
}

// TestCompiledBadMachine: an unusable machine model is MC001 and poisons
// nothing else — verification stops there.
func TestCompiledBadMachine(t *testing.T) {
	fn := ir.NewFunction("m")
	b := fn.NewBlock()
	b.Ops = append(b.Ops, fn.NewOp(ir.Ret))
	ds := Compiled(fn, nil, nil, Options{Machine: machine.Model{Name: "broken", IssueWidth: 0}})
	if got := Rules(ds); len(got) != 1 || got[0] != "MC001" {
		t.Fatalf("rules = %v, want [MC001]", got)
	}
}

// TestDuplicateSuccessorsAndOpIDs: a block branching and falling through to
// the same successor is one IR006, and each reuse of an op ID one IR007.
func TestDuplicateSuccessorsAndOpIDs(t *testing.T) {
	fn := ir.NewFunction("dup")
	b0, b1 := fn.NewBlock(), fn.NewBlock()
	p := fn.NewReg(ir.ClassPred)
	r := fn.NewReg(ir.ClassGPR)
	fn.EmitCmpp(b0, p, ir.NoReg, ir.CondEQ, r, r)
	fn.EmitBrct(b0, ir.NoReg, p, b1.ID, 0.5)
	b0.FallThrough = b1.ID
	a := fn.EmitMovI(b1, r, 1)
	fn.EmitMovI(b1, r, 2).ID = a.ID
	fn.EmitRet(b1).ID = a.ID
	var got []string
	for _, d := range CheckFunction(fn, false) {
		got = append(got, d.String())
	}
	want := []string{
		"error IR006 dup/bb0: duplicate successor bb1",
		fmt.Sprintf("error IR007 dup/bb1/op%d: duplicate op ID %d", a.ID, a.ID),
		fmt.Sprintf("error IR007 dup/bb1/op%d: duplicate op ID %d", a.ID, a.ID),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("diagnostics:\n got %q\nwant %q", got, want)
	}
}
