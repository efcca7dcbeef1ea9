package cfg

import (
	"testing"

	"treegion/internal/ir"
)

// nestedLoops builds: pre -> h1; h1 -> {b1, after1}; b1 -> h2;
// h2 -> {b2, h1back}; b2 -> h2 (inner back edge); after1 ret.
func nestedLoops(t *testing.T) *ir.Function {
	t.Helper()
	f := ir.NewFunction("nested")
	pre, h1, b1, h2, b2, after := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	p := f.NewReg(ir.ClassPred)
	pre.FallThrough = h1.ID
	f.EmitCmpp(h1, p, ir.NoReg, ir.CondLT, ir.GPR(0), ir.GPR(1))
	f.EmitBrct(h1, ir.NoReg, p, b1.ID, 0.9)
	h1.FallThrough = after.ID
	b1.FallThrough = h2.ID
	q := f.NewReg(ir.ClassPred)
	f.EmitCmpp(h2, q, ir.NoReg, ir.CondLT, ir.GPR(0), ir.GPR(1))
	f.EmitBrct(h2, ir.NoReg, q, b2.ID, 0.8)
	h2.FallThrough = h1.ID // outer back edge
	b2.FallThrough = h2.ID // inner back edge
	f.EmitRet(after)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBackEdgesNested(t *testing.T) {
	f := nestedLoops(t)
	g := New(f)
	be := g.BackEdges()
	if len(be) != 2 {
		t.Fatalf("back edges = %v, want 2 (inner and outer)", be)
	}
	heads := map[ir.BlockID]bool{}
	for _, e := range be {
		heads[e[1]] = true
	}
	if !heads[1] || !heads[3] {
		t.Fatalf("back edge heads = %v, want the two loop headers", heads)
	}
}

func TestLivenessGuardIsUse(t *testing.T) {
	// A guarded op's predicate must be live into the block.
	f := ir.NewFunction("g")
	b0, b1 := f.NewBlock(), f.NewBlock()
	p := f.NewReg(ir.ClassPred)
	r := f.NewReg(ir.ClassGPR)
	f.EmitCmpp(b0, p, ir.NoReg, ir.CondGT, r, r)
	b0.FallThrough = b1.ID
	mov := f.EmitMovI(b1, r, 5)
	mov.Guard = p
	f.EmitRet(b1)
	g := New(f)
	lv := ComputeLiveness(g)
	if !lv.LiveIn[b1.ID].Has(p) {
		t.Fatal("guard predicate not live-in")
	}
	for _, s := range g.Succs[b0.ID] {
		if !lv.LiveIn[s].Has(p) {
			t.Fatalf("guard predicate not live-out of its def block (not live-in at bb%d)", s)
		}
	}
	if lv.LiveIn[b0.ID].Has(p) {
		t.Fatal("guard predicate is defined in bb0; must not be live-in there")
	}
}

func TestLivenessGuardedDefDoesNotKill(t *testing.T) {
	// bb1 guardedly redefines r, then bb2 reads r: the original value may
	// flow through, so r must be live-in at bb1.
	f := ir.NewFunction("gk")
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	p := f.NewReg(ir.ClassPred)
	r := f.NewReg(ir.ClassGPR)
	f.EmitMovI(b0, r, 1)
	f.EmitCmpp(b0, p, ir.NoReg, ir.CondGT, r, r)
	b0.FallThrough = b1.ID
	mov := f.EmitMovI(b1, r, 5)
	mov.Guard = p
	b1.FallThrough = b2.ID
	f.EmitSt(b2, r, 0, r)
	f.EmitRet(b2)
	lv := ComputeLiveness(New(f))
	if !lv.LiveIn[b1.ID].Has(r) {
		t.Fatal("value under a guarded redefinition must stay live-in")
	}

	// Sanity: with the guard removed, the def kills and r is dead at bb1.
	mov.Guard = ir.NoReg
	lv = ComputeLiveness(New(f))
	if lv.LiveIn[b1.ID].Has(r) {
		t.Fatal("unguarded def must kill")
	}
}
