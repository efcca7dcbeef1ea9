package cfg

import (
	"testing"

	"treegion/internal/ir"
)

// diamond builds:
//
//	bb0 -> bb1, bb2; bb1 -> bb3; bb2 -> bb3; bb3 ret
func diamond(t *testing.T) *ir.Function {
	t.Helper()
	f := ir.NewFunction("diamond")
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	p := f.NewReg(ir.ClassPred)
	r1, r2 := f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR)
	f.EmitCmpp(b0, p, ir.NoReg, ir.CondGT, r1, r2)
	f.EmitBrct(b0, ir.NoReg, p, b1.ID, 0.5)
	b0.FallThrough = b2.ID
	f.EmitALU(b1, ir.Add, r1, r1, r2)
	f.EmitBru(b1, ir.NoReg, b3.ID)
	f.EmitALU(b2, ir.Sub, r1, r1, r2)
	b2.FallThrough = b3.ID
	f.EmitSt(b3, r2, 0, r1)
	f.EmitRet(b3)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	return f
}

// loop builds: bb0 -> bb1; bb1 -> bb1 (backedge), bb2; bb2 ret
func loop(t *testing.T) *ir.Function {
	t.Helper()
	f := ir.NewFunction("loop")
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	p := f.NewReg(ir.ClassPred)
	r := f.NewReg(ir.ClassGPR)
	b0.FallThrough = b1.ID
	f.EmitALU(b1, ir.Add, r, r, r)
	f.EmitCmpp(b1, p, ir.NoReg, ir.CondLT, r, r)
	f.EmitBrct(b1, ir.NoReg, p, b1.ID, 0.9)
	b1.FallThrough = b2.ID
	f.EmitRet(b2)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGraphPredsSuccs(t *testing.T) {
	f := diamond(t)
	g := New(f)
	if len(g.Succs[0]) != 2 {
		t.Fatalf("bb0 succs = %v", g.Succs[0])
	}
	if len(g.Preds[3]) != 2 {
		t.Fatalf("bb3 preds = %v", g.Preds[3])
	}
	if !g.IsMergePoint(3) {
		t.Error("bb3 should be a merge point")
	}
	if g.IsMergePoint(1) || g.IsMergePoint(0) {
		t.Error("bb0/bb1 should not be merge points")
	}
	if len(g.Preds[3]) != 2 {
		t.Errorf("len(Preds[bb3]) = %d", len(g.Preds[3]))
	}
}

func TestRPOProperties(t *testing.T) {
	f := diamond(t)
	g := New(f)
	if len(g.RPO) != 4 {
		t.Fatalf("RPO covers %d blocks, want 4", len(g.RPO))
	}
	if g.RPO[0] != f.Entry {
		t.Fatal("RPO must start at entry")
	}
	// In an acyclic graph every edge must go forward in RPO.
	for _, b := range f.Blocks {
		for _, s := range g.Succs[b.ID] {
			if g.RPONum[s] <= g.RPONum[b.ID] {
				t.Errorf("edge bb%d->bb%d not forward in RPO", b.ID, s)
			}
		}
	}
	if g.RPONum[3] != 3 {
		t.Errorf("merge block should be last in RPO, got pos %d", g.RPONum[3])
	}
}

func TestUnreachableBlock(t *testing.T) {
	f := diamond(t)
	orphan := f.NewBlock()
	f.EmitRet(orphan)
	g := New(f)
	if g.Reachable(orphan.ID) {
		t.Error("orphan reported reachable")
	}
	if g.RPONum[orphan.ID] != -1 {
		t.Error("orphan has RPO number")
	}
}

func TestBackEdges(t *testing.T) {
	f := loop(t)
	g := New(f)
	be := g.BackEdges()
	if len(be) != 1 {
		t.Fatalf("back edges = %v, want exactly one", be)
	}
	if be[0][0] != 1 || be[0][1] != 1 {
		t.Fatalf("back edge = %v, want bb1->bb1", be[0])
	}
	// The diamond has none.
	if be := New(diamond(t)).BackEdges(); len(be) != 0 {
		t.Fatalf("diamond back edges = %v, want none", be)
	}
}

func TestLoopHeaderIsMergePoint(t *testing.T) {
	f := loop(t)
	g := New(f)
	if !g.IsMergePoint(1) {
		t.Error("loop header must be a merge point (entry + latch)")
	}
}

func TestLivenessDiamond(t *testing.T) {
	f := diamond(t)
	g := New(f)
	lv := ComputeLiveness(g)
	r1, r2 := ir.GPR(0), ir.GPR(1)
	// r1, r2 feed the compare in bb0 and are used along both arms.
	if !lv.LiveIn[0].Has(r1) || !lv.LiveIn[0].Has(r2) {
		t.Error("r1/r2 must be live-in at entry")
	}
	// bb3 stores r1 to [r2]: both live-in at bb3 and live-out of bb1/bb2.
	if !lv.LiveIn[3].Has(r1) || !lv.LiveIn[3].Has(r2) {
		t.Error("r1/r2 must be live-in at merge")
	}
	// r1 is live-out of both arms: live-in at each arm's successors.
	for _, arm := range []ir.BlockID{1, 2} {
		for _, s := range g.Succs[arm] {
			if !lv.LiveIn[s].Has(r1) {
				t.Errorf("r1 must be live-out of bb%d (live-in at bb%d)", arm, s)
			}
		}
	}
	// Nothing flows into the exit block from beyond it: its live-in is
	// exactly what it reads.
	if len(g.Succs[3]) != 0 || lv.LiveIn[3].Count() != 2 {
		t.Errorf("exit bb3 has %d successors and %d live-in regs, want 0 and 2", len(g.Succs[3]), lv.LiveIn[3].Count())
	}
	// The predicate is consumed in bb0 and dead beyond it.
	p := ir.Pred(0)
	if lv.LiveIn[1].Has(p) || lv.LiveIn[2].Has(p) {
		t.Error("predicate must be dead after bb0")
	}
}

func TestLivenessKill(t *testing.T) {
	// bb0 defines r0 then falls to bb1 which redefines r0 before use:
	// r0 must not be live-in at bb1's predecessor beyond the def.
	f := ir.NewFunction("kill")
	b0, b1 := f.NewBlock(), f.NewBlock()
	r0, r1 := f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR)
	f.EmitMovI(b0, r0, 1)
	b0.FallThrough = b1.ID
	f.EmitMovI(b1, r0, 2)
	f.EmitALU(b1, ir.Add, r1, r0, r0)
	f.EmitRet(b1)
	g := New(f)
	lv := ComputeLiveness(g)
	if lv.LiveIn[1].Has(r0) {
		t.Error("r0 is redefined before use in bb1; must not be live-in")
	}
	for _, s := range g.Succs[0] {
		if lv.LiveIn[s].Has(r0) {
			t.Errorf("r0 must not be live-out of bb0 (live-in at bb%d)", s)
		}
	}
}

func TestLivenessLoop(t *testing.T) {
	f := loop(t)
	g := New(f)
	lv := ComputeLiveness(g)
	r := ir.GPR(0)
	// r is used and defined in the loop body; it must be live around the
	// back edge bb1→bb1, i.e. live-in at the edge's head, and dead on the
	// exit edge bb1→bb2.
	if !lv.LiveIn[1].Has(r) {
		t.Error("loop-carried register must be live around the back edge")
	}
	if lv.LiveIn[2].Has(r) {
		t.Error("loop-carried register must be dead on the exit edge")
	}
}

func TestRegSetOps(t *testing.T) {
	s := NewRegSet(ir.GPR(1))
	s.Add(ir.NoReg)
	if len(s) != 1 {
		t.Fatal("NoReg must be ignored")
	}
	o := NewRegSet(ir.GPR(1), ir.GPR(2))
	if !s.AddAll(o) {
		t.Fatal("AddAll should grow")
	}
	if s.AddAll(o) {
		t.Fatal("AddAll should not grow twice")
	}
	c := s.Clone()
	c.Add(ir.GPR(9))
	if s.Has(ir.GPR(9)) {
		t.Fatal("Clone must be independent")
	}
}
