package hyper

import (
	"testing"

	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/profile"
)

// mirrorTriangle builds the if-arm on the FALLTHROUGH side:
// head --br--> join; head -> arm -> join.
func TestIfConvertMirrorTriangle(t *testing.T) {
	f := ir.NewFunction("mirror")
	head, arm, join := f.NewBlock(), f.NewBlock(), f.NewBlock()
	a := f.NewReg(ir.ClassGPR)
	v := f.NewReg(ir.ClassGPR)
	p := f.NewReg(ir.ClassPred)
	f.EmitMovI(head, a, 1)
	f.EmitMovI(head, v, 7)
	f.EmitCmpp(head, p, ir.NoReg, ir.CondGT, a, a) // false: arm executes
	f.EmitBrct(head, ir.NoReg, p, join.ID, 0)
	head.FallThrough = arm.ID
	f.EmitMovI(arm, v, 9)
	arm.FallThrough = join.ID
	f.EmitSt(join, a, 0, v)
	f.EmitRet(join)
	prof := profile.New()
	prof.AddBlock(head.ID, 10)
	prof.AddBlock(arm.ID, 10)
	prof.AddEdge(head.ID, arm.ID, 10)
	prof.AddEdge(arm.ID, join.ID, 10)

	st := IfConvert(f, prof, DefaultConfig())
	if st.Triangles != 1 {
		t.Fatalf("stats = %+v, want one (mirror) triangle", st)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// The complement polarity grew on the CMPP and guards the arm op.
	cmpp := f.Block(0).Ops[2]
	if len(cmpp.Dests) != 2 {
		t.Fatal("CMPP complement not grown")
	}
	var guarded *ir.Op
	for _, op := range f.Block(0).Ops {
		if op.Guarded() {
			guarded = op
		}
	}
	if guarded == nil || guarded.Guard != cmpp.Dests[1] {
		t.Fatalf("arm op guarded by %v, want the complement %v", guarded, cmpp.Dests[1])
	}
	// Data: p false → complement true → arm fires → store 9.
	var run interp.Runner
	run.Reset(nil, new(interp.Numbering))
	tr := new(interp.Trace)
	if err := run.RunTrace(f, interp.NewOracle(0), interp.Config{}, tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Stores) != 1 || tr.Stores[0].Value != 9 {
		t.Fatalf("stores = %v, want value 9", tr.Stores)
	}
	// The dead PBR-free branch is gone and head falls straight through.
	if f.Block(0).NumSuccs() != 1 {
		t.Fatal("head still branches")
	}
}

func TestIfConvertDropsDeadPbr(t *testing.T) {
	f := ir.NewFunction("pbr")
	head, arm, join := f.NewBlock(), f.NewBlock(), f.NewBlock()
	a := f.NewReg(ir.ClassGPR)
	p := f.NewReg(ir.ClassPred)
	btr := f.NewReg(ir.ClassBTR)
	f.EmitMovI(head, a, 1)
	f.EmitCmpp(head, p, ir.NoReg, ir.CondGT, a, a)
	f.EmitPbr(head, btr, arm.ID)
	f.EmitBrct(head, btr, p, arm.ID, 0.5)
	head.FallThrough = join.ID
	f.EmitALU(arm, ir.Add, f.NewReg(ir.ClassGPR), a, a)
	arm.FallThrough = join.ID
	f.EmitRet(join)
	before := f.NumOps()
	st := IfConvert(f, profile.New(), DefaultConfig())
	if st.Triangles != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Both the branch and its PBR disappeared.
	if f.NumOps() != before-2 {
		t.Fatalf("ops %d -> %d, want the branch and PBR removed", before, f.NumOps())
	}
	for _, op := range f.Block(0).Ops {
		if op.Opcode == ir.Pbr || op.IsBranch() {
			t.Fatalf("leftover %v", op)
		}
	}
}

func TestIfConvertNestedDiamondsAcrossPasses(t *testing.T) {
	// Outer diamond whose arms are themselves tiny diamonds: inner ones
	// convert on pass 1, outer on pass 2.
	f := ir.NewFunction("nested")
	mk := func(parent *ir.Block, depth int) *ir.Block {
		a := f.NewReg(ir.ClassGPR)
		p := f.NewReg(ir.ClassPred)
		f.EmitMovI(parent, a, int64(depth))
		f.EmitCmpp(parent, p, ir.NoReg, ir.CondGT, a, a)
		tb, eb, join := f.NewBlock(), f.NewBlock(), f.NewBlock()
		f.EmitBrct(parent, ir.NoReg, p, tb.ID, 0.5)
		parent.FallThrough = eb.ID
		f.EmitALU(tb, ir.Add, f.NewReg(ir.ClassGPR), a, a)
		tb.FallThrough = join.ID
		f.EmitALU(eb, ir.Sub, f.NewReg(ir.ClassGPR), a, a)
		eb.FallThrough = join.ID
		return join
	}
	head := f.NewBlock()
	j1 := mk(head, 1)
	j2 := mk(j1, 2)
	f.EmitRet(j2)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	st := IfConvert(f, profile.New(), DefaultConfig())
	if st.Diamonds != 2 {
		t.Fatalf("stats = %+v, want both diamonds converted", st)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// Control is now a straight line from the entry.
	g := f.Block(head.ID)
	for g.FallThrough != ir.NoBlock {
		if len(g.Branches()) != 0 {
			t.Fatal("branches remain after full conversion")
		}
		g = f.Block(g.FallThrough)
	}
}

func TestIfConvertRespectsMaxPasses(t *testing.T) {
	f := ir.NewFunction("passes")
	mkTri := func(parent *ir.Block) *ir.Block {
		a := f.NewReg(ir.ClassGPR)
		p := f.NewReg(ir.ClassPred)
		f.EmitCmpp(parent, p, ir.NoReg, ir.CondGT, a, a)
		arm, join := f.NewBlock(), f.NewBlock()
		f.EmitBrct(parent, ir.NoReg, p, arm.ID, 0.5)
		parent.FallThrough = join.ID
		f.EmitALU(arm, ir.Add, f.NewReg(ir.ClassGPR), a, a)
		arm.FallThrough = join.ID
		return join
	}
	head := f.NewBlock()
	j := mkTri(head)
	j = mkTri(j)
	f.EmitRet(j)
	// Single pass still converts both: they are siblings, not nested.
	st := IfConvert(f, profile.New(), Config{MaxArmOps: 8, MaxPasses: 1})
	if st.Triangles != 2 {
		t.Fatalf("stats = %+v, want both sibling triangles in one pass", st)
	}
}
