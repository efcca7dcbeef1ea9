package interp

import (
	"testing"

	"treegion/internal/ir"
)

func TestGuardedOpsSquash(t *testing.T) {
	// v = 7; p = (1 > 2) = false; (p) v = 9; store v  → 7.
	f := ir.NewFunction("g")
	b := f.NewBlock()
	a1, a2 := f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR)
	v := f.NewReg(ir.ClassGPR)
	p := f.NewReg(ir.ClassPred)
	f.EmitMovI(b, a1, 1)
	f.EmitMovI(b, a2, 2)
	f.EmitMovI(b, v, 7)
	f.EmitCmpp(b, p, ir.NoReg, ir.CondGT, a1, a2)
	g := f.EmitMovI(b, v, 9)
	g.Guard = p
	f.EmitSt(b, a1, 0, v)
	f.EmitRet(b)
	tr, err := runOnce(nil, f, NewOracle(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Stores) != 1 || tr.Stores[0].Value != 7 {
		t.Fatalf("stores = %v, want value 7", tr.Stores)
	}

	// Flip the condition: the guarded op fires.
	f.Block(0).Ops[3].Cond = ir.CondLT
	tr, err = runOnce(nil, f, NewOracle(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stores[0].Value != 9 {
		t.Fatalf("guarded op did not fire: %v", tr.Stores)
	}
}

func TestGuardedStoreSquash(t *testing.T) {
	f := ir.NewFunction("gs")
	b := f.NewBlock()
	a := f.NewReg(ir.ClassGPR)
	p := f.NewReg(ir.ClassPred)
	f.EmitMovI(b, a, 5)
	f.EmitCmpp(b, p, ir.NoReg, ir.CondGT, a, a) // false
	st := f.EmitSt(b, a, 0, a)
	st.Guard = p
	f.EmitRet(b)
	tr, err := runOnce(nil, f, NewOracle(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Stores) != 0 {
		t.Fatalf("guarded store executed despite false predicate: %v", tr.Stores)
	}
}

func TestBruFollowed(t *testing.T) {
	f := ir.NewFunction("bru")
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.EmitBru(b0, ir.NoReg, b2.ID)
	f.EmitRet(b1) // unreachable
	f.EmitSt(b2, ir.GPR(0), 0, ir.GPR(0))
	f.EmitRet(b2)
	tr, err := runOnce(nil, f, NewOracle(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Blocks) != 2 || tr.Blocks[1] != b2.ID {
		t.Fatalf("path = %v, want bb0 -> bb2", tr.Blocks)
	}
	if len(tr.Stores) != 1 {
		t.Fatal("bb2's store missing")
	}
}

func TestCallIsOpaqueNoop(t *testing.T) {
	f := ir.NewFunction("call")
	b := f.NewBlock()
	v := f.NewReg(ir.ClassGPR)
	f.EmitMovI(b, v, 3)
	call := f.NewOp(ir.Call)
	b.Ops = append(b.Ops, call)
	f.EmitSt(b, v, 0, v)
	f.EmitRet(b)
	tr, err := runOnce(nil, f, NewOracle(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Stores) != 1 || tr.Stores[0].Value != 3 {
		t.Fatalf("stores = %v", tr.Stores)
	}
}

func TestProfileEdgeKeysMatchCurrentBlocks(t *testing.T) {
	// Profiling counts current block IDs (not originals), which is what
	// region formation needs after tail duplication.
	f := ir.NewFunction("ids")
	b0, b1 := f.NewBlock(), f.NewBlock()
	b0.FallThrough = b1.ID
	f.EmitRet(b1)
	dup := f.DuplicateBlock(b1) // carries its own RET copy; unreachable
	d, err := Profile(f, 1, 5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.BlockWeight(b1.ID) != 5 || d.BlockWeight(dup.ID) != 0 {
		t.Fatalf("weights: bb1=%v dup=%v", d.BlockWeight(b1.ID), d.BlockWeight(dup.ID))
	}
}
