package ddg

import (
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/ir"
	"treegion/internal/region"
)

// dupTree builds a tail-duplicated treegion like the paper's Fig. 12:
//
//	bb0 branches to bb1 / bb2; each arm contains a *duplicate* of the same
//	op (r5 = ADD r0, r1 with shared Orig), then a distinguishing op.
func dupTree(t *testing.T, redefineSrcOnArm bool) (*ir.Function, *region.Region, *cfg.Liveness, *ir.Op, *ir.Op) {
	t.Helper()
	f := ir.NewFunction("dup")
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	r0, r1 := ir.GPR(0), ir.GPR(1)
	f.NoteReg(r0)
	f.NoteReg(r1)
	r5 := f.NewReg(ir.ClassGPR)
	p := f.NewReg(ir.ClassPred)
	f.EmitCmpp(b0, p, ir.NoReg, ir.CondGT, r0, r1)
	f.EmitBrct(b0, ir.NoReg, p, b1.ID, 0.5)
	b0.FallThrough = b2.ID

	if redefineSrcOnArm {
		f.EmitMovI(b1, r0, 42) // clobbers the duplicate's source on one path
	}
	d1 := f.EmitALU(b1, ir.Add, r5, r0, r1)
	f.EmitSt(b1, r0, 0, r5)
	b1.FallThrough = b3.ID

	d2 := f.CloneOp(d1) // same Orig: a tail-duplicated twin
	b2.Ops = append(b2.Ops, d2)
	f.EmitSt(b2, r0, 8, r5)
	b2.FallThrough = b3.ID
	f.EmitRet(b3)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	r := region.New(f, region.KindTreegionTD, b0.ID)
	r.Add(b1.ID, b0.ID)
	r.Add(b2.ID, b0.ID)
	lv := cfg.ComputeLiveness(cfg.New(f))
	return f, r, lv, d1, d2
}

func TestDominatorParallelismMerges(t *testing.T) {
	f, r, lv, d1, d2 := dupTree(t, false)
	g, err := Build(f, r, Options{Rename: true, DominatorParallelism: true, Liveness: lv})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumMerged != 1 {
		t.Fatalf("NumMerged = %d, want 1", g.NumMerged)
	}
	// Exactly one of the twins survives, homed at the dominator bb0.
	n1, n2 := g.NodeOf(d1), g.NodeOf(d2)
	if (n1 == nil) == (n2 == nil) {
		t.Fatalf("want exactly one surviving twin, got %v/%v", n1, n2)
	}
	rep := n1
	if rep == nil {
		rep = n2
	}
	if rep.Home != 0 {
		t.Fatalf("representative homed at bb%d, want bb0 (the dominator)", rep.Home)
	}
	// Both stores read r5 and must depend on the representative.
	stores := 0
	for _, n := range g.Nodes {
		if n.Op.Opcode != ir.St {
			continue
		}
		stores++
		found := false
		for _, e := range rep.Succs {
			if e.To == n {
				found = true
			}
		}
		if !found {
			t.Errorf("store on bb%d does not depend on merged op", n.Home)
		}
	}
	if stores != 2 {
		t.Fatalf("stores = %d", stores)
	}
}

func TestDominatorParallelismRejectsChangedSource(t *testing.T) {
	f, r, lv, d1, d2 := dupTree(t, true)
	g, err := Build(f, r, Options{Rename: true, DominatorParallelism: true, Liveness: lv})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumMerged != 0 {
		t.Fatalf("merged despite a source redefinition between dominator and twin")
	}
	if g.NodeOf(d1) == nil || g.NodeOf(d2) == nil {
		t.Fatal("twins must both survive")
	}
}

func TestDominatorParallelismOffByDefault(t *testing.T) {
	f, r, lv, d1, d2 := dupTree(t, false)
	g, err := Build(f, r, Options{Rename: true, Liveness: lv})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumMerged != 0 || g.NodeOf(d1) == nil || g.NodeOf(d2) == nil {
		t.Fatal("merging happened without DominatorParallelism")
	}
}

func TestDominatorParallelismIncompleteSetNotMerged(t *testing.T) {
	f, r, lv := partialTree(t)
	g, err := Build(f, r, Options{Rename: true, DominatorParallelism: true, Liveness: lv})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumMerged != 0 {
		t.Fatal("incomplete duplicate set merged")
	}
}

// partialTree is a three-way divergence with duplicates on only two arms:
// not a complete set, so the merge must be rejected (the third path would
// observe the unconditional write).
func partialTree(t *testing.T) (*ir.Function, *region.Region, *cfg.Liveness) {
	t.Helper()
	f := ir.NewFunction("partial")
	b0 := f.NewBlock()
	arms := []*ir.Block{f.NewBlock(), f.NewBlock(), f.NewBlock()}
	exit := f.NewBlock()
	r0, r1 := ir.GPR(0), ir.GPR(1)
	f.NoteReg(r0)
	f.NoteReg(r1)
	r5 := f.NewReg(ir.ClassGPR)
	p1, p2 := f.NewReg(ir.ClassPred), f.NewReg(ir.ClassPred)
	f.EmitCmpp(b0, p1, ir.NoReg, ir.CondGT, r0, r1)
	f.EmitCmpp(b0, p2, ir.NoReg, ir.CondLT, r0, r1)
	f.EmitBrct(b0, ir.NoReg, p1, arms[0].ID, 0.3)
	f.EmitBrct(b0, ir.NoReg, p2, arms[1].ID, 0.3)
	b0.FallThrough = arms[2].ID
	d1 := f.EmitALU(arms[0], ir.Add, r5, r0, r1)
	f.EmitSt(arms[0], r0, 0, r5)
	d2 := f.CloneOp(d1)
	arms[1].Ops = append(arms[1].Ops, d2)
	f.EmitSt(arms[1], r0, 8, r5)
	// arm 2 uses r5's *old* value: merging would corrupt it.
	f.EmitSt(arms[2], r0, 16, r5)
	for _, a := range arms {
		a.FallThrough = exit.ID
	}
	f.EmitRet(exit)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	r := region.New(f, region.KindTreegionTD, b0.ID)
	for _, a := range arms {
		r.Add(a.ID, b0.ID)
	}
	return f, r, cfg.ComputeLiveness(cfg.New(f))
}

// deepTree nests the duplicates two levels apart: bb0 branches to bb1 and
// bb2, bb1 to bb3 and bb4, and bb2, bb3 and bb4 each hold a twin of
// r5 = ADD r0, r1 followed by a store of r5. The twins' dominator is bb0,
// two levels above bb3 and bb4, with bb1 between.
func deepTree(t *testing.T) (*ir.Function, *region.Region, *cfg.Liveness) {
	t.Helper()
	f := ir.NewFunction("deep")
	b := make([]*ir.Block, 6)
	for i := range b {
		b[i] = f.NewBlock()
	}
	r0, r1 := ir.GPR(0), ir.GPR(1)
	f.NoteReg(r0)
	f.NoteReg(r1)
	r5 := f.NewReg(ir.ClassGPR)
	p, q := f.NewReg(ir.ClassPred), f.NewReg(ir.ClassPred)
	f.EmitCmpp(b[0], p, ir.NoReg, ir.CondGT, r0, r1)
	f.EmitBrct(b[0], ir.NoReg, p, b[2].ID, 0.5)
	b[0].FallThrough = b[1].ID
	f.EmitCmpp(b[1], q, ir.NoReg, ir.CondLT, r0, r1)
	f.EmitBrct(b[1], ir.NoReg, q, b[4].ID, 0.5)
	b[1].FallThrough = b[3].ID
	d := f.EmitALU(b[2], ir.Add, r5, r0, r1)
	f.EmitSt(b[2], r0, 0, r5)
	for i, x := range []*ir.Block{b[3], b[4]} {
		x.Ops = append(x.Ops, f.CloneOp(d))
		f.EmitSt(x, r0, int64(8*(i+1)), r5)
	}
	for _, x := range b[2:5] {
		x.FallThrough = b[5].ID
	}
	f.EmitRet(b[5])
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	r := region.New(f, region.KindTreegionTD, b[0].ID)
	r.Add(b[1].ID, b[0].ID)
	r.Add(b[2].ID, b[0].ID)
	r.Add(b[3].ID, b[1].ID)
	r.Add(b[4].ID, b[1].ID)
	return f, r, cfg.ComputeLiveness(cfg.New(f))
}

// TestMergeHandBuiltMatchesReference runs the merge witness (see
// TestMergeMatchesReference) over hand-built regions: twins that merge, a
// redefined source, an incomplete set, a set two levels below its
// dominator, a set with two members in one block, and twins whose Orig lies
// above the function's op-ID bound, as an inlined op's does, or below zero.
// One witness, and so one Scratch, serves every case.
func TestMergeHandBuiltMatchesReference(t *testing.T) {
	setOrig := func(orig int) func(*ir.Function) {
		return func(f *ir.Function) {
			for _, b := range f.Blocks {
				for _, op := range b.Ops {
					if op.Opcode == ir.Add {
						op.Orig = orig
					}
				}
			}
		}
	}
	dup := func(redefine bool) func(t *testing.T) (*ir.Function, *region.Region, *cfg.Liveness) {
		return func(t *testing.T) (*ir.Function, *region.Region, *cfg.Liveness) {
			f, r, lv, _, _ := dupTree(t, redefine)
			return f, r, lv
		}
	}
	cases := []struct {
		name   string
		build  func(t *testing.T) (*ir.Function, *region.Region, *cfg.Liveness)
		edit   func(*ir.Function)
		merged int
	}{
		{"twins", dup(false), nil, 1},
		{"redefined-source", dup(true), nil, 0},
		{"incomplete", partialTree, nil, 0},
		{"two-levels-down", deepTree, nil, 2},
		{"one-block-twice", dup(false), func(f *ir.Function) {
			// A third twin beside the first: two members share bb1.
			b1 := f.Block(1)
			b1.Ops = append([]*ir.Op{f.CloneOp(b1.Ops[0])}, b1.Ops...)
		}, 0},
		{"orig-above-bound", dup(false), setOrig(1 << 40), 1},
		{"orig-negative", dup(false), setOrig(-7), 1},
	}
	var w MergeWitness
	for _, c := range cases {
		fn, r, lv := c.build(t)
		twin, tr, tlv := c.build(t)
		if c.edit != nil {
			c.edit(fn)
			c.edit(twin)
		}
		opts := Options{Rename: true, DominatorParallelism: true, Liveness: lv}
		twinOpts := Options{Rename: true, DominatorParallelism: true, Liveness: tlv}
		merged := w.Merged
		if err := w.Compare(fn, r, opts, twin, tr, twinOpts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := w.Merged - merged; got != c.merged {
			t.Errorf("%s: merged %d duplicates, want %d", c.name, got, c.merged)
		}
	}
}
