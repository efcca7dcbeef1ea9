package region

import (
	"slices"
	"testing"

	"treegion/internal/ir"
	"treegion/internal/profile"
)

// tree builds the Fig. 1-style CFG fragment:
//
//	bb0 -> bb1, bb2; bb1 -> bb3, bb4; bb2 -> exit5; bb3 -> exit5; bb4 -> exit6
func tree(t *testing.T) (*ir.Function, *Region) {
	t.Helper()
	f := ir.NewFunction("tree")
	blocks := make([]*ir.Block, 7)
	for i := range blocks {
		blocks[i] = f.NewBlock()
	}
	p := f.NewReg(ir.ClassPred)
	for _, b := range []int{1, 2, 3, 4} {
		f.EmitALU(blocks[b], ir.Add, f.NewReg(ir.ClassGPR), ir.GPR(0), ir.GPR(1))
	}
	f.EmitBrct(blocks[0], ir.NoReg, p, 1, 0.5)
	blocks[0].FallThrough = 2
	f.EmitBrct(blocks[1], ir.NoReg, p, 3, 0.5)
	blocks[1].FallThrough = 4
	blocks[2].FallThrough = 5
	blocks[3].FallThrough = 5
	blocks[4].FallThrough = 6
	f.EmitRet(blocks[5])
	f.EmitRet(blocks[6])
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}

	r := New(f, KindTreegion, 0)
	r.Add(1, 0)
	r.Add(2, 0)
	r.Add(3, 1)
	r.Add(4, 1)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return f, r
}

func TestRegionTopology(t *testing.T) {
	_, r := tree(t)
	if got := r.PathCount(); got != 3 {
		t.Errorf("PathCount = %d, want 3 (leaves bb2 bb3 bb4)", got)
	}
	if ch := r.Children(1); len(ch) != 2 || ch[0] != 3 || ch[1] != 4 {
		t.Errorf("Children(bb1) = %v", ch)
	}
	if !r.IsLeaf(2) || r.IsLeaf(1) {
		t.Error("leaf classification wrong")
	}
	path := r.PathTo(4)
	want := []ir.BlockID{0, 1, 4}
	if len(path) != len(want) {
		t.Fatalf("PathTo(4) = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("PathTo(4) = %v, want %v", path, want)
		}
	}
	anc := r.Ancestors(4)
	if len(anc) != 2 || anc[0] != 1 || anc[1] != 0 {
		t.Fatalf("Ancestors(4) = %v", anc)
	}
	sub := r.Subtree(1)
	if len(sub) != 3 {
		t.Fatalf("Subtree(1) = %v", sub)
	}
}

func TestRegionExits(t *testing.T) {
	_, r := tree(t)
	exits := r.Exits()
	// Exit edges: bb2->5, bb3->5, bb4->6.
	if len(exits) != 3 {
		t.Fatalf("Exits = %v, want 3", exits)
	}
	for _, e := range exits {
		if e.Br != nil {
			t.Errorf("fallthrough exit has branch op: %+v", e)
		}
		if e.To != 5 && e.To != 6 {
			t.Errorf("unexpected exit target bb%d", e.To)
		}
	}
}

func TestExitsBelow(t *testing.T) {
	_, r := tree(t)
	eb := r.AppendExitsBelow(nil)
	if len(eb) != len(r.Blocks) {
		t.Fatalf("ExitsBelow has %d entries for %d blocks", len(eb), len(r.Blocks))
	}
	// Appending after existing entries leaves them alone and appends the
	// same counts.
	if got := r.AppendExitsBelow([]int{7}); got[0] != 7 || !slices.Equal(got[1:], eb) {
		t.Errorf("AppendExitsBelow([7]) = %v, want 7 then %v", got, eb)
	}
	if got := eb[r.Pos(0)]; got != 3 {
		t.Errorf("ExitsBelow(root) = %d, want 3", got)
	}
	if got := eb[r.Pos(1)]; got != 2 {
		t.Errorf("ExitsBelow(bb1) = %d, want 2", got)
	}
	for _, leaf := range []ir.BlockID{2, 3, 4} {
		if got := eb[r.Pos(leaf)]; got != 1 {
			t.Errorf("ExitsBelow(bb%d) = %d, want 1", leaf, got)
		}
	}
}

func TestExitToOwnRoot(t *testing.T) {
	// A region whose leaf branches back to the region root: that edge is an
	// exit, not a tree edge.
	f := ir.NewFunction("loopish")
	b0, b1 := f.NewBlock(), f.NewBlock()
	p := f.NewReg(ir.ClassPred)
	b0.FallThrough = b1.ID
	f.EmitBrct(b1, ir.NoReg, p, b0.ID, 0.5)
	b1.FallThrough = b0.ID // not valid: duplicate succ; use a real exit
	b1.FallThrough = ir.NoBlock
	f.EmitRet(b1)
	// b1 now has branch to b0 and a Ret: invalid per layout. Rebuild simply:
	f = ir.NewFunction("loopish")
	b0, b1 = f.NewBlock(), f.NewBlock()
	b2 := f.NewBlock()
	p = f.NewReg(ir.ClassPred)
	b0.FallThrough = b1.ID
	f.EmitBrct(b1, ir.NoReg, p, b0.ID, 0.9)
	b1.FallThrough = b2.ID
	f.EmitRet(b2)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	r := New(f, KindTreegion, b0.ID)
	r.Add(b1.ID, b0.ID)
	exits := r.Exits()
	var foundRootExit bool
	for _, e := range exits {
		if e.To == b0.ID {
			foundRootExit = true
			if e.Br == nil {
				t.Error("back edge exit should carry its branch op")
			}
		}
	}
	if !foundRootExit {
		t.Error("back edge to own root must be an exit")
	}
}

func TestRegionValidateCatchesBadParent(t *testing.T) {
	f := ir.NewFunction("bad")
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	b0.FallThrough = b1.ID
	b1.FallThrough = b2.ID
	f.EmitRet(b2)
	r := New(f, KindTreegion, b0.ID)
	r.Add(b1.ID, b0.ID)
	// bb2's CFG pred is bb1, not bb0.
	r.Add(b2.ID, b0.ID)
	if err := r.Validate(); err == nil {
		t.Fatal("bogus parent edge not caught")
	}
}

func TestComputeStats(t *testing.T) {
	f, r := tree(t)
	solo := New(f, KindTreegion, 5)
	s := ComputeStats([]*Region{r, solo}, nil)
	if s.Count != 2 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.MaxBlocks != 5 {
		t.Fatalf("MaxBlocks = %d, want 5", s.MaxBlocks)
	}
	if s.AvgBlocks != 3 {
		t.Fatalf("AvgBlocks = %v, want 3", s.AvgBlocks)
	}
	// With a profile that never executed bb5, the solo region drops out.
	prof := profile.New()
	prof.AddBlock(0, 10)
	s = ComputeStats([]*Region{r, solo}, prof)
	if s.Count != 1 {
		t.Fatalf("executed-only Count = %d, want 1", s.Count)
	}
}

func TestMergeStats(t *testing.T) {
	a := Stats{Count: 2, AvgBlocks: 3, MaxBlocks: 5, AvgOps: 10}
	b := Stats{Count: 1, AvgBlocks: 6, MaxBlocks: 7, AvgOps: 4}
	m := Merge([]Stats{a, b})
	if m.Count != 3 || m.MaxBlocks != 7 {
		t.Fatalf("Merge = %+v", m)
	}
	if m.AvgBlocks != 4 {
		t.Fatalf("AvgBlocks = %v, want 4", m.AvgBlocks)
	}
	if m.AvgOps != 8 {
		t.Fatalf("AvgOps = %v, want 8", m.AvgOps)
	}
}

func TestCheckPartition(t *testing.T) {
	f, r := tree(t)
	r5 := New(f, KindTreegion, 5)
	r6 := New(f, KindTreegion, 6)
	if err := CheckPartition(f, []*Region{r, r5, r6}); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	if err := CheckPartition(f, []*Region{r, r5}); err == nil {
		t.Fatal("missing block not caught")
	}
	dup := New(f, KindTreegion, 5)
	if err := CheckPartition(f, []*Region{r, r5, r6, dup}); err == nil {
		t.Fatal("double ownership not caught")
	}
}

func TestTailDuplicatePrimitive(t *testing.T) {
	// bb0 and bb1 both feed merge bb2, which feeds bb3/bb4.
	f := ir.NewFunction("td")
	b0, b1, b2, b3, b4 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	p := f.NewReg(ir.ClassPred)
	f.EmitBrct(b0, ir.NoReg, p, b2.ID, 0.5)
	b0.FallThrough = b1.ID
	b1.FallThrough = b2.ID
	f.EmitALU(b2, ir.Add, f.NewReg(ir.ClassGPR), ir.GPR(0), ir.GPR(1))
	f.EmitBrct(b2, ir.NoReg, p, b3.ID, 0.25)
	b2.FallThrough = b4.ID
	f.EmitRet(b3)
	f.EmitRet(b4)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}

	prof := profile.New()
	prof.AddBlock(b0.ID, 100)
	prof.AddBlock(b1.ID, 40)
	prof.AddBlock(b2.ID, 100)
	prof.AddBlock(b3.ID, 25)
	prof.AddBlock(b4.ID, 75)
	prof.AddEdge(b0.ID, b2.ID, 60)
	prof.AddEdge(b0.ID, b1.ID, 40)
	prof.AddEdge(b1.ID, b2.ID, 40)
	prof.AddEdge(b2.ID, b3.ID, 25)
	prof.AddEdge(b2.ID, b4.ID, 75)

	dup := TailDuplicate(f, prof, b0.ID, b2.ID)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// bb0 now targets the duplicate; bb1 still targets the original.
	for _, s := range b0.Succs() {
		if s == b2.ID {
			t.Fatal("bb0 still points at the original merge")
		}
	}
	if b1.FallThrough != b2.ID {
		t.Fatal("bb1's edge must be untouched")
	}
	// Weight conservation.
	if got := prof.BlockWeight(dup.ID); got != 60 {
		t.Errorf("dup weight = %v, want 60", got)
	}
	if got := prof.BlockWeight(b2.ID); got != 40 {
		t.Errorf("orig weight = %v, want 40", got)
	}
	// Outgoing edges split 60/40.
	if got := prof.EdgeWeight(dup.ID, b3.ID); got != 15 {
		t.Errorf("dup->bb3 = %v, want 15", got)
	}
	if got := prof.EdgeWeight(b2.ID, b3.ID); got != 10 {
		t.Errorf("orig->bb3 = %v, want 10", got)
	}
	if got := prof.EdgeWeight(b0.ID, dup.ID); got != 60 {
		t.Errorf("bb0->dup = %v, want 60", got)
	}
	if got := prof.EdgeWeight(b0.ID, b2.ID); got != 0 {
		t.Errorf("bb0->orig = %v, want 0", got)
	}
	// The duplicate's ops trace back to the originals.
	if dup.Orig != b2.ID {
		t.Error("dup Orig wrong")
	}
	for i, op := range dup.Ops {
		if op.Orig != b2.Ops[i].ID {
			t.Error("dup op Orig wrong")
		}
	}
}
