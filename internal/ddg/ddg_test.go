package ddg

import (
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/region"
)

// simpleTree builds a two-path treegion:
//
//	bb0: r2 = LD [r0]; p0 = CMPP(r2 > r1); BRCT -> bb1; fall bb2
//	bb1: r3 = ADD r2, r1; ST [r0], r3        (then exit to bb3)
//	bb2: r3 = SUB r2, r1; ST [r0+8], r3      (then exit to bb3)
//	bb3: uses r3 (outside region)
func simpleTree(t *testing.T) (*ir.Function, *region.Region, *cfg.Liveness) {
	t.Helper()
	f := ir.NewFunction("simple")
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	r0, r1, r2, r3 := ir.GPR(0), ir.GPR(1), ir.GPR(2), ir.GPR(3)
	for _, r := range []ir.Reg{r0, r1, r2, r3} {
		f.NoteReg(r)
	}
	p0 := f.NewReg(ir.ClassPred)
	f.EmitLd(b0, r2, r0, 0)
	f.EmitCmpp(b0, p0, ir.NoReg, ir.CondGT, r2, r1)
	f.EmitBrct(b0, ir.NoReg, p0, b1.ID, 0.5)
	b0.FallThrough = b2.ID
	f.EmitALU(b1, ir.Add, r3, r2, r1)
	f.EmitSt(b1, r0, 0, r3)
	b1.FallThrough = b3.ID
	f.EmitALU(b2, ir.Sub, r3, r2, r1)
	f.EmitSt(b2, r0, 8, r3)
	b2.FallThrough = b3.ID
	f.EmitALU(b3, ir.Xor, f.NewReg(ir.ClassGPR), r3, r1)
	f.EmitRet(b3)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	r := region.New(f, region.KindTreegion, b0.ID)
	r.Add(b1.ID, b0.ID)
	r.Add(b2.ID, b0.ID)
	lv := cfg.ComputeLiveness(cfg.New(f))
	return f, r, lv
}

func findNode(g *Graph, opc ir.Opcode, home ir.BlockID) *Node {
	for _, n := range g.Nodes {
		if n.Op.Opcode == opc && n.Home == home {
			return n
		}
	}
	return nil
}

func hasEdge(from, to *Node, lat int) bool {
	for _, e := range from.Succs {
		if e.To == to && e.Latency == lat {
			return true
		}
	}
	return false
}

func TestBuildFlowAndControlEdges(t *testing.T) {
	f, r, lv := simpleTree(t)
	_ = f
	g, err := Build(f, r, Options{Rename: true, Liveness: lv})
	if err != nil {
		t.Fatal(err)
	}
	ld := findNode(g, ir.Ld, 0)
	cmpp := findNode(g, ir.Cmpp, 0)
	br := findNode(g, ir.Brct, 0)
	add := findNode(g, ir.Add, 1)
	st1 := findNode(g, ir.St, 1)
	if ld == nil || cmpp == nil || br == nil || add == nil || st1 == nil {
		t.Fatal("missing nodes")
	}
	// Load feeds the compare with latency 2.
	if !hasEdge(ld, cmpp, 2) {
		t.Error("missing LD->CMPP flow edge with load latency")
	}
	// Compare feeds the branch with latency 1.
	if !hasEdge(cmpp, br, 1) {
		t.Error("missing CMPP->BRCT flow edge")
	}
	// The branch to bb1 is an internal tree edge, so body ops that no exit
	// needs are free to sink past it (downward code motion): the load must
	// have no ordering edge to the branch beyond its data flow.
	if hasEdge(ld, br, 0) {
		t.Error("dead-at-exit op pinned above an internal branch")
	}
	// The ADD in bb1 is speculatable: it must have no edge from the branch.
	for _, e := range br.Succs {
		if e.To == add {
			t.Error("speculatable op pinned below branch")
		}
	}
	// The store is not: it waits a full cycle after the branch.
	if !hasEdge(br, st1, 1) {
		t.Error("store missing control-resolution edge")
	}
	if add.Spec == false || st1.Spec == true {
		t.Error("Spec flags wrong")
	}
}

func TestBuildRenamesConflictingDest(t *testing.T) {
	f, r, lv := simpleTree(t)
	g, err := Build(f, r, Options{Rename: true, Liveness: lv})
	if err != nil {
		t.Fatal(err)
	}
	// r3 is defined on both arms and is live into bb3, so both (speculatable)
	// defs must be renamed, with copies restoring r3.
	if g.NumRenamed != 2 {
		t.Fatalf("NumRenamed = %d, want 2", g.NumRenamed)
	}
	if g.NumCopies != 2 {
		t.Fatalf("NumCopies = %d, want 2", g.NumCopies)
	}
	add := findNode(g, ir.Add, 1)
	if !add.Op.Renamed || add.Op.Dests[0] == ir.GPR(3) {
		t.Error("ADD dest not renamed")
	}
	// The store on the same path must read the fresh register directly.
	st1 := findNode(g, ir.St, 1)
	if st1.Op.Srcs[1] != add.Op.Dests[0] {
		t.Errorf("store reads %v, want renamed %v", st1.Op.Srcs[1], add.Op.Dests[0])
	}
	// A copy restoring r3 exists on each arm, homed in the arm.
	copies := 0
	for _, n := range g.Nodes {
		if n.IsCopy() {
			copies++
			if n.Op.Dests[0] != ir.GPR(3) {
				t.Errorf("copy restores %v, want r3", n.Op.Dests[0])
			}
			if n.Spec {
				t.Error("copies must not speculate")
			}
		}
	}
	if copies != 2 {
		t.Fatalf("found %d copy nodes, want 2", copies)
	}
	// The function must remain valid after the rewrite.
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNoRenameWithoutConflict(t *testing.T) {
	// Single-path region: nothing lives off-path, so no renames.
	f := ir.NewFunction("line")
	b0, b1 := f.NewBlock(), f.NewBlock()
	r0 := f.NewReg(ir.ClassGPR)
	r1 := f.NewReg(ir.ClassGPR)
	f.EmitLd(b0, r1, r0, 0)
	b0.FallThrough = b1.ID
	f.EmitALU(b1, ir.Add, f.NewReg(ir.ClassGPR), r1, r0)
	f.EmitRet(b1)
	r := region.New(f, region.KindSLR, b0.ID)
	r.Add(b1.ID, b0.ID)
	lv := cfg.ComputeLiveness(cfg.New(f))
	g, err := Build(f, r, Options{Rename: true, Liveness: lv})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRenamed != 0 || g.NumCopies != 0 {
		t.Fatalf("renamed %d / copies %d on a conflict-free region", g.NumRenamed, g.NumCopies)
	}
}

func TestMemorySerialization(t *testing.T) {
	f := ir.NewFunction("mem")
	b0 := f.NewBlock()
	r0 := f.NewReg(ir.ClassGPR)
	a := f.NewReg(ir.ClassGPR)
	c := f.NewReg(ir.ClassGPR)
	f.EmitLd(b0, a, r0, 0)  // ld1
	f.EmitSt(b0, r0, 8, a)  // st1: after ld1 (anti) and ld1 flow (a)
	f.EmitLd(b0, c, r0, 16) // ld2: after st1
	f.EmitSt(b0, r0, 24, c) // st2: after st1, ld2
	f.EmitRet(b0)
	r := region.New(f, region.KindBasicBlock, b0.ID)
	lv := cfg.ComputeLiveness(cfg.New(f))
	g, err := Build(f, r, Options{Rename: true, Liveness: lv})
	if err != nil {
		t.Fatal(err)
	}
	var ld1, ld2, st1, st2 *Node
	for _, n := range g.Nodes {
		switch {
		case n.Op.Opcode == ir.Ld && n.Op.Imm == 0:
			ld1 = n
		case n.Op.Opcode == ir.Ld && n.Op.Imm == 16:
			ld2 = n
		case n.Op.Opcode == ir.St && n.Op.Imm == 8:
			st1 = n
		case n.Op.Opcode == ir.St && n.Op.Imm == 24:
			st2 = n
		}
	}
	if !hasEdge(ld1, st1, 0) {
		t.Error("missing ld->st ordering")
	}
	if !hasEdge(st1, ld2, 0) {
		t.Error("missing st->ld ordering (loads may not bypass stores)")
	}
	if !hasEdge(st1, st2, 0) {
		t.Error("missing st->st ordering")
	}
	_ = ld2
}

func TestAntiAndOutputDeps(t *testing.T) {
	f := ir.NewFunction("waw")
	b0 := f.NewBlock()
	r0, r1 := f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR)
	read := f.EmitALU(b0, ir.Add, r1, r0, r0) // reads r0
	write := f.EmitMovI(b0, r0, 5)            // anti: read -> write
	write2 := f.EmitMovI(b0, r0, 6)           // output: write -> write2
	f.EmitRet(b0)
	r := region.New(f, region.KindBasicBlock, b0.ID)
	lv := cfg.ComputeLiveness(cfg.New(f))
	g, err := Build(f, r, Options{Rename: true, Liveness: lv})
	if err != nil {
		t.Fatal(err)
	}
	nr, nw, nw2 := g.NodeOf(read), g.NodeOf(write), g.NodeOf(write2)
	if !hasEdge(nr, nw, 0) {
		t.Error("missing anti edge (lat 0)")
	}
	if !hasEdge(nw, nw2, 1) {
		t.Error("missing output edge (lat 1)")
	}
}

func TestSiblingPathsIndependent(t *testing.T) {
	// Defs on one arm must not create edges to the other arm.
	f, r, lv := simpleTree(t)
	_ = f
	g, err := Build(f, r, Options{Rename: true, Liveness: lv})
	if err != nil {
		t.Fatal(err)
	}
	add := findNode(g, ir.Add, 1)
	sub := findNode(g, ir.Sub, 2)
	for _, e := range add.Succs {
		if e.To.Home == 2 {
			t.Errorf("cross-path edge %v -> %v", add.Op, e.To.Op)
		}
	}
	for _, e := range sub.Succs {
		if e.To.Home == 1 {
			t.Errorf("cross-path edge %v -> %v", sub.Op, e.To.Op)
		}
	}
	// Stores on different paths must not be memory-serialized either.
	st1 := findNode(g, ir.St, 1)
	st2 := findNode(g, ir.St, 2)
	if hasEdge(st1, st2, 0) || hasEdge(st2, st1, 0) {
		t.Error("sibling stores serialized")
	}
}

func TestHeights(t *testing.T) {
	f := ir.NewFunction("h")
	b0 := f.NewBlock()
	r0 := f.NewReg(ir.ClassGPR)
	a := f.NewReg(ir.ClassGPR)
	c := f.NewReg(ir.ClassGPR)
	ld := f.EmitLd(b0, a, r0, 0)
	add := f.EmitALU(b0, ir.Add, c, a, a)
	f.EmitRet(b0)
	r := region.New(f, region.KindBasicBlock, b0.ID)
	lv := cfg.ComputeLiveness(cfg.New(f))
	g, err := Build(f, r, Options{Rename: true, Liveness: lv})
	if err != nil {
		t.Fatal(err)
	}
	nl, na := g.NodeOf(ld), g.NodeOf(add)
	// add -> ret lat 0 => height(add) >= 1 via... add has succ Ret (lat 0),
	// Ret height 0, so height(add) = max(0+0, ...) = 0? Our heights count
	// outgoing latency only: ld -> add lat 2 gives height(ld) = 2.
	if nl.Height < 2 {
		t.Errorf("height(LD) = %d, want >= 2", nl.Height)
	}
	if nl.Height <= na.Height {
		t.Errorf("height(LD)=%d must exceed height(ADD)=%d", nl.Height, na.Height)
	}
}

func TestExitCountAndWeightAttrs(t *testing.T) {
	f, r, lv := simpleTree(t)
	prof := profile.New()
	prof.AddBlock(0, 100)
	prof.AddBlock(1, 70)
	prof.AddBlock(2, 30)
	g, err := Build(f, r, Options{Rename: true, Liveness: lv, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	ld := findNode(g, ir.Ld, 0)
	add := findNode(g, ir.Add, 1)
	sub := findNode(g, ir.Sub, 2)
	if ld.ExitCount != 2 {
		t.Errorf("ExitCount(root op) = %d, want 2", ld.ExitCount)
	}
	if add.ExitCount != 1 || sub.ExitCount != 1 {
		t.Errorf("leaf exit counts = %d/%d, want 1/1", add.ExitCount, sub.ExitCount)
	}
	if ld.Weight != 100 || add.Weight != 70 || sub.Weight != 30 {
		t.Errorf("weights = %v/%v/%v", ld.Weight, add.Weight, sub.Weight)
	}
}

func TestTopologicalIndexOrder(t *testing.T) {
	f, r, lv := simpleTree(t)
	_ = f
	g, err := Build(f, r, Options{Rename: true, Liveness: lv})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		for _, e := range n.Succs {
			if e.To.Index <= n.Index {
				t.Fatalf("edge %v -> %v goes backwards in index order", n.Op, e.To.Op)
			}
		}
	}
}
