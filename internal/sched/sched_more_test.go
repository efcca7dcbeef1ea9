package sched

import (
	"sort"
	"testing"

	"treegion/internal/core"
	"treegion/internal/ir"
	"treegion/internal/machine"
	"treegion/internal/region"
)

func TestCopiesAreSlotFree(t *testing.T) {
	// Five independent MOVIs plus a Copy: on a 4-wide machine everything
	// with real slots needs 2 cycles, but if the copy's operand is ready it
	// must not consume a slot.
	f := ir.NewFunction("cp")
	b0 := f.NewBlock()
	src := f.NewReg(ir.ClassGPR)
	f.EmitMovI(b0, src, 1)
	cp := f.NewOp(ir.Copy)
	cp.Dests = []ir.Reg{f.NewReg(ir.ClassGPR)}
	cp.Srcs = []ir.Reg{src}
	b0.Ops = append(b0.Ops, cp)
	for i := 0; i < 3; i++ {
		f.EmitMovI(b0, f.NewReg(ir.ClassGPR), int64(i))
	}
	f.EmitRet(b0)
	r := region.New(f, region.KindBasicBlock, b0.ID)
	g := buildGraph(t, f, r)
	s := ListSchedule(g, machine.FourU, depHeight)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	// 4 MOVIs fill cycle 0; the copy waits on its operand (lat 1) and then
	// rides free in cycle 1 beside nothing else... total length 2.
	if s.Length > 2 {
		t.Fatalf("schedule length %d, want <= 2 (copies ride free)\n%s", s.Length, s)
	}
	// Real-slot count per cycle never exceeds the width even though the
	// copy shares a row.
	perCycle := map[int]int{}
	for _, n := range g.Nodes {
		if !n.IsCopy() {
			perCycle[s.Cycle[n.Index]]++
		}
	}
	cycles := make([]int, 0, len(perCycle))
	for c := range perCycle {
		cycles = append(cycles, c)
	}
	sort.Ints(cycles)
	for _, c := range cycles {
		if k := perCycle[c]; k > 4 {
			t.Fatalf("cycle %d issues %d real ops", c, k)
		}
	}
}

func TestSixteenWide(t *testing.T) {
	f := ir.NewFunction("w16")
	b0 := f.NewBlock()
	r0 := f.NewReg(ir.ClassGPR)
	for i := 0; i < 16; i++ {
		f.EmitALU(b0, ir.Add, f.NewReg(ir.ClassGPR), r0, r0)
	}
	f.EmitRet(b0)
	r := region.New(f, region.KindBasicBlock, b0.ID)
	g := buildGraph(t, f, r)
	s := ListSchedule(g, machine.SixteenU, depHeight)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if s.Length > 2 {
		t.Fatalf("16 independent ops on 16U took %d cycles", s.Length)
	}
}

func TestScheduleStringShowsRows(t *testing.T) {
	f := ir.NewFunction("str")
	b0 := f.NewBlock()
	f.EmitMovI(b0, f.NewReg(ir.ClassGPR), 7)
	f.EmitRet(b0)
	r := region.New(f, region.KindBasicBlock, b0.ID)
	g := buildGraph(t, f, r)
	s := ListSchedule(g, machine.FourU, depHeight)
	out := s.String()
	if out == "" || len(out) < 10 {
		t.Fatalf("String() = %q", out)
	}
}

func TestPriorityOrderingUsedForSlots(t *testing.T) {
	// Two independent chains, one twice as heavy by weight; on a 1-wide
	// machine the global-weight heuristic must schedule the heavy chain's
	// ops first.
	f := ir.NewFunction("prio")
	b0, hot, cold, join := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	r0 := ir.GPR(0)
	f.NoteReg(r0)
	p := f.NewReg(ir.ClassPred)
	f.EmitCmpp(b0, p, ir.NoReg, ir.CondGT, r0, r0)
	f.EmitBrct(b0, ir.NoReg, p, hot.ID, 0.9)
	b0.FallThrough = cold.ID
	hotOp := f.EmitALU(hot, ir.Add, f.NewReg(ir.ClassGPR), r0, r0)
	hot.FallThrough = join.ID
	coldOp := f.EmitALU(cold, ir.Sub, f.NewReg(ir.ClassGPR), r0, r0)
	cold.FallThrough = join.ID
	f.EmitRet(join)
	r := region.New(f, region.KindTreegion, b0.ID)
	r.Add(hot.ID, b0.ID)
	r.Add(cold.ID, b0.ID)

	g := buildGraph(t, f, r)
	// Fake weights directly on the nodes (no profile needed).
	for _, n := range g.Nodes {
		switch n.Home {
		case hot.ID:
			n.Weight = 90
		case cold.ID:
			n.Weight = 10
		}
	}
	s := ListSchedule(g, machine.Scalar, core.GlobalWeight.Keys)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if s.Cycle[g.NodeOf(hotOp).Index] >= s.Cycle[g.NodeOf(coldOp).Index] {
		t.Fatal("global weight did not prioritize the hot path's op")
	}
}
