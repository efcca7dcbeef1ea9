package sched

import (
	"math"
	"strings"
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/core"
	"treegion/internal/ddg"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/linear"
	"treegion/internal/machine"
	"treegion/internal/progen"
	"treegion/internal/region"
)

func depHeight(n *ddg.Node) [3]float64 {
	return core.DepHeight.Keys(n)
}

func buildGraph(t *testing.T, f *ir.Function, r *region.Region) *ddg.Graph {
	t.Helper()
	lv := cfg.ComputeLiveness(cfg.New(f))
	g, err := ddg.Build(f, r, ddg.Options{Rename: true, Liveness: lv})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestScheduleRespectsLatency(t *testing.T) {
	f := ir.NewFunction("lat")
	b0 := f.NewBlock()
	r0 := f.NewReg(ir.ClassGPR)
	a := f.NewReg(ir.ClassGPR)
	c := f.NewReg(ir.ClassGPR)
	ld := f.EmitLd(b0, a, r0, 0)
	add := f.EmitALU(b0, ir.Add, c, a, a)
	f.EmitRet(b0)
	r := region.New(f, region.KindBasicBlock, b0.ID)
	g := buildGraph(t, f, r)
	s := ListSchedule(g, machine.FourU, depHeight)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if s.Cycle[g.NodeOf(add).Index]-s.Cycle[g.NodeOf(ld).Index] < 2 {
		t.Fatal("load latency not respected")
	}
}

// TestVerifyReportsFarProducer moves a load to math.MaxInt, past its
// consumer: Verify must report the violated edge. Comparing the consumer's
// cycle with cycle+latency wrapped there and reported nothing.
func TestVerifyReportsFarProducer(t *testing.T) {
	f := ir.NewFunction("far")
	b0 := f.NewBlock()
	r0 := f.NewReg(ir.ClassGPR)
	a := f.NewReg(ir.ClassGPR)
	ld := f.EmitLd(b0, a, r0, 0)
	f.EmitALU(b0, ir.Add, f.NewReg(ir.ClassGPR), a, a)
	f.EmitRet(b0)
	r := region.New(f, region.KindBasicBlock, b0.ID)
	g := buildGraph(t, f, r)
	s := ListSchedule(g, machine.FourU, depHeight)
	s.Cycle[g.NodeOf(ld).Index] = math.MaxInt
	if err := s.Verify(); err == nil || !strings.Contains(err.Error(), "violated") {
		t.Fatalf("Verify with the load at math.MaxInt: %v, want a violated edge", err)
	}
}

func TestScheduleRespectsWidth(t *testing.T) {
	f := ir.NewFunction("wide")
	b0 := f.NewBlock()
	r0 := f.NewReg(ir.ClassGPR)
	// Eight independent ops: on a 4-wide machine they need 2 cycles; on a
	// 1-wide machine, 8.
	for i := 0; i < 8; i++ {
		f.EmitALU(b0, ir.Add, f.NewReg(ir.ClassGPR), r0, r0)
	}
	f.EmitRet(b0)
	r := region.New(f, region.KindBasicBlock, b0.ID)
	g := buildGraph(t, f, r)

	s4 := ListSchedule(g, machine.FourU, depHeight)
	if err := s4.Verify(); err != nil {
		t.Fatal(err)
	}
	// 8 adds in 2 cycles, Ret pinned after... Ret has op->term lat-0 edges,
	// so it can share the last cycle if a slot is free; 8 adds fill exactly
	// 2 rows, Ret goes in row 2 (or later).
	if s4.Length > 3 {
		t.Fatalf("4U length = %d, want <= 3", s4.Length)
	}

	s1 := ListSchedule(g, machine.Scalar, depHeight)
	if err := s1.Verify(); err != nil {
		t.Fatal(err)
	}
	if s1.Length < 9 {
		t.Fatalf("1U length = %d, want >= 9", s1.Length)
	}
}

func TestScheduleSpeculatesAcrossPaths(t *testing.T) {
	// Treegion with two arms of independent work: a wide machine should
	// hoist ops from both arms beside the root's work.
	f := ir.NewFunction("spec")
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	r0, r1 := ir.GPR(0), ir.GPR(1)
	f.NoteReg(r0)
	f.NoteReg(r1)
	p := f.NewReg(ir.ClassPred)
	f.EmitCmpp(b0, p, ir.NoReg, ir.CondGT, r0, r1)
	f.EmitBrct(b0, ir.NoReg, p, b1.ID, 0.5)
	b0.FallThrough = b2.ID
	for i := 0; i < 3; i++ {
		f.EmitALU(b1, ir.Add, f.NewReg(ir.ClassGPR), r0, r1)
		f.EmitALU(b2, ir.Sub, f.NewReg(ir.ClassGPR), r0, r1)
	}
	b1.FallThrough = b3.ID
	b2.FallThrough = b3.ID
	f.EmitRet(b3)
	r := region.New(f, region.KindTreegion, b0.ID)
	r.Add(b1.ID, b0.ID)
	r.Add(b2.ID, b0.ID)
	g := buildGraph(t, f, r)
	s := ListSchedule(g, machine.EightU, depHeight)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := s.SpeculatedAbove(); got < 4 {
		t.Fatalf("SpeculatedAbove = %d, want most arm ops hoisted", got)
	}
	// All 6 arm ops plus the compare fit beside each other: the branch
	// resolves at cycle 1, so the whole region fits in 2-3 cycles.
	if s.Length > 3 {
		t.Fatalf("8U treegion length = %d, want <= 3\n%s", s.Length, s)
	}
}

func TestSchedulerDeterministic(t *testing.T) {
	f := ir.NewFunction("det")
	b0 := f.NewBlock()
	r0 := f.NewReg(ir.ClassGPR)
	for i := 0; i < 10; i++ {
		f.EmitALU(b0, ir.Add, f.NewReg(ir.ClassGPR), r0, r0)
	}
	f.EmitRet(b0)
	r := region.New(f, region.KindBasicBlock, b0.ID)
	g := buildGraph(t, f, r)
	a := ListSchedule(g, machine.FourU, depHeight)
	b := ListSchedule(g, machine.FourU, depHeight)
	for i := range a.Cycle {
		if a.Cycle[i] != b.Cycle[i] {
			t.Fatal("nondeterministic schedule")
		}
	}
}

func TestEmptyRegion(t *testing.T) {
	f := ir.NewFunction("empty")
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b0.FallThrough = b1.ID
	f.EmitRet(b1)
	r := region.New(f, region.KindBasicBlock, b0.ID)
	g := buildGraph(t, f, r)
	s := ListSchedule(g, machine.FourU, depHeight)
	if s.Length != 0 {
		t.Fatalf("empty block schedule length = %d", s.Length)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// The big integration property: every region former × every heuristic ×
// both machines produces schedules that pass the checker, on every suite
// program.
func TestAllSchedulesValidOnSuite(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	models := []machine.Model{machine.FourU, machine.EightU}
	for _, prog := range progs[:3] { // compress, gcc, go — keep runtime sane
		for fi, origFn := range prog.Funcs {
			if fi > 1 {
				break
			}
			for _, former := range []string{"bb", "slr", "tree", "sb", "treetd"} {
				fn := origFn.Clone()
				prof, err := interp.Profile(fn, 21, 30, interp.Config{})
				if err != nil {
					t.Fatal(err)
				}
				g := cfg.New(fn)
				var regions []*region.Region
				domPar := false
				switch former {
				case "bb":
					regions = linear.BasicBlocks(fn)
				case "slr":
					regions = linear.SLRs(fn, g, prof)
				case "tree":
					regions = core.Form(fn, g)
				case "sb":
					regions = linear.Superblocks(fn, prof, linear.DefaultSuperblockConfig())
				case "treetd":
					regions = core.FormTD(fn, prof, core.DefaultTDConfig())
					domPar = true
				}
				if err := region.CheckPartition(fn, regions); err != nil {
					t.Fatalf("%s/%s/%s: %v", prog.Name, fn.Name, former, err)
				}
				lv := cfg.ComputeLiveness(cfg.New(fn))
				for _, r := range regions {
					dg, err := ddg.Build(fn, r, ddg.Options{
						Rename:               true,
						DominatorParallelism: domPar,
						Liveness:             lv,
						Profile:              prof,
					})
					if err != nil {
						t.Fatal(err)
					}
					for _, h := range core.Heuristics() {
						for _, m := range models {
							s := ListSchedule(dg, m, h.Keys)
							if err := s.Verify(); err != nil {
								t.Fatalf("%s/%s former=%s h=%v m=%s: %v",
									prog.Name, fn.Name, former, h, m.Name, err)
							}
						}
					}
				}
			}
		}
	}
}
