package verify_test

import (
	"math/rand"
	"reflect"
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/eval"
	"treegion/internal/ir"
	"treegion/internal/progen"
	"treegion/internal/sched"
	"treegion/internal/verify"
)

// TestCheckScheduleMatchesReference is the differential witness for the
// slot-table path walk: every region of the suite, compiled as treegions,
// tail-duplicated treegions, basic blocks and if-converted treegions
// (guarded definitions join instead of killing), is checked as scheduled,
// under seeded cycle perturbations, and with a seeded register collision,
// and CheckSchedule must return the reference's exact diagnostics.
func TestCheckScheduleMatchesReference(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	td := eval.DefaultConfig()
	td.Kind = eval.TreegionTD
	td.DominatorParallelism = true
	bb := eval.DefaultConfig()
	bb.Kind = eval.BasicBlocks
	ifc := eval.DefaultConfig()
	ifc.IfConvert = true
	configs := []struct {
		name string
		c    eval.Config
	}{{"tree", eval.DefaultConfig()}, {"tree-td", td}, {"bb", bb}, {"tree-ifconvert", ifc}}
	rng := rand.New(rand.NewSource(15))
	cases, reporting := 0, 0
	for _, p := range progs {
		profs, err := eval.ProfileProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, config := range configs {
			res, err := eval.CompileProgram(p, profs, config.c)
			if err != nil {
				t.Fatal(err)
			}
			for _, fr := range res.Funcs {
				lv := cfg.ComputeLiveness(cfg.New(fr.Fn))
				for i, s := range fr.Schedules {
					r := fr.Regions[i]
					for variant := 0; variant < 4; variant++ {
						ps, restore := s, func() {}
						switch variant {
						case 1, 2:
							ps = perturb(s, rng)
						case 3:
							restore = collide(s, rng)
						}
						got := verify.CheckSchedule(fr.Fn, r, ps, lv)
						want := verify.RefCheckSchedule(fr.Fn, r, ps, lv)
						restore()
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s region bb%d variant %d:\n got %v\nwant %v",
								config.name, fr.Fn.Name, r.Root, variant, got, want)
						}
						cases++
						if len(want) > 0 {
							reporting++
						}
					}
				}
			}
		}
	}
	if reporting*4 < cases {
		t.Fatalf("only %d of %d cases report; the corruptions are too weak", reporting, cases)
	}
	t.Logf("%d cases, %d with findings", cases, reporting)
}

// perturb returns a copy of s with a few nodes moved up to three cycles
// earlier or later, and now and then one left unscheduled.
func perturb(s *sched.Schedule, rng *rand.Rand) *sched.Schedule {
	out := *s
	out.Cycle = append([]int(nil), s.Cycle...)
	if len(out.Cycle) == 0 {
		return &out
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		i := rng.Intn(len(out.Cycle))
		c := out.Cycle[i] + rng.Intn(7) - 3
		if c < 0 {
			c = 0
		}
		if rng.Intn(20) == 0 {
			c = -1
		}
		out.Cycle[i] = c
	}
	return &out
}

// collide points two nodes' first destinations at a register a third node
// of the region reads or writes, so paths redefine a register their earlier
// ops already use, up to three times: the generated code defines each
// register once per path, and this is what exercises kills. The graph is
// left as built, and the returned func restores the ops.
func collide(s *sched.Schedule, rng *rand.Rand) (restore func()) {
	nodes := s.Graph.Nodes
	if len(nodes) == 0 {
		return func() {}
	}
	m := nodes[rng.Intn(len(nodes))].Op
	regs := append(append([]ir.Reg(nil), m.Srcs...), m.Dests...)
	if len(regs) == 0 {
		return func() {}
	}
	reg := regs[rng.Intn(len(regs))]
	var undo []func()
	for k := 0; k < 2; k++ {
		n := nodes[rng.Intn(len(nodes))].Op
		if len(n.Dests) == 0 {
			continue
		}
		old := n.Dests
		n.Dests = append([]ir.Reg{reg}, old[1:]...)
		undo = append(undo, func() { n.Dests = old })
	}
	return func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
}
