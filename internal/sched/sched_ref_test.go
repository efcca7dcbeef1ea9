package sched

import (
	"sort"
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/core"
	"treegion/internal/ddg"
	"treegion/internal/machine"
	"treegion/internal/progen"
)

// refListSchedule is the classic sweep scheduler, kept as the reference the
// bitmap-queue ListSchedule must reproduce cycle for cycle: each cycle
// rescans the full rank order until the issue slots fill or no more ops
// become same-cycle ready. It is the scheduler's only test oracle.
func refListSchedule(g *ddg.Graph, m machine.Model, prio PriorityFn) *Schedule {
	n := len(g.Nodes)
	s := &Schedule{Graph: g, Model: m, Cycle: make([]int, n)}
	if n == 0 {
		return s
	}
	order := make([]*ddg.Node, n)
	copy(order, g.Nodes)
	keys := make([][3]float64, n)
	for _, nd := range g.Nodes {
		keys[nd.Index] = prio(nd)
	}
	sort.SliceStable(order, func(i, j int) bool {
		ni, nj := order[i], order[j]
		if ni.Term != nj.Term {
			return ni.Term
		}
		a, b := keys[ni.Index], keys[nj.Index]
		for k := 0; k < 3; k++ {
			if a[k] != b[k] {
				return a[k] > b[k]
			}
		}
		return ni.Index < nj.Index
	})
	unscheduledPreds := make([]int, n)
	earliest := make([]int, n)
	for _, nd := range g.Nodes {
		unscheduledPreds[nd.Index] = len(nd.Preds)
	}
	scheduled := make([]bool, n)
	remaining := n
	cycle := 0
	for remaining > 0 {
		slots := m.IssueWidth
		progress := false
		for again := true; again && slots > 0; {
			again = false
			for _, nd := range order {
				if slots == 0 {
					break
				}
				i := nd.Index
				if scheduled[i] || unscheduledPreds[i] > 0 || earliest[i] > cycle {
					continue
				}
				s.Cycle[i] = cycle
				scheduled[i] = true
				remaining--
				if !nd.IsCopy() {
					slots--
				}
				progress = true
				for _, e := range nd.Succs {
					j := e.To.Index
					unscheduledPreds[j]--
					if t := cycle + e.Latency; t > earliest[j] {
						earliest[j] = t
					}
					if e.Latency == 0 {
						again = true
					}
				}
			}
		}
		if remaining == 0 {
			break
		}
		if !progress {
			next := -1
			for _, nd := range g.Nodes {
				i := nd.Index
				if scheduled[i] || unscheduledPreds[i] > 0 {
					continue
				}
				if next == -1 || earliest[i] < next {
					next = earliest[i]
				}
			}
			if next <= cycle {
				next = cycle + 1
			}
			cycle = next
			continue
		}
		cycle++
	}
	for _, nd := range g.Nodes {
		if c := s.Cycle[nd.Index] + 1; c > s.Length {
			s.Length = c
		}
	}
	return s
}

// TestListScheduleMatchesReference differentially checks the bitmap-queue
// scheduler against the reference sweep scheduler over every region of the
// benchmark suite, for all four heuristics and several machine widths.
// Schedules must match cycle for cycle.
func TestListScheduleMatchesReference(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) == 0 {
		t.Fatal("empty benchmark suite")
	}
	models := []machine.Model{machine.Scalar, machine.FourU, machine.EightU}
	regions := 0
	for _, p := range progs {
		for _, fn := range p.Funcs {
			f := fn.Clone() // renaming mutates; keep the suite pristine
			g := cfg.New(f)
			lv := cfg.ComputeLiveness(g)
			for _, r := range core.Form(f, g) {
				dg, err := ddg.Build(f, r, ddg.Options{Rename: true, Liveness: lv})
				if err != nil {
					t.Fatalf("%s/%s: %v", p.Name, f.Name, err)
				}
				regions++
				for _, h := range core.Heuristics() {
					prio := h.Keys
					for _, m := range models {
						got := ListSchedule(dg, m, prio)
						want := refListSchedule(dg, m, prio)
						if got.Length != want.Length {
							t.Fatalf("%s/%s root=bb%d %s %s: length %d, reference %d",
								p.Name, f.Name, r.Root, h, m.Name, got.Length, want.Length)
						}
						for i := range want.Cycle {
							if got.Cycle[i] != want.Cycle[i] {
								t.Fatalf("%s/%s root=bb%d %s %s: node %d (%v) at cycle %d, reference %d",
									p.Name, f.Name, r.Root, h, m.Name,
									i, dg.Nodes[i].Op, got.Cycle[i], want.Cycle[i])
							}
						}
						if err := got.Verify(); err != nil {
							t.Fatalf("%s/%s %s %s: %v", p.Name, f.Name, h, m.Name, err)
						}
					}
				}
			}
		}
	}
	if regions == 0 {
		t.Fatal("no regions exercised")
	}
}
