// Package sched list schedules a region's DDG onto a VLIW machine model
// (step 3 of the paper's Fig. 3 algorithm). The scheduler is cycle-driven:
// at each cycle it fills up to issue-width slots with ready ops, picking by
// the static priority order the chosen heuristic produced. Speculation is
// implicit — ops without control edges simply become ready early and float
// above branches.
package sched

import (
	"fmt"
	"slices"
	"time"

	"treegion/internal/ddg"
	"treegion/internal/ir"
	"treegion/internal/machine"
	"treegion/internal/telemetry"
)

// PriorityFn produces a node's static sort keys, most significant first;
// nodes are ordered by descending keys (ties by node index, which follows
// region preorder, keeping schedules deterministic).
type PriorityFn func(*ddg.Node) [3]float64

// Schedule is the placement of every DDG node into a cycle.
type Schedule struct {
	Graph *ddg.Graph
	Model machine.Model
	// Cycle[i] is the issue cycle of node with Index i.
	Cycle []int
	// Length is the total schedule length in cycles.
	Length int
}

// Scratch holds the scheduler's per-call working set. A caller that owns a
// Scratch (every compile owns one through its eval.Arena) reuses the
// buffers across every region it schedules via ListScheduleScratch;
// ListSchedule schedules on a fresh one.
//
// The ready queues are hierarchical CLZ bitmaps over the rank space (see
// bitq.go): qcur/qnext share one word slab, the calendar's buckets another.
// Both slabs rely on the drain invariant — every completed schedule leaves
// all queues empty, so the slabs are all-zero between calls and reset never
// sweeps them. qdirty guards the one exception: a call that panicked midway
// (the pipeline recovers per-function and reuses the worker's arena) leaves
// bits behind, so the next reset clears the slabs explicitly.
type Scratch struct {
	order    []*ddg.Node
	keys     [][3]float64
	rankOf   []int32
	preds    []int32
	earliest []int32

	qcur    bitq     // ranks eligible in the current sweep
	qnext   bitq     // ranks readied behind the sweep position
	qcal    calendar // not-yet-eligible ranks bucketed by earliest
	qslab   []uint64 // backing words for qcur and qnext
	calslab []uint64 // backing words for the calendar buckets
	qdirty  bool

	occ telemetry.ReadyOccupancySample
}

func (sc *Scratch) reset(n int) {
	if cap(sc.order) < n {
		sc.order = make([]*ddg.Node, n)
		sc.keys = make([][3]float64, n)
		sc.rankOf = make([]int32, n)
		sc.preds = make([]int32, n)
		sc.earliest = make([]int32, n)
	}
	sc.order = sc.order[:n]
	sc.keys = sc.keys[:n]
	sc.rankOf = sc.rankOf[:n]
	sc.preds = sc.preds[:n]
	sc.earliest = sc.earliest[:n]
	for i := 0; i < n; i++ {
		sc.earliest[i] = 0
	}
}

// resetQueues carves the cur/next bitmaps and the calendar for a rank space
// of n and a maximum edge latency of maxLat, growing the slabs on first use
// or when a region outgrows them. Steady state allocates nothing: the slabs
// are already zero (drain invariant) and the carves only re-point slices.
func (sc *Scratch) resetQueues(n, maxLat int) {
	lvl, depth, per := bitqSize(n)
	w := 1
	for w < maxLat+1 {
		w <<= 1
	}
	if w > 64 {
		panic(fmt.Sprintf("sched: edge latency %d exceeds the calendar's 63-cycle capacity", maxLat))
	}

	if need := 2 * per; cap(sc.qslab) < need {
		sc.qslab = make([]uint64, need)
	} else {
		sc.qslab = sc.qslab[:need]
	}
	if need := w * per; cap(sc.calslab) < need {
		sc.calslab = make([]uint64, need)
	} else {
		sc.calslab = sc.calslab[:need]
	}
	if cap(sc.qcal.buckets) < w {
		sc.qcal.buckets = make([]bitq, w)
	}
	sc.qcal.buckets = sc.qcal.buckets[:w]
	if sc.qdirty {
		clear(sc.qslab[:cap(sc.qslab)])
		clear(sc.calslab[:cap(sc.calslab)])
	}
	sc.qdirty = true

	off := sc.qcur.carve(sc.qslab, 0, lvl, depth)
	sc.qnext.carve(sc.qslab, off, lvl, depth)
	sc.qcal.w, sc.qcal.mask, sc.qcal.n, sc.qcal.occ = int32(w), int32(w-1), 0, 0
	off = 0
	for b := 0; b < w; b++ {
		off = sc.qcal.buckets[b].carve(sc.calslab, off, lvl, depth)
	}
}

// prioritize fills sc.order with g.Nodes in static priority order and
// sc.rankOf with each node's resulting rank. Terminators always sort
// first: a branch gates every exit below it, predicated branches pack
// several to a cycle, and delaying one delays a whole path — so they issue
// as soon as their predicate is ready, and the heuristic orders the real
// ops. (The paper's example schedules likewise issue every branch at its
// earliest possible cycle.)
func prioritize(g *ddg.Graph, prio PriorityFn, sc *Scratch) {
	order := sc.order
	copy(order, g.Nodes)
	keys := sc.keys
	for _, nd := range g.Nodes {
		keys[nd.Index] = prio(nd)
	}
	// The Index tiebreak makes the comparison a total order, so the
	// unstable sort returns the same permutation a stable one would —
	// at pdqsort speed rather than symmerge. The sort is over half the
	// scheduler's time on stress-tier regions.
	slices.SortFunc(order, func(a, b *ddg.Node) int {
		if a.Term != b.Term {
			if a.Term {
				return -1
			}
			return 1
		}
		ka, kb := keys[a.Index], keys[b.Index]
		for k := 0; k < 3; k++ {
			if ka[k] != kb[k] {
				if ka[k] > kb[k] {
					return -1
				}
				return 1
			}
		}
		return a.Index - b.Index
	})
	for rank, nd := range order {
		sc.rankOf[nd.Index] = int32(rank)
	}
}

// ListSchedule builds the schedule on a fresh Scratch. It never fails: the
// DDG is acyclic by construction (node order is topological).
func ListSchedule(g *ddg.Graph, m machine.Model, prio PriorityFn) *Schedule {
	return ListScheduleScratch(g, m, prio, nil, new(Scratch))
}

// ListScheduleScratch is ListSchedule scheduling into a caller-owned
// Scratch and recording the priority sort and the scheduling loop as
// separate phases on tr (nil disables tracing). A compile that schedules
// many regions back to back passes the same Scratch every time.
//
// The ready queue is a trio of hierarchical CLZ bitmaps over the static
// rank order (bitq.go), engineered to reproduce the classic sweep
// scheduler op for op:
//
//   - cur holds the ranks eligible in the current sweep; popping the
//     minimum visits ready nodes in exactly the order a linear scan of the
//     rank array would.
//   - A node readied by a latency-0 edge joins cur only if its rank lies
//     ahead of the sweep position (the last rank popped); otherwise the
//     scan has already passed it, and it goes to next — the following
//     sweep of the same cycle, which starts when cur drains.
//   - Nodes ready but with earliest-issue beyond the current cycle wait in
//     the calendar bucketed by earliest; when nothing is eligible the
//     cycle jumps straight to the minimum pending earliest (one CLZ).
//
// Every pop therefore yields precisely the node the classic sweep scheduler
// would have picked next, at the same cycle — schedules are byte-identical
// (refListSchedule in the tests is the differential witness) — but each
// readiness event costs O(1).
func ListScheduleScratch(g *ddg.Graph, m machine.Model, prio PriorityFn, tr *telemetry.CompileTrace, sc *Scratch) *Schedule {
	n := len(g.Nodes)
	s := &Schedule{Graph: g, Model: m, Cycle: make([]int, n)}
	if n == 0 {
		return s
	}
	t0 := time.Now()
	sc.reset(n)
	prioritize(g, prio, sc)
	tr.Observe(telemetry.PhasePrioritySort, time.Since(t0), n)

	t0 = time.Now()
	order := sc.order
	rankOf, preds, earliest := sc.rankOf, sc.preds, sc.earliest
	maxLat := 0
	for _, nd := range g.Nodes {
		preds[nd.Index] = int32(len(nd.Preds))
		for _, e := range nd.Succs {
			if e.Latency > maxLat {
				maxLat = e.Latency
			}
		}
	}
	sc.resetQueues(n, maxLat)
	cur, next, cal := &sc.qcur, &sc.qnext, &sc.qcal
	for _, nd := range g.Nodes {
		if preds[nd.Index] == 0 {
			cur.insert(rankOf[nd.Index])
		}
	}

	remaining := n
	cycle := int32(0)
	for remaining > 0 {
		// A new cycle starts a fresh sweep: everything ready is eligible.
		next.drainInto(cur)
		cal.drainDue(cycle, cur)
		if cur.n == 0 {
			// Nothing eligible: jump to the next cycle at which something
			// becomes ready.
			cycle = cal.nextEarliest(cycle)
			continue
		}
		sc.occ.Observe(int(cur.n))
		slots := m.IssueWidth
		lastPopped := int32(-1)
		for slots > 0 {
			if cur.n == 0 {
				if next.n == 0 {
					break
				}
				// The sweep passed some nodes that became ready behind it;
				// rescan from the top (same cycle, fresh sweep).
				next.drainInto(cur)
				lastPopped = -1
				continue
			}
			rank := cur.popMin()
			nd := order[rank]
			i := nd.Index
			s.Cycle[i] = int(cycle)
			remaining--
			if !nd.IsCopy() {
				// Renaming copies ride free: the paper excludes copy
				// Ops from its speedup accounting (a copy-coalescing
				// phase or spare move capacity is assumed), so they
				// must not crowd real ops out of issue slots either.
				slots--
			}
			lastPopped = rank
			for _, e := range nd.Succs {
				j := e.To.Index
				preds[j]--
				if t := cycle + int32(e.Latency); t > earliest[j] {
					earliest[j] = t
				}
				if preds[j] == 0 {
					switch {
					case earliest[j] > cycle:
						cal.insert(earliest[j], rankOf[j])
					case rankOf[j] > lastPopped:
						cur.insert(rankOf[j])
					default:
						next.insert(rankOf[j])
					}
				}
			}
		}
		cycle++
	}
	// Every node issued, so every queue drained back to empty: the slabs are
	// all-zero again and the next reset can skip sweeping them.
	sc.qdirty = false
	sc.occ.Flush()

	for _, nd := range g.Nodes {
		if c := s.Cycle[nd.Index] + 1; c > s.Length {
			s.Length = c
		}
	}
	tr.Observe(telemetry.PhaseListSched, time.Since(t0), n)
	return s
}

// Verify checks the schedule against every DDG edge and the machine's issue
// width. It returns the first violation, or nil.
func (s *Schedule) Verify() error {
	perCycle := make([]int, s.Length)
	for _, nd := range s.Graph.Nodes {
		c := s.Cycle[nd.Index]
		if c < 0 {
			return fmt.Errorf("sched: node %d (%v) unscheduled", nd.Index, nd.Op)
		}
		if !nd.IsCopy() && c < len(perCycle) { // copies are slot-free (see ListSchedule)
			perCycle[c]++
		}
		for _, e := range nd.Succs {
			if s.Cycle[e.To.Index] < c+e.Latency {
				return fmt.Errorf("sched: edge %v -> %v violated: %d -> %d (lat %d)",
					nd.Op, e.To.Op, c, s.Cycle[e.To.Index], e.Latency)
			}
		}
	}
	for c, k := range perCycle {
		if k > s.Model.IssueWidth {
			return fmt.Errorf("sched: cycle %d issues %d ops on a %d-wide machine", c, k, s.Model.IssueWidth)
		}
	}
	return nil
}

// SpeculatedAbove counts the ops placed at cycles earlier than some branch
// of an ancestor block — the amount of speculation the schedule performs.
// Renaming copies are not counted.
func (s *Schedule) SpeculatedAbove() int {
	r := s.Graph.Region
	// Latest terminator cycle per member block, by preorder position
	// (-1 = no terminator).
	lastTerm := make([]int, len(r.Blocks))
	for i := range lastTerm {
		lastTerm[i] = -1
	}
	for _, nd := range s.Graph.Nodes {
		if p := r.Pos(nd.Home); nd.Term && s.Cycle[nd.Index] > lastTerm[p] {
			lastTerm[p] = s.Cycle[nd.Index]
		}
	}
	count := 0
	for _, nd := range s.Graph.Nodes {
		if nd.Term || nd.IsCopy() {
			continue
		}
		for anc := r.Parent(nd.Home); anc != ir.NoBlock; anc = r.Parent(anc) {
			if tc := lastTerm[r.Pos(anc)]; tc >= 0 && s.Cycle[nd.Index] < tc {
				count++
				break
			}
		}
	}
	return count
}

// String renders the schedule as MultiOp rows.
func (s *Schedule) String() string {
	rows := make([][]*ddg.Node, s.Length)
	for _, nd := range s.Graph.Nodes {
		c := s.Cycle[nd.Index]
		rows[c] = append(rows[c], nd)
	}
	out := ""
	for c, row := range rows {
		out += fmt.Sprintf("%3d:", c)
		for _, nd := range row {
			out += fmt.Sprintf("  [bb%d] %v", nd.Home, nd.Op)
		}
		out += "\n"
	}
	return out
}
