package sched

import (
	"math/rand"
	"testing"

	"treegion/internal/ddg"
	"treegion/internal/ir"
	"treegion/internal/machine"
)

// Unit tests for the hierarchical bitmap queue and the calendar, plus the
// adversarial rank-space shapes that stress their boundaries: rank values
// straddling level-0 and level-1 word seams, every pending node landing in
// one calendar bucket, and latency-0 chains that maximize next-queue
// traffic. Each adversarial graph is scheduled by the production bitmap
// path and by the sweep reference (refListSchedule), which must agree node
// for node.

// testBitq carves a queue for a rank space of n out of a fresh slab.
func testBitq(n int) *bitq {
	lvl, depth, total := bitqSize(n)
	q := &bitq{}
	q.carve(make([]uint64, total), 0, lvl, depth)
	return q
}

func TestBitqSize(t *testing.T) {
	cases := []struct {
		n, depth, w0 int
	}{
		{0, 1, 1},
		{1, 1, 1},
		{64, 1, 1},
		{65, 2, 2},
		{4096, 2, 64},
		{4097, 3, 65},
		{262144, 3, 4096},
		{262145, 4, 4097},
	}
	for _, c := range cases {
		lvl, depth, _ := bitqSize(c.n)
		if depth != c.depth || lvl[0] != c.w0 {
			t.Errorf("bitqSize(%d) = depth %d, lvl0 %d words; want %d, %d",
				c.n, depth, lvl[0], c.depth, c.w0)
		}
		if lvl[depth-1] != 1 {
			t.Errorf("bitqSize(%d): top level has %d words, want 1", c.n, lvl[depth-1])
		}
	}
}

// TestBitqPopOrder inserts ranks in shuffled order and pops them back; the
// sequence must come out sorted regardless of word seams. The rank set
// deliberately clusters around the 63/64/65 and 4095/4096/4097 boundaries.
func TestBitqPopOrder(t *testing.T) {
	ranks := []int32{0, 1, 62, 63, 64, 65, 126, 127, 128, 129,
		4094, 4095, 4096, 4097, 5000, 8191}
	n := 8192
	q := testBitq(n)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(ranks))
		for _, i := range perm {
			q.insert(ranks[i])
		}
		if int(q.n) != len(ranks) {
			t.Fatalf("population %d after %d inserts", q.n, len(ranks))
		}
		for i := 0; i < len(ranks); i++ {
			if got := q.popMin(); got != ranks[i] {
				t.Fatalf("trial %d: pop %d = rank %d, want %d", trial, i, got, ranks[i])
			}
		}
		if q.n != 0 {
			t.Fatalf("population %d after draining", q.n)
		}
		for l := 0; l < int(q.depth); l++ {
			for w, v := range q.lvl[l] {
				if v != 0 {
					t.Fatalf("level %d word %d nonzero (%#x) after drain", l, w, v)
				}
			}
		}
	}
}

// TestBitqDrainInto checks the word-granular bulk move, including the case
// where source and destination share populated words.
func TestBitqDrainInto(t *testing.T) {
	n := 300
	src, dst := testBitq(n), testBitq(n)
	for r := int32(0); r < 300; r += 3 {
		src.insert(r)
	}
	for r := int32(1); r < 300; r += 3 {
		dst.insert(r)
	}
	src.drainInto(dst)
	if src.n != 0 {
		t.Fatalf("source population %d after drain", src.n)
	}
	want := int32(0)
	for got, step := dst.popMin(), 0; ; step++ {
		if got != want {
			t.Fatalf("pop %d = rank %d, want %d", step, got, want)
		}
		if want += 1; want%3 == 2 {
			want++ // ranks ≡ 2 (mod 3) were never inserted
		}
		if want >= 300 {
			break
		}
		got = dst.popMin()
	}
}

// TestCalendarWindow exercises the bucket ring at several widths, checking
// that drainDue returns exactly the ranks filed for the cycle and that
// nextEarliest jumps over arbitrary gaps — including the wrap-around where
// the pending earliest's bucket sits before cycle+1 in ring order.
func TestCalendarWindow(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16, 64} {
		lvl, depth, per := bitqSize(128)
		slab := make([]uint64, per*w)
		cal := &calendar{buckets: make([]bitq, w), w: int32(w), mask: int32(w - 1)}
		off := 0
		for b := 0; b < w; b++ {
			off = cal.buckets[b].carve(slab, off, lvl, depth)
		}
		dst := testBitq(128)

		// File three ranks at earliest = 5, one at earliest = 5+w-1 (the
		// far edge of the window a scheduler at cycle 5 could produce).
		cal.insert(5, 7)
		cal.insert(5, 64)
		cal.insert(5, 127)
		far := int32(5 + w - 1)
		if w > 1 {
			cal.insert(far, 9)
		}
		if got := cal.nextEarliest(4); got != 5 {
			t.Fatalf("w=%d: nextEarliest(4) = %d, want 5", w, got)
		}
		cal.drainDue(5, dst)
		if dst.n != 3 {
			t.Fatalf("w=%d: drained %d ranks at cycle 5, want 3", w, dst.n)
		}
		for _, want := range []int32{7, 64, 127} {
			if got := dst.popMin(); got != want {
				t.Fatalf("w=%d: drained rank %d, want %d", w, got, want)
			}
		}
		if w > 1 {
			if got := cal.nextEarliest(5); got != far {
				t.Fatalf("w=%d: nextEarliest(5) = %d, want %d", w, got, far)
			}
			cal.drainDue(far, dst)
			if got := dst.popMin(); got != 9 {
				t.Fatalf("w=%d: far bucket drained rank %d, want 9", w, got)
			}
		}
		if cal.n != 0 || cal.occ != 0 {
			t.Fatalf("w=%d: calendar not empty after draining (n=%d occ=%#x)",
				w, cal.n, cal.occ)
		}
	}
}

// synthNode builds a node with the given index; rank order follows index
// order under synthPrio.
func synthNode(i int) *ddg.Node {
	return &ddg.Node{Index: i, Op: &ir.Op{Opcode: ir.Add}}
}

// synthPrio makes rank equal to node index (higher key sorts first).
func synthPrio(n int) PriorityFn {
	return func(nd *ddg.Node) [3]float64 {
		return [3]float64{float64(n - nd.Index), 0, 0}
	}
}

// synthEdge wires from→to with the given latency.
func synthEdge(from, to *ddg.Node, lat int) {
	from.Succs = append(from.Succs, ddg.Edge{To: to, Latency: lat, Kind: ddg.EdgeData})
}

// assertSameSchedule schedules g with the bitmap production path and the
// sweep reference and requires cycle-for-cycle agreement.
func assertSameSchedule(t *testing.T, name string, g *ddg.Graph, m machine.Model, prio PriorityFn) {
	t.Helper()
	got := ListSchedule(g, m, prio)
	want := refListSchedule(g, m, prio)
	if got.Length != want.Length {
		t.Fatalf("%s: length %d, reference %d", name, got.Length, want.Length)
	}
	for i := range want.Cycle {
		if got.Cycle[i] != want.Cycle[i] {
			t.Fatalf("%s: node %d at cycle %d, reference %d",
				name, i, got.Cycle[i], want.Cycle[i])
		}
	}
}

// TestAdversarialWordSeams schedules independent nodes whose ranks straddle
// the level-0 word seam (63/64/65) and, at 4096+ nodes, the level-1 seam,
// on a narrow machine so pops repeatedly cross the boundaries.
func TestAdversarialWordSeams(t *testing.T) {
	for _, n := range []int{66, 130, 4100} {
		g := &ddg.Graph{Nodes: make([]*ddg.Node, n)}
		for i := 0; i < n; i++ {
			g.Nodes[i] = synthNode(i)
		}
		// A sparse latency lattice keeps the ready set hovering around the
		// seams instead of draining monotonically.
		for i := 0; i+64 < n; i += 64 {
			synthEdge(g.Nodes[i], g.Nodes[i+64], 3)
		}
		for i := 1; i+63 < n; i += 64 {
			synthEdge(g.Nodes[i], g.Nodes[i+63], 1)
		}
		for _, m := range []machine.Model{{Name: "2U", IssueWidth: 2}, machine.FourU} {
			assertSameSchedule(t, "seams", g, m, synthPrio(n))
		}
	}
}

// TestAdversarialOneBucket funnels every successor through a single
// latency: one root fans out to hundreds of dependents that all become
// pending with the same earliest cycle, so the whole batch lands in one
// calendar bucket and must drain whole.
func TestAdversarialOneBucket(t *testing.T) {
	n := 400
	g := &ddg.Graph{Nodes: make([]*ddg.Node, n)}
	for i := 0; i < n; i++ {
		g.Nodes[i] = synthNode(i)
	}
	for i := 1; i < n; i++ {
		synthEdge(g.Nodes[0], g.Nodes[i], 9) // FDiv-class latency
	}
	assertSameSchedule(t, "one-bucket", g, machine.FourU, synthPrio(n))
}

// TestAdversarialZeroLatencyChain builds a latency-0 chain running against
// rank order: scheduling node i makes node i+1 ready in the same cycle at a
// LOWER rank than the sweep position, which is exactly the case that routes
// through the next queue and forces a same-cycle rescan.
func TestAdversarialZeroLatencyChain(t *testing.T) {
	n := 200
	g := &ddg.Graph{Nodes: make([]*ddg.Node, n)}
	for i := 0; i < n; i++ {
		g.Nodes[i] = synthNode(i)
	}
	// prio reverses index order, so the chain head has the highest rank and
	// each enabled successor sorts before the position just popped.
	prio := func(nd *ddg.Node) [3]float64 {
		return [3]float64{float64(nd.Index), 0, 0}
	}
	for i := 0; i+1 < n; i++ {
		synthEdge(g.Nodes[i], g.Nodes[i+1], 0)
	}
	for _, m := range []machine.Model{machine.Scalar, machine.FourU, machine.SixteenU} {
		assertSameSchedule(t, "zero-latency-chain", g, m, prio)
	}
}

// TestScheduleZeroSteadyStateAllocs proves the queue operations allocate
// nothing once the scratch is warm: a full schedule call allocates exactly
// its result (the Schedule header and its Cycle slice).
func TestScheduleZeroSteadyStateAllocs(t *testing.T) {
	n := 500
	g := &ddg.Graph{Nodes: make([]*ddg.Node, n)}
	for i := 0; i < n; i++ {
		g.Nodes[i] = synthNode(i)
	}
	for i := 0; i+1 < n; i += 2 {
		synthEdge(g.Nodes[i], g.Nodes[i+1], 2)
	}
	prio := synthPrio(n)
	var sc Scratch
	ListScheduleScratch(g, machine.FourU, prio, nil, &sc) // warm the slabs
	allocs := testing.AllocsPerRun(20, func() {
		ListScheduleScratch(g, machine.FourU, prio, nil, &sc)
	})
	if allocs > 2 {
		t.Fatalf("schedule call allocates %.0f objects steady-state, want ≤ 2 (result only)", allocs)
	}
}
