package ddg

import (
	"testing"

	"treegion/internal/ir"
)

// sameGraph reports the first difference between two graphs of identically
// built functions: node order, op identity, homes, flags and edges.
func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) || got.NumMerged != want.NumMerged || got.NumRenamed != want.NumRenamed {
		t.Fatalf("got %d nodes (merged %d, renamed %d), want %d (merged %d, renamed %d)",
			len(got.Nodes), got.NumMerged, got.NumRenamed, len(want.Nodes), want.NumMerged, want.NumRenamed)
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.Op.ID != w.Op.ID || g.Home != w.Home || g.Spec != w.Spec || g.Term != w.Term || len(g.Succs) != len(w.Succs) {
			t.Fatalf("node %d: got op %d home bb%d spec %t (%d succs), want op %d home bb%d spec %t (%d succs)",
				i, g.Op.ID, g.Home, g.Spec, len(g.Succs), w.Op.ID, w.Home, w.Spec, len(w.Succs))
		}
		for j, e := range g.Succs {
			if f := w.Succs[j]; e.To.Index != f.To.Index || e.Latency != f.Latency || e.Kind != f.Kind {
				t.Fatalf("node %d succ %d: got ->%d lat %d %v, want ->%d lat %d %v",
					i, j, e.To.Index, e.Latency, e.Kind, f.To.Index, f.Latency, f.Kind)
			}
		}
	}
}

// TestScratchRecoversFromAbandonedBuild: a build that panics midway (the
// pipeline recovers per function and keeps the worker's arena) leaves op
// marks and register numbers behind, because finish never ran. The next
// build on that scratch must sweep them and match a build on a fresh
// scratch — here of an identical function, whose op IDs and registers the
// stale entries alias exactly.
func TestScratchRecoversFromAbandonedBuild(t *testing.T) {
	var sc Scratch
	f0, r0, lv0, d1, d2 := dupTree(t, false)
	opts := Options{Rename: true, DominatorParallelism: true, Liveness: lv0}
	sc.begin(&Graph{Fn: f0, Region: r0}, opts)
	cmpp := f0.Block(0).Ops[0]
	sc.setHome(cmpp, 1) // would make the compare vanish from bb0
	sc.setPinned(d1)
	sc.setGone(d2)
	sc.number(ir.GPR(1))
	// No finish: the build is abandoned.

	f1, r1, lv1, _, _ := dupTree(t, false)
	want, err := Build(f1, r1, Options{Rename: true, DominatorParallelism: true, Liveness: lv1})
	if err != nil {
		t.Fatal(err)
	}
	f2, r2, lv2, _, _ := dupTree(t, false)
	got, err := BuildScratch(f2, r2, Options{Rename: true, DominatorParallelism: true, Liveness: lv2}, &sc)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, got, want)
}
