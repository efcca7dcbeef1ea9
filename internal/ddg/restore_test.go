package ddg

import (
	"math"
	"testing"

	"treegion/internal/ir"
)

// TestRestoreEdgeRange: RestoreScratch installs records whose indices name
// nodes of the graph, in list order, and refuses any other, negative ones
// included: a stored u32 index of 2^31 or above decodes to a negative
// int32, and must read as a corrupt entry rather than index the slab.
func TestRestoreEdgeRange(t *testing.T) {
	var sc Scratch
	nodes := func() []Node { return []Node{{Op: &ir.Op{}}, {Op: &ir.Op{}}} }
	edges := sc.EdgeRecs(2)
	edges[0] = EdgeRec{From: 0, To: 1, Latency: 2, Kind: EdgeData}
	edges[1] = EdgeRec{From: 0, To: 1, Latency: 1, Kind: EdgeMem}
	g, err := RestoreScratch(nil, nil, nodes(), edges, 0, 0, 0, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if s := g.Nodes[0].Succs; len(s) != 2 || s[0].To != g.Nodes[1] || s[0].Latency != 2 || s[1].Kind != EdgeMem {
		t.Fatalf("node 0's successors %+v, want the two records in order", s)
	}
	for _, e := range []EdgeRec{
		{From: -1, To: 0},
		{From: 0, To: -1},
		{From: math.MinInt32, To: 1},
		{From: 2, To: 0},
		{From: 0, To: 2},
	} {
		edges := sc.EdgeRecs(1)
		edges[0] = e
		if _, err := RestoreScratch(nil, nil, nodes(), edges, 0, 0, 0, &sc); err == nil {
			t.Errorf("edge %d->%d restored over 2 nodes", e.From, e.To)
		}
	}
}
