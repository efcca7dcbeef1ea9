package ddg

import (
	"fmt"

	"treegion/internal/ir"
	"treegion/internal/region"
)

// EdgeSpec is one serialized dependence edge between node indices.
type EdgeSpec struct {
	From, To int
	Latency  int
	Kind     EdgeKind
}

// RestoreScratch rebuilds a Graph from serialized parts. nodes is the
// graph's node slab, which the Graph adopts: each node carries what Build
// computed (Op, Home, Term, Spec, Height, ExitCount, Weight), and
// RestoreScratch sets Index to the node's position and Succs from edges.
// Edges are installed in list order, so successor order — which
// downstream consumers iterate — matches the graph that was saved. It
// validates ops and indices and returns an error on malformed input (a
// corrupt store entry must read as a miss, never crash or build a graph
// that panics later).
//
// The edge-record and counting buffers come from sc, mirroring
// Build/BuildScratch, so a caller reviving many schedules (the artifact
// store decodes every region of every function in a suite) allocates only
// what the graph retains. edges is not retained by the result.
func RestoreScratch(fn *ir.Function, r *region.Region, nodes []Node, edges []EdgeSpec, renamed, copies, merged int, sc *Scratch) (*Graph, error) {
	g := &Graph{
		Fn:         fn,
		Region:     r,
		Nodes:      make([]*Node, len(nodes)),
		NumRenamed: renamed,
		NumCopies:  copies,
		NumMerged:  merged,
	}
	for i := range nodes {
		n := &nodes[i]
		if n.Op == nil {
			return nil, fmt.Errorf("ddg: restore: node %d has no op", i)
		}
		n.Index = i
		g.Nodes[i] = n
	}
	recs := grow(sc.recs, len(edges))
	sc.recs = recs
	for i, e := range edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			return nil, fmt.Errorf("ddg: restore: edge %d->%d out of range (%d nodes)", e.From, e.To, len(g.Nodes))
		}
		recs[i] = edgeRec{from: int32(e.From), to: int32(e.To), lat: int32(e.Latency), kind: e.Kind}
	}
	sc.installEdges(g.Nodes, recs)
	return g, nil
}
