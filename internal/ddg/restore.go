package ddg

import (
	"fmt"

	"treegion/internal/ir"
	"treegion/internal/region"
)

// EdgeRecs returns sc's edge records resized to n, for a decoder to fill
// and pass to RestoreScratch. They stay sc's: the next call reuses them.
func (sc *Scratch) EdgeRecs(n int) []EdgeRec {
	sc.recs = grow(sc.recs, n)
	return sc.recs
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
// The counting buffers come from sc, mirroring Build/BuildScratch, and
// edges is typically sc.EdgeRecs, so a caller reviving many schedules (the
// artifact store decodes every region of every function in a suite)
// allocates only what the graph retains. edges is not retained by the
// result.
func RestoreScratch(fn *ir.Function, r *region.Region, nodes []Node, edges []EdgeRec, renamed, copies, merged int, sc *Scratch) (*Graph, error) {
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
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= len(nodes) || e.To < 0 || int(e.To) >= len(nodes) {
			return nil, fmt.Errorf("ddg: restore: edge %d->%d out of range (%d nodes)", e.From, e.To, len(nodes))
		}
	}
	sc.installEdges(g.Nodes, edges)
	return g, nil
}
