package ddg

import (
	"fmt"

	"treegion/internal/ir"
	"treegion/internal/region"
)

// NodeSpec is the serialized form of one Node: everything Build computed,
// minus the pointers that only make sense in-process. The artifact store
// persists schedules as (NodeSpec, EdgeSpec) lists and revives them with
// Restore.
type NodeSpec struct {
	// Op locates the node's op in the revived function.
	Op *ir.Op
	// Home is the block whose path the op belongs to (the common dominator
	// for merged ops, so it can differ from the op's physical block).
	Home      ir.BlockID
	Term      bool
	Spec      bool
	Height    int
	ExitCount int
	Weight    float64
}

// EdgeSpec is one serialized dependence edge between node indices.
type EdgeSpec struct {
	From, To int
	Latency  int
	Kind     EdgeKind
}

// Restore rebuilds a Graph from serialized parts. Node indices follow the
// order of nodes; edges are installed in list order, so successor order —
// which downstream consumers iterate — matches the graph that was saved.
// Restore validates indices and returns an error on malformed input (a
// corrupt store entry must read as a miss, never crash or build a graph
// that panics later).
func Restore(fn *ir.Function, r *region.Region, nodes []NodeSpec, edges []EdgeSpec, renamed, copies, merged int) (*Graph, error) {
	return RestoreScratch(fn, r, nodes, edges, renamed, copies, merged, new(Scratch))
}

// RestoreScratch is Restore with reusable working memory, mirroring
// Build/BuildScratch: the edge-record and counting buffers come from sc, so
// a caller reviving many schedules (the artifact store decodes every region
// of every function in a suite) allocates only what the graph retains.
// Neither nodes nor edges is retained by the result.
func RestoreScratch(fn *ir.Function, r *region.Region, nodes []NodeSpec, edges []EdgeSpec, renamed, copies, merged int, sc *Scratch) (*Graph, error) {
	g := &Graph{
		Fn:         fn,
		Region:     r,
		NumRenamed: renamed,
		NumCopies:  copies,
		NumMerged:  merged,
	}
	slab := make([]Node, len(nodes))
	g.Nodes = make([]*Node, 0, len(nodes))
	for i, spec := range nodes {
		if spec.Op == nil {
			return nil, fmt.Errorf("ddg: restore: node %d has no op", i)
		}
		n := &slab[i]
		n.Index = i
		n.Op = spec.Op
		n.Home = spec.Home
		n.Term = spec.Term
		n.Spec = spec.Spec
		n.Height = spec.Height
		n.ExitCount = spec.ExitCount
		n.Weight = spec.Weight
		g.Nodes = append(g.Nodes, n)
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
