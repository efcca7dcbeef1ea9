// Package cfg provides control-flow-graph analyses over ir.Functions:
// predecessor lists, reverse postorder, liveness, merge points and back-edge
// detection. Region formation and the scheduler consume these.
//
// All analyses are snapshots: they are computed from the function's current
// shape and are not updated when the function mutates. Transformations that
// edit the CFG (tail duplication) recompute what they need.
package cfg

import "treegion/internal/ir"

// Graph caches the structural views of a function's CFG that every analysis
// needs: successor and predecessor lists and a reverse postorder.
type Graph struct {
	Fn *ir.Function
	// Succs and Preds are indexed by BlockID. Each kind of list is carved
	// from one slab with its capacity capped at its length, so a caller
	// that appends to a copy of a list gets a fresh array and never writes
	// into the graph.
	Succs [][]ir.BlockID
	Preds [][]ir.BlockID
	// RPO is a reverse postorder over blocks reachable from the entry.
	RPO []ir.BlockID
	// RPONum[b] is b's position in RPO, or -1 if b is unreachable.
	RPONum []int
}

// New builds the structural snapshot for fn. Its allocations do not
// depend on the block count: successors and predecessors each fill one
// slab sized to the edge count.
func New(fn *ir.Function) *Graph {
	n := len(fn.Blocks)
	g := &Graph{
		Fn:     fn,
		Succs:  make([][]ir.BlockID, n),
		Preds:  make([][]ir.BlockID, n),
		RPONum: make([]int, n),
	}
	edges := 0
	for _, b := range fn.Blocks {
		edges += b.NumSuccs()
	}
	succs := make([]ir.BlockID, 0, edges)
	for _, b := range fn.Blocks {
		lo := len(succs)
		succs = b.AppendSuccs(succs)
		g.Succs[b.ID] = succs[lo:len(succs):len(succs)]
	}
	// Predecessors by counting sort over the successor slab, in block
	// order. RPONum counts each block's in-edges until the DFS below.
	for _, s := range succs {
		g.RPONum[s]++
	}
	preds := make([]ir.BlockID, edges)
	lo := 0
	for i, c := range g.RPONum {
		g.Preds[i] = preds[lo : lo : lo+c]
		lo += c
	}
	for _, b := range fn.Blocks {
		for _, s := range g.Succs[b.ID] {
			g.Preds[s] = append(g.Preds[s], b.ID)
		}
	}

	// Iterative postorder DFS from the entry, reversed in place.
	g.RPO = make([]ir.BlockID, 0, n)
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	type frame struct {
		b ir.BlockID
		i int
	}
	stack := make([]frame, 1, n)
	stack[0] = frame{fn.Entry, 0}
	state[fn.Entry] = 1
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.i < len(g.Succs[top.b]) {
			s := g.Succs[top.b][top.i]
			top.i++
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		state[top.b] = 2
		g.RPO = append(g.RPO, top.b)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(g.RPO)-1; i < j; i, j = i+1, j-1 {
		g.RPO[i], g.RPO[j] = g.RPO[j], g.RPO[i]
	}
	for i := range g.RPONum {
		g.RPONum[i] = -1
	}
	for i, b := range g.RPO {
		g.RPONum[b] = i
	}
	return g
}

// Reachable reports whether b is reachable from the entry.
func (g *Graph) Reachable(b ir.BlockID) bool { return g.RPONum[b] >= 0 }

// IsMergePoint reports whether b has two or more predecessors. (The paper's
// treegion formation stops at merge points.) The entry block is never a
// merge point unless something branches back to it.
func (g *Graph) IsMergePoint(b ir.BlockID) bool { return len(g.Preds[b]) >= 2 }

// BackEdges returns the back edges (tail→head) of the reachable CFG, found
// via DFS edge classification. A treegion can never contain one (merge
// points delimit regions), but the profiler and generator care about loops.
func (g *Graph) BackEdges() [][2]ir.BlockID {
	n := len(g.Fn.Blocks)
	color := make([]uint8, n)
	var out [][2]ir.BlockID
	type frame struct {
		b ir.BlockID
		i int
	}
	stack := []frame{{g.Fn.Entry, 0}}
	color[g.Fn.Entry] = 1
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.i < len(g.Succs[top.b]) {
			s := g.Succs[top.b][top.i]
			top.i++
			switch color[s] {
			case 0:
				color[s] = 1
				stack = append(stack, frame{s, 0})
			case 1:
				out = append(out, [2]ir.BlockID{top.b, s})
			}
			continue
		}
		color[top.b] = 2
		stack = stack[:len(stack)-1]
	}
	return out
}
