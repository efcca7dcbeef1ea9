// Package core implements the paper's contribution: treegion formation
// (Fig. 2), treegion formation with tail duplication (Fig. 11), and the four
// treegion scheduling priority heuristics (Section 3).
package core

import (
	"treegion/internal/cfg"
	"treegion/internal/ir"
	"treegion/internal/region"
)

// Form grows treegions over fn exactly as the paper's treeform algorithm:
// every entry (and later every sapling) roots a tree; absorb-into-tree pulls
// in every reachable block that is not a merge point. The result partitions
// the function: every block belongs to exactly one treegion, no treegion
// contains a merge point other than its root, and treegions are acyclic.
//
// Formation is profile-independent, as the paper emphasizes.
func Form(fn *ir.Function, g *cfg.Graph) []*region.Region {
	return FormInline(fn, g, nil)
}

// FormInline is Form with a demand-driven block rewriter (typically the
// inliner, see internal/inline) consulted for every block the moment it joins
// a region. A nil rewriter reproduces Form exactly.
func FormInline(fn *ir.Function, g *cfg.Graph, rw BlockRewriter) []*region.Region {
	f := newFormer(fn, g)
	f.rw = rw
	return f.form(region.KindTreegion, nil)
}

// BlockRewriter is the demand-driven hook treegion formation offers the
// inliner: RewriteBlock is called once for each block right after it joins a
// region (and before its successors are considered for absorption), and may
// splice new blocks onto the function — splitting b and appending fresh
// blocks, but never touching blocks that already belong to regions. It
// returns whether it mutated the function, in which case the former refreshes
// its predecessor bookkeeping from b's new out-edges and the appended blocks.
type BlockRewriter interface {
	RewriteBlock(b ir.BlockID) bool
}

type former struct {
	fn *ir.Function
	g  *cfg.Graph
	rw BlockRewriter
	// part is the partition every region of fn is formed over, the
	// former's only record of which blocks are taken.
	part *region.Partition
	// preds is maintained incrementally so treeform-td sees merge counts
	// that reflect its own tail duplications.
	preds map[ir.BlockID][]ir.BlockID
}

func newFormer(fn *ir.Function, g *cfg.Graph) *former {
	f := &former{
		fn:    fn,
		g:     g,
		part:  region.NewPartition(fn),
		preds: make(map[ir.BlockID][]ir.BlockID, len(fn.Blocks)),
	}
	for _, b := range fn.Blocks {
		for _, s := range b.Succs() {
			f.preds[s] = append(f.preds[s], b.ID)
		}
	}
	return f
}

// isMerge consults the live predecessor bookkeeping.
func (f *former) isMerge(b ir.BlockID) bool { return len(f.preds[b]) >= 2 }

// entered gives the rewriter its shot at a block that just joined a region,
// then reconciles the predecessor bookkeeping with the mutation: b's old
// out-edges are retired (a splice moves them onto the continuation block) and
// the appended blocks' out-edges are registered, so merge detection keeps
// seeing accurate counts mid-formation.
func (f *former) entered(b ir.BlockID) {
	if f.rw == nil {
		return
	}
	old := f.fn.Block(b).Succs()
	n0 := len(f.fn.Blocks)
	if !f.rw.RewriteBlock(b) {
		return
	}
	for _, s := range old {
		lst := f.preds[s]
		for i, q := range lst {
			if q == b {
				f.preds[s] = append(lst[:i:i], lst[i+1:]...)
				break
			}
		}
	}
	for _, nb := range f.fn.Blocks[n0:] {
		for _, s := range nb.Succs() {
			f.preds[s] = append(f.preds[s], nb.ID)
		}
	}
	for _, s := range f.fn.Block(b).Succs() {
		f.preds[s] = append(f.preds[s], b)
	}
}

// form runs the treeform worklist. If expand is non-nil it is invoked after
// each tree's initial absorption to apply tail duplication (treeform-td).
func (f *former) form(kind region.Kind, expand func(*region.Region)) []*region.Region {
	var out []*region.Region
	queue := []ir.BlockID{f.fn.Entry}
	// Unreachable blocks (possible after other transforms) still get trees.
	for _, b := range f.fn.Blocks {
		if !f.g.Reachable(b.ID) {
			queue = append(queue, b.ID)
		}
	}
	for len(queue) > 0 {
		root := queue[0]
		queue = queue[1:]
		if f.part.Owner(root) != nil {
			continue
		}
		r := f.part.NewRegion(kind, root)
		f.entered(root)
		f.absorb(r, root)
		if expand != nil {
			expand(r)
		}
		for _, sap := range f.saplings(r) {
			queue = append(queue, sap)
		}
		out = append(out, r)
	}
	return out
}

// absorb is the paper's absorb-into-tree: starting from the successors of
// start (already a member), pull in every block that is not a merge point
// and not already owned. Successors go to the front of the candidate queue,
// mirroring the paper's depth-first growth.
func (f *former) absorb(r *region.Region, start ir.BlockID) {
	type cand struct{ node, parent ir.BlockID }
	var stack []cand
	push := func(b ir.BlockID) {
		succs := f.fn.Block(b).Succs()
		// Push in reverse so the first successor is processed first.
		for i := len(succs) - 1; i >= 0; i-- {
			stack = append(stack, cand{succs[i], b})
		}
	}
	push(start)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.part.Owner(c.node) != nil {
			continue
		}
		if f.isMerge(c.node) {
			continue // becomes a sapling
		}
		r.Add(c.node, c.parent)
		f.entered(c.node)
		push(c.node)
	}
}

// saplings returns the blocks just beyond the tree's leaves that are not yet
// in any region — the merge points that delimit this tree.
func (f *former) saplings(r *region.Region) []ir.BlockID {
	var out []ir.BlockID
	seen := make(map[ir.BlockID]bool)
	for _, b := range r.Blocks {
		for _, s := range f.fn.Block(b).Succs() {
			if f.part.Owner(s) == nil && !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}
