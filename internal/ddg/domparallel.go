package ddg

import (
	"treegion/internal/ir"
)

// opAt locates a physical op inside the region.
type opAt struct {
	op    *ir.Op
	block ir.BlockID
	pos   int // index within its block's op list
}

// mergeDominatorParallel finds complete sets of tail-duplicated identical
// ops whose sources reach their common dominator unchanged and replaces each
// set with one representative homed at the dominator (the paper's dominator
// parallelism, Section 4). Because any block in a treegion dominates all
// blocks below it, the tree LCA of the duplicates is that dominator.
func (b *builder) mergeDominatorParallel() {
	r := b.g.Region
	fn := b.g.Fn
	if b.moved == nil {
		b.moved = make(map[ir.BlockID][]*ir.Op)
	}

	// Group candidate ops by original identity.
	groups := make(map[int][]opAt)
	var order []int
	for _, bid := range r.Blocks {
		for pos, op := range fn.Block(bid).Ops {
			if op.IsBranch() || op.Opcode == ir.Ret || op.Opcode == ir.Copy {
				continue
			}
			if !op.Opcode.Speculatable() || len(op.Dests) == 0 {
				continue
			}
			if len(groups[op.Orig]) == 0 {
				order = append(order, op.Orig)
			}
			groups[op.Orig] = append(groups[op.Orig], opAt{op, bid, pos})
		}
	}

	for _, orig := range order {
		set := groups[orig]
		if len(set) < 2 || !identicalOps(set) {
			continue
		}
		lca := b.treeLCA(set)
		if !b.sourcesReach(lca, set) {
			continue
		}
		pre, covered := b.preMemberBlocks(lca, set)
		if !covered {
			continue
		}
		if b.destConflicts(lca, pre, set[0].op) {
			continue
		}
		// Merge: the member sitting highest (in the LCA if any) represents
		// the set; everyone else is eliminated.
		rep := set[0]
		for _, m := range set[1:] {
			if m.block == lca {
				rep = m
			}
		}
		for _, m := range set {
			if m.op == rep.op {
				continue
			}
			b.setGone(m.op)
			b.g.NumMerged++
		}
		b.setHome(rep.op, lca)
		if rep.block != lca {
			b.moved[lca] = append(b.moved[lca], rep.op)
		}
		// The merged op is unconditional at the dominator, but hoisting it
		// further is speculation: pin it if its destination is live on some
		// path that bypasses the dominator.
		for _, d := range rep.op.Dests {
			if b.conflictsOffPath(lca, d) {
				b.setPinned(rep.op)
				break
			}
		}
	}
}

// identicalOps reports whether all members compute the same operation over
// the same registers.
func identicalOps(set []opAt) bool {
	a := set[0].op
	for _, m := range set[1:] {
		o := m.op
		if o.Opcode != a.Opcode || o.Imm != a.Imm || o.Cond != a.Cond ||
			o.Guard != a.Guard ||
			len(o.Dests) != len(a.Dests) || len(o.Srcs) != len(a.Srcs) {
			return false
		}
		for i := range o.Dests {
			if o.Dests[i] != a.Dests[i] {
				return false
			}
		}
		for i := range o.Srcs {
			if o.Srcs[i] != a.Srcs[i] {
				return false
			}
		}
	}
	// Members must sit in pairwise distinct blocks (one per path).
	seen := map[ir.BlockID]bool{}
	for _, m := range set {
		if seen[m.block] {
			return false
		}
		seen[m.block] = true
	}
	return true
}

// treeLCA returns the lowest common ancestor of the members' blocks within
// the region tree.
func (b *builder) treeLCA(set []opAt) ir.BlockID {
	r := b.g.Region
	lca := set[0].block
	for _, m := range set[1:] {
		anc := map[ir.BlockID]bool{}
		for cur := lca; cur != ir.NoBlock; cur = r.Parent(cur) {
			anc[cur] = true
		}
		cur := m.block
		for !anc[cur] {
			cur = r.Parent(cur)
		}
		lca = cur
	}
	return lca
}

// sourcesReach reports whether, for every member, no op strictly between the
// LCA and the member redefines one of the member's sources — i.e. the value
// the member read is the value available at the dominator.
func (b *builder) sourcesReach(lca ir.BlockID, set []opAt) bool {
	fn := b.g.Fn
	r := b.g.Region
	srcs := map[ir.Reg]bool{}
	for _, s := range set[0].op.Srcs {
		if s.IsValid() {
			srcs[s] = true
		}
	}
	if len(srcs) == 0 {
		return true
	}
	for _, m := range set {
		for cur := m.block; cur != lca; cur = r.Parent(cur) {
			ops := fn.Block(cur).Ops
			limit := len(ops)
			if cur == m.block {
				limit = m.pos
			}
			for _, op := range ops[:limit] {
				if b.isGone(op) {
					continue
				}
				for _, d := range op.Dests {
					if srcs[d] {
						return false
					}
				}
			}
		}
	}
	return true
}

// preMemberBlocks walks the LCA's subtree stopping at member blocks. It
// returns the blocks strictly between the LCA and the members, and whether
// every path from the LCA reaches a member (a *complete* duplicate set).
func (b *builder) preMemberBlocks(lca ir.BlockID, set []opAt) ([]ir.BlockID, bool) {
	r := b.g.Region
	isMember := map[ir.BlockID]bool{}
	for _, m := range set {
		isMember[m.block] = true
	}
	if isMember[lca] {
		return nil, true
	}
	var pre []ir.BlockID
	covered := true
	var walk func(ir.BlockID)
	walk = func(x ir.BlockID) {
		for _, c := range r.Children(x) {
			if isMember[c] {
				continue
			}
			if r.IsLeaf(c) {
				covered = false
				continue
			}
			pre = append(pre, c)
			walk(c)
		}
	}
	walk(lca)
	return pre, covered
}

// destConflicts reports whether homing op at the LCA would clobber a value
// some non-covered consumer still needs: the destination must be neither
// read nor written between the LCA and the members, and must not be live
// into any region exit leaving from the LCA or a pre-member block.
func (b *builder) destConflicts(lca ir.BlockID, pre []ir.BlockID, op *ir.Op) bool {
	fn := b.g.Fn
	r := b.g.Region
	lv := b.opts.Liveness
	dests := map[ir.Reg]bool{}
	for _, d := range op.Dests {
		if d.IsValid() {
			dests[d] = true
		}
	}
	for _, x := range pre {
		for _, o := range fn.Block(x).Ops {
			if b.isGone(o) || o == op {
				continue
			}
			for _, s := range o.Srcs {
				if dests[s] {
					return true
				}
			}
			for _, d := range o.Dests {
				if dests[d] {
					return true
				}
			}
		}
	}
	// Region exits leaving before a member is reached.
	check := append([]ir.BlockID{lca}, pre...)
	for _, x := range check {
		for _, s := range fn.Block(x).Succs() {
			if r.Contains(s) && r.Parent(s) == x {
				continue // tree edge
			}
			for d := range dests {
				if lv.LiveIn[s].Has(d) {
					return true
				}
			}
		}
	}
	return false
}
