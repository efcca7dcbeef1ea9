package ddg

import (
	"math/bits"
	"slices"

	"treegion/internal/ir"
)

// opAt locates a physical op inside the region.
type opAt struct {
	op    *ir.Op
	block ir.BlockID
	pos   int // index within its block's op list
}

// movedOp is a merged representative homed at the block with preorder
// position pos, away from the block it sits in.
type movedOp struct {
	pos int32
	op  *ir.Op
}

// merger is dominator parallelism's working set. It lives in the builder,
// so every table keeps its capacity from build to build:
//
//   - slotOrig and slotGrp are an open-addressed table from Orig to
//     1 + candidate group, with more than twice as many slots as the
//     region has candidates and cleared per build. Orig is not bounded by
//     the function's op IDs (the inliner offsets every spliced op's Orig by
//     its callee's ir.OrigStride namespace), so no table indexed by Orig
//     could hold every candidate; this one is region-sized whatever the
//     Orig values are. They are op IDs the compiler assigned or the
//     inliner offset, never input, so the unseeded hash meets no chosen
//     collisions.
//   - The groups are counting-sorted into grpSlab: group g is
//     grpSlab[grpOff[g]:grpOff[g+1]]. Groups are numbered in order of first
//     sight and members keep preorder and op position, so the merge loop
//     meets exactly the sets a map of appended lists would hold.
//   - depth and memGen are indexed by preorder position: depth from the
//     root, and the generation of the candidate set a member block belongs
//     to (preMemberBlocks).
type merger struct {
	slotOrig []int
	slotGrp  []int32
	cands    []opAt
	candGrp  []int32
	grpOff   []int32
	grpSlab  []opAt
	depth    []int32
	memGen   []uint32
	gen      uint32
	pre      []ir.BlockID
	stack    []ir.BlockID
}

// mergeCandidate reports whether op may join a duplicate set: a
// speculatable, value-producing non-terminator that is not a renaming copy.
func mergeCandidate(op *ir.Op) bool {
	if op.IsBranch() || op.Opcode == ir.Ret || op.Opcode == ir.Copy {
		return false
	}
	return op.Opcode.Speculatable() && len(op.Dests) > 0
}

// mergeDominatorParallel finds complete sets of tail-duplicated identical
// ops whose sources reach their common dominator unchanged and replaces each
// set with one representative homed at the dominator (the paper's dominator
// parallelism, Section 4). Because any block in a treegion dominates all
// blocks below it, the tree LCA of the duplicates is that dominator.
func (b *builder) mergeDominatorParallel() {
	r := b.g.Region
	dp := &b.dp
	ngroups := b.groupCandidates()
	n := len(r.Blocks)
	dp.depth = grow(dp.depth, n)
	dp.depth[0] = 0
	for i := 1; i < n; i++ {
		dp.depth[i] = dp.depth[r.Pos(r.Parent(r.Blocks[i]))] + 1
	}
	dp.memGen = growClear(dp.memGen, n)
	dp.gen = 0

	for g := 0; g < ngroups; g++ {
		set := dp.grpSlab[dp.grpOff[g]:dp.grpOff[g+1]]
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
			b.moved = append(b.moved, movedOp{pos: int32(r.Pos(lca)), op: rep.op})
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

// groupCandidates groups the region's merge candidates by Orig into
// dp.grpSlab and returns the number of groups (see merger).
func (b *builder) groupCandidates() int {
	fn := b.g.Fn
	dp := &b.dp
	dp.cands = dp.cands[:0]
	for _, bid := range b.g.Region.Blocks {
		for pos, op := range fn.Block(bid).Ops {
			if mergeCandidate(op) {
				dp.cands = append(dp.cands, opAt{op, bid, pos})
			}
		}
	}
	// Number the groups in order of first sight: hash each Orig into the
	// table's top bits (Fibonacci hashing) and probe linearly.
	shift := 64 - bits.Len(uint(2*len(dp.cands)))
	mask := 1<<(64-shift) - 1
	dp.slotOrig = grow(dp.slotOrig, mask+1)
	dp.slotGrp = growClear(dp.slotGrp, mask+1)
	dp.candGrp = grow(dp.candGrp, len(dp.cands))
	ngroups := int32(0)
	for i, c := range dp.cands {
		o := c.op.Orig
		h := int(uint64(o) * 0x9e3779b97f4a7c15 >> shift)
		for dp.slotGrp[h] != 0 && dp.slotOrig[h] != o {
			h = (h + 1) & mask
		}
		if dp.slotGrp[h] == 0 {
			ngroups++
			dp.slotOrig[h], dp.slotGrp[h] = o, ngroups
		}
		dp.candGrp[i] = dp.slotGrp[h] - 1
	}

	// Counting sort: counts land two slots right, so after the prefix sum
	// grpOff[g+1] is group g's fill cursor, and after the fill it is g's end.
	dp.grpOff = growClear(dp.grpOff, int(ngroups)+2)
	for _, g := range dp.candGrp {
		dp.grpOff[g+2]++
	}
	for i := 2; i < len(dp.grpOff); i++ {
		dp.grpOff[i] += dp.grpOff[i-1]
	}
	dp.grpSlab = grow(dp.grpSlab, len(dp.cands))
	for i, c := range dp.cands {
		g := dp.candGrp[i]
		dp.grpSlab[dp.grpOff[g+1]] = c
		dp.grpOff[g+1]++
	}
	return int(ngroups)
}

// identicalOps reports whether all members compute the same operation over
// the same registers, each in a block of its own.
func identicalOps(set []opAt) bool {
	a := set[0].op
	for _, m := range set[1:] {
		o := m.op
		if o.Opcode != a.Opcode || o.Imm != a.Imm || o.Cond != a.Cond ||
			o.Guard != a.Guard || !slices.Equal(o.Dests, a.Dests) || !slices.Equal(o.Srcs, a.Srcs) {
			return false
		}
	}
	// Members must sit in pairwise distinct blocks (one per path). They are
	// in preorder, so two in one block are adjacent.
	for i := 1; i < len(set); i++ {
		if set[i].block == set[i-1].block {
			return false
		}
	}
	return true
}

// treeLCA returns the lowest common ancestor of the members' blocks within
// the region tree, climbing by depth.
func (b *builder) treeLCA(set []opAt) ir.BlockID {
	r := b.g.Region
	depth := b.dp.depth
	lca := set[0].block
	dl := depth[r.Pos(lca)]
	for _, m := range set[1:] {
		x := m.block
		dx := depth[r.Pos(x)]
		for ; dx > dl; dx-- {
			x = r.Parent(x)
		}
		for ; dl > dx; dl-- {
			lca = r.Parent(lca)
		}
		for x != lca {
			x, lca = r.Parent(x), r.Parent(lca)
			dl--
		}
	}
	return lca
}

// hasReg reports whether the valid register x is among regs.
func hasReg(regs []ir.Reg, x ir.Reg) bool {
	return x.IsValid() && slices.Contains(regs, x)
}

// sourcesReach reports whether, for every member, no op strictly between the
// LCA and the member redefines one of the member's sources — i.e. the value
// the member read is the value available at the dominator.
func (b *builder) sourcesReach(lca ir.BlockID, set []opAt) bool {
	fn := b.g.Fn
	r := b.g.Region
	srcs := set[0].op.Srcs
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
					if hasReg(srcs, d) {
						return false
					}
				}
			}
		}
	}
	return true
}

// preMemberBlocks walks the LCA's subtree stopping at member blocks. It
// returns the blocks strictly between the LCA and the members, in preorder,
// and whether every path from the LCA reaches a member (a *complete*
// duplicate set). The result aliases the builder's buffer.
func (b *builder) preMemberBlocks(lca ir.BlockID, set []opAt) ([]ir.BlockID, bool) {
	r := b.g.Region
	dp := &b.dp
	dp.gen++
	for _, m := range set {
		dp.memGen[r.Pos(m.block)] = dp.gen
	}
	isMember := func(x ir.BlockID) bool { return dp.memGen[r.Pos(x)] == dp.gen }
	if isMember(lca) {
		return nil, true
	}
	pre := dp.pre[:0]
	covered := true
	// Children are pushed last-first, so they pop in successor order and
	// the walk visits blocks in preorder.
	stack := append(dp.stack[:0], lca)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x != lca {
			if isMember(x) {
				continue
			}
			if r.IsLeaf(x) {
				covered = false
				continue
			}
			pre = append(pre, x)
		}
		ch := r.Children(x)
		for i := len(ch) - 1; i >= 0; i-- {
			stack = append(stack, ch[i])
		}
	}
	dp.pre, dp.stack = pre, stack
	return pre, covered
}

// destConflicts reports whether homing op at the LCA would clobber a value
// some non-covered consumer still needs: the destination must be neither
// read nor written between the LCA and the members, and must not be live
// into any region exit leaving from the LCA or a pre-member block.
func (b *builder) destConflicts(lca ir.BlockID, pre []ir.BlockID, op *ir.Op) bool {
	fn := b.g.Fn
	dests := op.Dests
	for _, x := range pre {
		for _, o := range fn.Block(x).Ops {
			if b.isGone(o) || o == op {
				continue
			}
			for _, s := range o.Srcs {
				if hasReg(dests, s) {
					return true
				}
			}
			for _, d := range o.Dests {
				if hasReg(dests, d) {
					return true
				}
			}
		}
	}
	// Region exits leaving before a member is reached.
	if b.exitNeeds(lca, dests) {
		return true
	}
	for _, x := range pre {
		if b.exitNeeds(x, dests) {
			return true
		}
	}
	return false
}

// exitNeeds reports whether one of regs is live into a region exit of x.
func (b *builder) exitNeeds(x ir.BlockID, regs []ir.Reg) bool {
	r := b.g.Region
	lv := b.opts.Liveness
	b.succBuf = b.g.Fn.Block(x).AppendSuccs(b.succBuf[:0])
	for _, s := range b.succBuf {
		if r.IsTreeEdge(x, s) {
			continue // tree edge
		}
		for _, d := range regs {
			if d.IsValid() && lv.LiveIn[s].Has(d) {
				return true
			}
		}
	}
	return false
}
