package ddg

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"

	"treegion/internal/ir"
	"treegion/internal/region"
)

// refMergeDominatorParallel is the map-based dominator-parallelism merge
// the builder's scratch tables replaced, kept as their test oracle: a fresh
// map of candidate lists per region, and a map per candidate set in
// refTreeLCA, refSourcesReach, refPreMemberBlocks and refDestConflicts.
// It records merges exactly as the production merge does, so the rest of
// the build is shared.
func refMergeDominatorParallel(b *builder) {
	r := b.g.Region
	fn := b.g.Fn

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
		if len(set) < 2 || !refIdenticalOps(set) {
			continue
		}
		lca := refTreeLCA(b, set)
		if !refSourcesReach(b, lca, set) {
			continue
		}
		pre, covered := refPreMemberBlocks(b, lca, set)
		if !covered {
			continue
		}
		if refDestConflicts(b, lca, pre, set[0].op) {
			continue
		}
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
		for _, d := range rep.op.Dests {
			if b.conflictsOffPath(lca, d) {
				b.setPinned(rep.op)
				break
			}
		}
	}
}

func refIdenticalOps(set []opAt) bool {
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
	seen := map[ir.BlockID]bool{}
	for _, m := range set {
		if seen[m.block] {
			return false
		}
		seen[m.block] = true
	}
	return true
}

func refTreeLCA(b *builder, set []opAt) ir.BlockID {
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

func refSourcesReach(b *builder, lca ir.BlockID, set []opAt) bool {
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

func refPreMemberBlocks(b *builder, lca ir.BlockID, set []opAt) ([]ir.BlockID, bool) {
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

func refDestConflicts(b *builder, lca ir.BlockID, pre []ir.BlockID, op *ir.Op) bool {
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
	check := append([]ir.BlockID{lca}, pre...)
	for _, x := range check {
		for _, s := range fn.Block(x).Succs() {
			if r.IsTreeEdge(x, s) {
				continue
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

// buildWith is BuildScratch with merge as its dominator-parallelism step.
// It also returns the merge's decisions: NumMerged, every op's home,
// eliminated and pinned marks by op ID, and the moved representatives in
// merge order.
func buildWith(fn *ir.Function, r *region.Region, opts Options, sc *Scratch, merge func(*builder)) (*Graph, string) {
	g := &Graph{Fn: fn, Region: r}
	b := &sc.builder
	b.begin(g, opts)
	merge(b)
	var sb strings.Builder
	fmt.Fprintf(&sb, "merged %d", g.NumMerged)
	ids := slices.Clone(b.marked)
	slices.Sort(ids)
	for _, id := range ids {
		m := b.marks[id]
		fmt.Fprintf(&sb, "; op%d home %d gone %t pinned %t", id, m.home-1, m.gone, m.pinned)
	}
	for _, mv := range b.moved {
		fmt.Fprintf(&sb, "; op%d moved to position %d", mv.op.ID, mv.pos)
	}
	b.complete()
	return g, sb.String()
}

// graphDigest hashes the graph's transformation counts and every node's op
// ID, registers, attributes and successor edges.
func graphDigest(g *Graph) uint64 {
	h := fnv.New64a()
	var buf []byte
	num := func(v int) { buf = binary.AppendVarint(buf, int64(v)) }
	reg := func(r ir.Reg) { num(int(r.Class)); num(r.Num) }
	num(g.NumRenamed)
	num(g.NumCopies)
	num(g.NumMerged)
	for _, n := range g.Nodes {
		num(n.Op.ID)
		for _, r := range n.Op.Dests {
			reg(r)
		}
		for _, r := range n.Op.Srcs {
			reg(r)
		}
		num(int(n.Home))
		buf = append(buf, byte(btoi(n.Term)), byte(btoi(n.Spec)))
		num(n.Height)
		num(n.ExitCount)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.Weight))
		num(len(n.Succs))
		for _, e := range n.Succs {
			num(e.To.Index)
			num(e.Latency)
			num(int(e.Kind))
		}
		h.Write(buf)
		buf = buf[:0]
	}
	return h.Sum64()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// MergeWitness builds regions once with the production merge and once, on
// a twin, with refMergeDominatorParallel, each on a Scratch of its own
// kept across every region it is given.
type MergeWitness struct {
	prod, ref Scratch
	// Regions and Merged count the regions compared and the duplicates
	// they eliminated.
	Regions, Merged int
}

// Compare builds r of fn with the production merge and tr of twin — an
// identical clone, formed identically — with the reference, and reports
// the first difference in merge decisions or graphs. Both builds mutate
// their functions, which therefore stay twins.
func (w *MergeWitness) Compare(fn *ir.Function, r *region.Region, opts Options, twin *ir.Function, tr *region.Region, twinOpts Options) error {
	got, gotFacts := buildWith(fn, r, opts, &w.prod, (*builder).mergeDominatorParallel)
	want, wantFacts := buildWith(twin, tr, twinOpts, &w.ref, refMergeDominatorParallel)
	w.Regions++
	w.Merged += want.NumMerged
	if gotFacts != wantFacts {
		return fmt.Errorf("%s region bb%d: merge decisions differ:\n got %s\nwant %s", fn.Name, r.Root, gotFacts, wantFacts)
	}
	if gd, wd := graphDigest(got), graphDigest(want); gd != wd {
		return fmt.Errorf("%s region bb%d: graph digests differ: %016x, reference %016x", fn.Name, r.Root, gd, wd)
	}
	return nil
}
