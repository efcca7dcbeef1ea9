// Package region defines the scheduling-region abstraction shared by every
// region former in this compiler: basic blocks, simple linear regions,
// superblocks, and treegions. A region is a tree of basic blocks rooted at
// its unique entry; linear regions are simply trees that happen to be paths,
// so one representation (and one scheduler) serves all of them.
package region

import (
	"fmt"
	"strings"

	"treegion/internal/ir"
)

// Kind tags how a region was formed.
type Kind uint8

// Region kinds.
const (
	KindBasicBlock Kind = iota
	KindSLR
	KindSuperblock
	KindTreegion
	KindTreegionTD
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBasicBlock:
		return "bb"
	case KindSLR:
		return "slr"
	case KindSuperblock:
		return "sb"
	case KindTreegion:
		return "tree"
	case KindTreegionTD:
		return "tree-td"
	default:
		return "?"
	}
}

// Region is a single-entry tree of basic blocks within one function. The
// root is the only block that may be a merge point; every other member has
// exactly one predecessor, its tree parent.
type Region struct {
	Fn     *ir.Function
	Kind   Kind
	Root   ir.BlockID
	Blocks []ir.BlockID // preorder; Blocks[0] == Root

	// FromTrace marks superblock regions that came from profile trace
	// selection (as opposed to cold-code filler); the paper's Table 4
	// counts only these.
	FromTrace bool

	// pos maps a BlockID to its preorder index + 1 (0 = not a member). It
	// is the one function-sized table a region keeps, grown on demand:
	// tail duplication appends blocks to the function mid-formation and
	// then Adds them. Everything else is region-sized and indexed by
	// preorder position (see Pos).
	pos []int32
	// parents is parallel to Blocks: parents[i] is the tree parent of
	// Blocks[i], ir.NoBlock for the root.
	parents []ir.BlockID
	// childOff/childSlab cache the child lists as a CSR over preorder
	// positions: the children of Blocks[i], in successor order, are
	// childSlab[childOff[i]:childOff[i+1]]. They are built lazily by
	// Children and dropped by Add, which is the only membership mutation.
	// CFG edge rewrites during formation (TailDuplicate's ReplaceSucc) are
	// always followed by an Add before the next query, so Add-invalidation
	// keeps the cache coherent.
	childOff  []int32
	childSlab []ir.BlockID
}

// New starts a region containing just the root.
func New(fn *ir.Function, kind Kind, root ir.BlockID) *Region {
	return newRegion(fn, kind, root, 1)
}

// newRegion is New with room reserved for n blocks.
func newRegion(fn *ir.Function, kind Kind, root ir.BlockID, n int) *Region {
	r := &Region{
		Fn:      fn,
		Kind:    kind,
		Root:    root,
		Blocks:  append(make([]ir.BlockID, 0, n), root),
		parents: append(make([]ir.BlockID, 0, n), ir.NoBlock),
	}
	r.ensure(root)
	r.pos[root] = 1
	return r
}

// ensure grows the position table to cover block b, in one reallocation —
// regions are built by the thousand on the store's warm decode path, so
// element-at-a-time growth here shows up directly in GC pressure.
func (r *Region) ensure(b ir.BlockID) {
	need := int(b) + 1
	if n := len(r.Fn.Blocks); n > need {
		need = n
	}
	if len(r.pos) >= need {
		return
	}
	pos := make([]int32, need)
	copy(pos, r.pos)
	r.pos = pos
}

// Add places b into the region as a child of parent, which must already be
// a member (and must actually be a CFG predecessor of b; Validate checks).
func (r *Region) Add(b, parent ir.BlockID) {
	r.ensure(b)
	if r.pos[b] != 0 {
		panic(fmt.Sprintf("region: bb%d added twice", b))
	}
	if !r.Contains(parent) {
		panic(fmt.Sprintf("region: parent bb%d of bb%d not a member", parent, b))
	}
	r.Blocks = append(r.Blocks, b)
	r.parents = append(r.parents, parent)
	r.pos[b] = int32(len(r.Blocks))
	r.childOff = nil
	r.childSlab = nil
}

// Contains reports membership.
func (r *Region) Contains(b ir.BlockID) bool {
	return int(b) >= 0 && int(b) < len(r.pos) && r.pos[b] != 0
}

// Pos returns b's preorder position (r.Blocks[r.Pos(b)] == b), or -1 for a
// non-member. Per-block tables of one region are indexed by it, so they
// are sized to the region rather than to the function.
func (r *Region) Pos(b ir.BlockID) int {
	if !r.Contains(b) {
		return -1
	}
	return int(r.pos[b]) - 1
}

// Parent returns b's tree parent (ir.NoBlock for the root and non-members).
func (r *Region) Parent(b ir.BlockID) ir.BlockID {
	if !r.Contains(b) {
		return ir.NoBlock
	}
	return r.parents[r.pos[b]-1]
}

// Children returns b's in-region children in successor order. The result
// aliases an internal cache; callers must not modify it.
func (r *Region) Children(b ir.BlockID) []ir.BlockID {
	if r.childOff == nil {
		r.buildChildren()
	}
	p := r.Pos(b)
	if p < 0 {
		return nil
	}
	lo, hi := r.childOff[p], r.childOff[p+1]
	return r.childSlab[lo:hi:hi]
}

// buildChildren fills the child-list CSR: every non-root member is the
// unique tree child of its parent, so the lists pack into one slab of
// len(Blocks)-1 entries, filled in each parent's successor order.
func (r *Region) buildChildren() {
	n := len(r.Blocks)
	off := make([]int32, n+1)
	for _, p := range r.parents[1:] {
		off[r.pos[p]]++ // pos is position+1: counts land one slot right
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	slab := make([]ir.BlockID, n-1)
	var succs []ir.BlockID
	for i, b := range r.Blocks {
		k := off[i]
		succs = r.Fn.Block(b).AppendSuccs(succs[:0])
		for _, s := range succs {
			if k < off[i+1] && r.isTreeEdge(b, s) {
				slab[k] = s
				k++
			}
		}
	}
	r.childOff, r.childSlab = off, slab
}

// IsLeaf reports whether b has no in-region children.
func (r *Region) IsLeaf(b ir.BlockID) bool { return len(r.Children(b)) == 0 }

// Leaves returns the leaf blocks in preorder.
func (r *Region) Leaves() []ir.BlockID {
	var out []ir.BlockID
	for _, b := range r.Blocks {
		if r.IsLeaf(b) {
			out = append(out, b)
		}
	}
	return out
}

// PathCount returns the number of distinct root-to-leaf paths (== leaves).
// It counts straight off the parent list rather than via Leaves: statistics
// aggregation calls this once per region, and forcing the children cache
// just to count leaves dominated the warm artifact-decode profile.
func (r *Region) PathCount() int {
	if len(r.Blocks) <= 1 {
		return len(r.Blocks)
	}
	internal := make([]bool, len(r.Blocks))
	for _, p := range r.parents[1:] {
		internal[r.pos[p]-1] = true
	}
	leaves := 0
	for _, in := range internal {
		if !in {
			leaves++
		}
	}
	return leaves
}

// PathTo returns the block path root..b.
func (r *Region) PathTo(b ir.BlockID) []ir.BlockID {
	return r.AppendPathTo(nil, b)
}

// AppendPathTo appends the block path root..b to dst and returns it,
// letting hot callers reuse one buffer across paths.
func (r *Region) AppendPathTo(dst []ir.BlockID, b ir.BlockID) []ir.BlockID {
	start := len(dst)
	for cur := b; cur != ir.NoBlock; cur = r.Parent(cur) {
		dst = append(dst, cur)
	}
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// Ancestors returns the strict ancestors of b, nearest first.
func (r *Region) Ancestors(b ir.BlockID) []ir.BlockID {
	var out []ir.BlockID
	for cur := r.Parent(b); cur != ir.NoBlock; cur = r.Parent(cur) {
		out = append(out, cur)
	}
	return out
}

// Subtree returns b and all in-region descendants of b, preorder.
func (r *Region) Subtree(b ir.BlockID) []ir.BlockID {
	out := []ir.BlockID{b}
	for i := 0; i < len(out); i++ {
		out = append(out, r.Children(out[i])...)
	}
	return out
}

// NumOps returns the region's total static op count.
func (r *Region) NumOps() int {
	n := 0
	for _, b := range r.Blocks {
		n += len(r.Fn.Block(b).Ops)
	}
	return n
}

// Exit is one way control leaves the region: the edge From→To, taken via
// branch op Br, or by fallthrough when Br is nil. Edges to the region's own
// root (loop back edges) are exits too.
type Exit struct {
	From, To ir.BlockID
	Br       *ir.Op // nil for a fallthrough exit
}

// Exits returns the region's exit edges in preorder of their source blocks.
// An exit is any edge whose target is outside the region or is not the
// source's tree child (e.g. a back edge to the root).
func (r *Region) Exits() []Exit {
	var out []Exit
	for _, bid := range r.Blocks {
		b := r.Fn.Block(bid)
		for _, op := range b.Ops {
			if op.IsBranch() && !r.isTreeEdge(bid, op.Target) {
				out = append(out, Exit{From: bid, To: op.Target, Br: op})
			}
		}
		if ft := b.FallThrough; ft != ir.NoBlock && !r.isTreeEdge(bid, ft) {
			out = append(out, Exit{From: bid, To: ft})
		}
	}
	return out
}

func (r *Region) isTreeEdge(from, to ir.BlockID) bool {
	return r.Contains(to) && r.parents[r.pos[to]-1] == from
}

// ExitsBelow returns, for every member block, the number of region exits
// from its subtree — the paper's "exit count" of ops homed there. The
// result is indexed by preorder position (see Pos).
func (r *Region) ExitsBelow() []int {
	out := make([]int, len(r.Blocks))
	var succs []ir.BlockID
	for i, bid := range r.Blocks {
		succs = r.Fn.Block(bid).AppendSuccs(succs[:0])
		for _, s := range succs {
			if !r.isTreeEdge(bid, s) {
				out[i]++
			}
		}
	}
	// Preorder reversed visits every block after its whole subtree, so each
	// count is final when it is added into the parent's.
	for i := len(r.Blocks) - 1; i > 0; i-- {
		out[r.pos[r.parents[i]]-1] += out[i]
	}
	return out
}

// Validate checks the tree invariants against the current CFG:
// every non-root member's parent is its sole predecessor-in-region and an
// actual CFG edge exists; preorder lists parents before children.
func (r *Region) Validate() error {
	if len(r.Blocks) == 0 || r.Blocks[0] != r.Root {
		return fmt.Errorf("region: preorder must start at root")
	}
	seen := map[ir.BlockID]bool{}
	for _, b := range r.Blocks {
		if seen[b] {
			return fmt.Errorf("region: bb%d listed twice", b)
		}
		seen[b] = true
		p := r.Parent(b)
		if b == r.Root {
			if p != ir.NoBlock {
				return fmt.Errorf("region: root bb%d has parent", b)
			}
			continue
		}
		if !seen[p] {
			return fmt.Errorf("region: bb%d precedes its parent bb%d", b, p)
		}
		// The parent edge must exist in the CFG.
		found := false
		for _, s := range r.Fn.Block(p).Succs() {
			if s == b {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("region: no CFG edge bb%d->bb%d", p, b)
		}
	}
	return nil
}

// String summarizes the region.
func (r *Region) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s region root=bb%d blocks=[", r.Kind, r.Root)
	for i, b := range r.Blocks {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "bb%d", b)
	}
	sb.WriteString("]")
	return sb.String()
}
