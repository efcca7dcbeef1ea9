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

	// part is the function's block partition, where membership and
	// positions live, and id is this region's 1-based number in it. What
	// the region keeps itself is region-sized and indexed by preorder
	// position (see Pos).
	part *Partition
	id   int32
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

// New starts a region containing just the root, over a partition of its
// own. Formers start every region of a function on one Partition instead.
func New(fn *ir.Function, kind Kind, root ir.BlockID) *Region {
	return NewPartition(fn).NewRegion(kind, root)
}

// Partition returns the block partition the region belongs to.
func (r *Region) Partition() *Partition { return r.part }

// Add places b into the region as a child of parent, which must already be
// a member (and must actually be a CFG predecessor of b; Validate checks).
// It panics if any region of the partition already owns b.
func (r *Region) Add(b, parent ir.BlockID) {
	if !r.Contains(parent) {
		panic(fmt.Sprintf("region: parent bb%d of bb%d not a member", parent, b))
	}
	r.part.claim(r, b, len(r.Blocks))
	r.Blocks = append(r.Blocks, b)
	r.parents = append(r.parents, parent)
	r.childOff = nil
	r.childSlab = nil
}

// Contains reports membership.
func (r *Region) Contains(b ir.BlockID) bool {
	return r.part.at(b).region == r.id
}

// Pos returns b's preorder position (r.Blocks[r.Pos(b)] == b), or -1 for a
// non-member. Per-block tables of one region are indexed by it, so they
// are sized to the region rather than to the function.
func (r *Region) Pos(b ir.BlockID) int {
	if s := r.part.at(b); s.region == r.id {
		return int(s.pos)
	}
	return -1
}

// Parent returns b's tree parent (ir.NoBlock for the root and non-members).
func (r *Region) Parent(b ir.BlockID) ir.BlockID {
	if p := r.Pos(b); p >= 0 {
		return r.parents[p]
	}
	return ir.NoBlock
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
		off[r.Pos(p)+1]++ // counts land one slot right
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
			if k < off[i+1] && r.IsTreeEdge(b, s) {
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
		internal[r.Pos(p)] = true
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
			if op.IsBranch() && !r.IsTreeEdge(bid, op.Target) {
				out = append(out, Exit{From: bid, To: op.Target, Br: op})
			}
		}
		if ft := b.FallThrough; ft != ir.NoBlock && !r.IsTreeEdge(bid, ft) {
			out = append(out, Exit{From: bid, To: ft})
		}
	}
	return out
}

// IsTreeEdge reports whether from→to is an edge of the region's tree: to
// is a member and from is its tree parent.
func (r *Region) IsTreeEdge(from, to ir.BlockID) bool {
	p := r.Pos(to)
	return p >= 0 && r.parents[p] == from
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
			if !r.IsTreeEdge(bid, s) {
				out[i]++
			}
		}
	}
	// Preorder reversed visits every block after its whole subtree, so each
	// count is final when it is added into the parent's.
	for i := len(r.Blocks) - 1; i > 0; i-- {
		out[r.Pos(r.parents[i])] += out[i]
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
