package ir

import "fmt"

// BlockID names a basic block within a Function. IDs are dense indices into
// Function.Blocks.
type BlockID int

// NoBlock is the absent block (e.g. no fallthrough successor).
const NoBlock BlockID = -1

// Block is a basic block: straight-line Ops with branches, if any, at the
// end. Control leaves a block through its branch ops (each carrying a Target)
// and/or through the fallthrough edge.
//
// Layout contract (checked by Function.Validate):
//   - all non-branch ops precede the first branch op;
//   - at most one Bru, and it must be the last op;
//   - a block with a Ret has no branches and no fallthrough;
//   - successor blocks are pairwise distinct.
type Block struct {
	ID   BlockID
	Orig BlockID // block this was tail-duplicated from (== ID for originals)
	Ops  []*Op
	// FallThrough is the block control reaches when no branch fires, or
	// NoBlock if the block ends the function (Ret) or ends with Bru.
	FallThrough BlockID
}

// Succs returns the successor blocks in arm order: one per branch op, then
// the fallthrough (if any). The result is freshly allocated.
func (b *Block) Succs() []BlockID {
	var out []BlockID
	for _, op := range b.Ops {
		if op.IsBranch() {
			out = append(out, op.Target)
		}
	}
	if b.FallThrough != NoBlock {
		out = append(out, b.FallThrough)
	}
	return out
}

// AppendSuccs appends the successors to buf in arm order and returns it,
// letting hot callers reuse one scratch slice instead of allocating per call.
func (b *Block) AppendSuccs(buf []BlockID) []BlockID {
	for _, op := range b.Ops {
		if op.IsBranch() {
			buf = append(buf, op.Target)
		}
	}
	if b.FallThrough != NoBlock {
		buf = append(buf, b.FallThrough)
	}
	return buf
}

// NumSuccs returns the successor count without allocating.
func (b *Block) NumSuccs() int {
	n := 0
	for _, op := range b.Ops {
		if op.IsBranch() {
			n++
		}
	}
	if b.FallThrough != NoBlock {
		n++
	}
	return n
}

// Branches returns the block's branch ops in order.
func (b *Block) Branches() []*Op {
	var out []*Op
	for _, op := range b.Ops {
		if op.IsBranch() {
			out = append(out, op)
		}
	}
	return out
}

// ReplaceSucc rewrites every edge from b to old so it points to new. It
// adjusts branch targets and the fallthrough. It reports whether anything
// changed.
func (b *Block) ReplaceSucc(old, new BlockID) bool {
	changed := false
	for _, op := range b.Ops {
		if op.IsBranch() && op.Target == old {
			op.Target = new
			changed = true
		}
	}
	if b.FallThrough == old {
		b.FallThrough = new
		changed = true
	}
	return changed
}

// String returns a short identifier like "bb4".
func (b *Block) String() string { return fmt.Sprintf("bb%d", b.ID) }
