package region

import (
	"treegion/internal/ir"
	"treegion/internal/profile"
)

// TailDuplicate clones block target and retargets the single edge pred→target
// onto the clone, keeping the profile consistent: the clone inherits the
// retargeted edge's weight, the original loses it, and the original's
// outgoing edge weights are split proportionally. It returns the clone.
//
// This is the primitive treegion formation with tail duplication is built
// on. (Superblock formation duplicates a whole trace tail as one chain and
// re-routes its side entrances itself.)
func TailDuplicate(fn *ir.Function, prof *profile.Data, pred, target ir.BlockID) *ir.Block {
	dup := fn.DuplicateBlock(fn.Block(target))
	w := prof.EdgeWeight(pred, target)
	prof.SplitBlock(fn, target, dup.ID, w)
	prof.MoveEdge(pred, target, dup.ID)
	fn.Block(pred).ReplaceSucc(target, dup.ID)
	return dup
}
