// Package hyper implements hyperblock-style if-conversion — the alternative
// to tail duplication the paper names as future work ("the serialization of
// code using predication as in hyperblocks is an alternative to using tail
// duplication to eliminate merge points... We also plan to compare the
// tradeoffs between hyperblocks and treegions directly and to evaluate the
// merits of predication versus speculation for scheduling").
//
// The pass converts innermost if-then triangles and if-then-else diamonds
// into straight-line predicated code: the controlling branch disappears, the
// arm ops are guarded by the branch predicate (or its CMPP-produced
// complement), and the join loses a merge point — often letting subsequent
// treegion formation build larger regions without any code duplication.
// Predication's cost is the paper's expected tradeoff: guarded ops occupy
// issue slots on every execution, whereas speculation fills otherwise idle
// slots only.
package hyper

import (
	"treegion/internal/cfg"
	"treegion/internal/ir"
	"treegion/internal/profile"
)

// Config bounds the conversion.
type Config struct {
	// MaxArmOps skips arms larger than this (serializing a big cold arm
	// into the hot path is rarely worth it). Zero means the default.
	MaxArmOps int
	// MaxPasses bounds how many times the function is re-scanned; each pass
	// can expose new innermost diamonds. Zero means the default.
	MaxPasses int
}

// DefaultConfig mirrors common hyperblock formation limits.
func DefaultConfig() Config { return Config{MaxArmOps: 8, MaxPasses: 4} }

// Stats reports what the pass did.
type Stats struct {
	Triangles  int // if-then conversions
	Diamonds   int // if-then-else conversions
	Predicated int // ops that received a guard
}

// IfConvert predicates innermost triangles and diamonds of fn in place,
// keeping prof consistent (arm weights fold into the head block). It
// returns conversion statistics. The function must be profiled before
// conversion; the transformed function still validates and interprets
// (guarded ops are squashed when their predicate is false).
func IfConvert(fn *ir.Function, prof *profile.Data, c Config) Stats {
	if c.MaxArmOps <= 0 {
		c.MaxArmOps = 8
	}
	if c.MaxPasses <= 0 {
		c.MaxPasses = 4
	}
	var st Stats
	for pass := 0; pass < c.MaxPasses; pass++ {
		changed := false
		preds := cfg.New(fn).Preds
		for _, head := range fn.Blocks {
			if convertOne(fn, prof, preds, head, c, &st) {
				changed = true
				preds = cfg.New(fn).Preds
			}
		}
		if !changed {
			break
		}
	}
	return st
}

// convertOne tries to if-convert the branch ending head. Shapes handled
// (T = branch target, J = fallthrough / join):
//
//	triangle: head --br--> T -> J,  head -> J        (if-then)
//	diamond:  head --br--> T -> J,  head -> E -> J   (if-then-else)
func convertOne(fn *ir.Function, prof *profile.Data, preds [][]ir.BlockID,
	head *ir.Block, c Config, st *Stats) bool {
	brs := head.Branches()
	if len(brs) != 1 || head.FallThrough == ir.NoBlock {
		return false
	}
	br := brs[0]
	if !br.Opcode.IsConditionalBranch() {
		return false
	}
	t := fn.Block(br.Target)
	e := fn.Block(head.FallThrough)

	// The predicate must come from a CMPP in head (its first destination)
	// so the complement polarity can be grown on demand.
	cmpp := findCmpp(head, br.Srcs[len(br.Srcs)-1])
	if cmpp == nil {
		return false
	}

	switch {
	case armOK(fn, preds, t, head.ID, c) && armOK(fn, preds, e, head.ID, c) &&
		t.FallThrough == e.FallThrough && t.FallThrough != ir.NoBlock:
		// Diamond: T guarded by the taken polarity, E by the complement.
		join := t.FallThrough
		guardOps(t, predOf(br, cmpp, fn, false))
		guardOps(e, predOf(br, cmpp, fn, true))
		st.Predicated += len(t.Ops) + len(e.Ops)
		dropBranch(head, br)
		head.Ops = append(head.Ops, t.Ops...)
		head.Ops = append(head.Ops, e.Ops...)
		foldBlock(prof, t, join)
		foldBlock(prof, e, join)
		prof.MoveEdge(head.ID, t.ID, join)
		prof.MoveEdge(head.ID, e.ID, join)
		head.FallThrough = join
		st.Diamonds++
		return true
	case armOK(fn, preds, t, head.ID, c) && t.FallThrough == e.ID:
		// Triangle, arm on the taken side: head --br--> T -> J; head -> J.
		guardOps(t, predOf(br, cmpp, fn, false))
		st.Predicated += len(t.Ops)
		dropBranch(head, br)
		head.Ops = append(head.Ops, t.Ops...)
		foldBlock(prof, t, e.ID)
		prof.MoveEdge(head.ID, t.ID, e.ID)
		st.Triangles++
		return true
	case armOK(fn, preds, e, head.ID, c) && e.FallThrough == t.ID:
		// Mirror triangle, arm on the fallthrough: head --br--> J; head -> E -> J.
		guardOps(e, predOf(br, cmpp, fn, true))
		st.Predicated += len(e.Ops)
		dropBranch(head, br)
		head.Ops = append(head.Ops, e.Ops...)
		foldBlock(prof, e, t.ID)
		prof.MoveEdge(head.ID, e.ID, t.ID)
		head.FallThrough = t.ID
		st.Triangles++
		return true
	}
	return false
}

// findCmpp locates the CMPP in head whose primary destination is p.
func findCmpp(head *ir.Block, p ir.Reg) *ir.Op {
	if p.Class != ir.ClassPred {
		return nil
	}
	for _, op := range head.Ops {
		if op.Opcode == ir.Cmpp && op.Dests[0] == p && !op.Guarded() {
			return op
		}
	}
	return nil
}

// dropBranch removes the branch and, if present and otherwise dead, the PBR
// that primed its branch-target register.
func dropBranch(head *ir.Block, br *ir.Op) {
	removeOp(head, br)
	if len(br.Srcs) == 0 || br.Srcs[0].Class != ir.ClassBTR {
		return
	}
	btr := br.Srcs[0]
	for _, op := range head.Ops {
		for _, s := range op.Srcs {
			if s == btr {
				return // still used
			}
		}
	}
	for _, op := range head.Ops {
		if op.Opcode == ir.Pbr && len(op.Dests) == 1 && op.Dests[0] == btr {
			removeOp(head, op)
			return
		}
	}
}

// armOK reports whether blk is a convertible arm: solely reached from head,
// straight-line (no branches, no Ret), small enough, and free of
// unpredicable ops.
func armOK(fn *ir.Function, preds [][]ir.BlockID, blk *ir.Block, head ir.BlockID, c Config) bool {
	if len(preds[blk.ID]) != 1 || preds[blk.ID][0] != head {
		return false
	}
	if len(blk.Ops) > c.MaxArmOps {
		return false
	}
	for _, op := range blk.Ops {
		if op.IsBranch() || op.Opcode == ir.Ret || op.Opcode == ir.Call {
			return false
		}
		if op.Guarded() {
			return false // no nested predication in this study
		}
		// Guarding a CMPP that feeds a *branch elsewhere* would be fine,
		// but a squashed CMPP leaves its predicate stale; require the
		// predicate to be consumed... conservatively skip CMPPs with
		// complement destinations used beyond the arm.
		if op.Opcode == ir.Pbr {
			return false // its branch was in this arm's future; keep simple
		}
	}
	return blk.FallThrough != ir.NoBlock
}

// predOf returns the branch's polarity predicate: for BRCT the taken guard
// is the predicate itself and the complement guards the else arm (grown on
// the CMPP on demand); BRCF is the mirror image.
func predOf(br *ir.Op, cmpp *ir.Op, fn *ir.Function, complement bool) ir.Reg {
	taken := br.Opcode == ir.Brct
	wantTrue := taken != complement // true-polarity guard?
	if wantTrue {
		return cmpp.Dests[0]
	}
	if len(cmpp.Dests) == 1 {
		pbar := fn.NewReg(ir.ClassPred)
		cmpp.Dests = append(cmpp.Dests, pbar)
	}
	return cmpp.Dests[1]
}

// guardOps applies guard p to every op of the arm.
func guardOps(blk *ir.Block, p ir.Reg) {
	for _, op := range blk.Ops {
		op.Guard = p
	}
}

// foldBlock empties an absorbed arm and zeroes its profile entries (the
// predicated ops now execute whenever the head does).
func foldBlock(prof *profile.Data, arm *ir.Block, join ir.BlockID) {
	arm.Ops = nil
	arm.FallThrough = ir.NoBlock
	delete(prof.Edge, profile.Edge{From: arm.ID, To: join})
	prof.AddBlock(arm.ID, -prof.BlockWeight(arm.ID))
}

// removeOp deletes op from blk.
func removeOp(blk *ir.Block, op *ir.Op) {
	for i, o := range blk.Ops {
		if o == op {
			blk.Ops = append(blk.Ops[:i], blk.Ops[i+1:]...)
			return
		}
	}
}
