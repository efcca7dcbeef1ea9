package core

import (
	"time"

	"treegion/internal/cfg"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/region"
	"treegion/internal/telemetry"
)

// TDConfig carries the paper's tail-duplication heuristics (Section 4): the
// per-treegion code-expansion limit, the path-count limit, and the sapling
// merge-count limit (waived for merge points with no successors, such as
// function exits).
type TDConfig struct {
	ExpansionLimit float64 // e.g. 2.0 or 3.0 (× original code size per treegion)
	PathLimit      int     // paper: 20
	MergeLimit     int     // paper: 4
}

// DefaultTDConfig returns the paper's experimental settings with the 2.0
// expansion limit.
func DefaultTDConfig() TDConfig {
	return TDConfig{ExpansionLimit: 2.0, PathLimit: 20, MergeLimit: 4}
}

// FormTD is the paper's treeform-td (Fig. 11): treegion formation where,
// after a tree's initial absorption, qualifying saplings are tail duplicated
// onto the tree (or absorbed directly once duplication has left them with a
// single incoming edge) until no sapling qualifies. The profile is kept
// consistent: duplicates inherit the weight of the re-routed edge.
func FormTD(fn *ir.Function, prof *profile.Data, td TDConfig) []*region.Region {
	return FormTDInlineTraced(fn, prof, td, nil, nil)
}

// FormTDInlineTraced is FormTD recording each tail duplication's wall time
// and duplicated op count on tr as the tail-dup phase (nil disables
// tracing), with a demand-driven block rewriter (the inliner) consulted for
// every block as it joins a region — including blocks a splice itself
// appended, so inlined bodies absorb and tail duplicate like original code.
// Blocks created by tail duplication are NOT offered to the rewriter:
// residual calls in a duplicate stay residual, keeping the duplicate's
// semantics byte-for-byte those of its original. A nil rewriter reproduces
// FormTD exactly.
func FormTDInlineTraced(fn *ir.Function, prof *profile.Data, td TDConfig, tr *telemetry.CompileTrace, rw BlockRewriter) []*region.Region {
	if td.PathLimit <= 0 {
		td.PathLimit = 20
	}
	if td.MergeLimit <= 0 {
		td.MergeLimit = 4
	}
	if td.ExpansionLimit < 1 {
		td.ExpansionLimit = 1
	}
	g := cfg.New(fn)
	f := newFormer(fn, g)
	f.rw = rw
	e := &expander{f: f, prof: prof, td: td, tr: tr}
	return f.form(region.KindTreegionTD, e.expand)
}

type expander struct {
	f    *former
	prof *profile.Data
	td   TDConfig
	tr   *telemetry.CompileTrace
	// base is the current tree's size at initial absorption; see expand.
	base int
}

// size is the growth measure used for the expansion limit: ops plus one per
// block, so duplicating even an empty block consumes budget (termination).
// Copy ops are excluded: they ride free in the machine model (see
// ListSchedule), and the inliner binds arguments and returns with copies
// while formation is underway — without the exclusion those bindings would
// inflate a tree's recorded original size and let tail duplication overshoot
// the post-hoc RG005 invariant. Legacy formation never sees a Copy (renaming
// inserts them after formation), so the exclusion is exact there.
func blockSize(fn *ir.Function, b ir.BlockID) int {
	n := 1
	for _, op := range fn.Block(b).Ops {
		if op.Opcode != ir.Copy {
			n++
		}
	}
	return n
}

// expand applies tail duplication to one freshly absorbed treegion until no
// sapling qualifies.
//
// The expansion limit is measured against the tree's size at initial
// absorption ("the original code size per treegion"): everything added
// afterwards — duplicates and directly absorbed saplings alike — counts
// against the budget. Because initial absorptions partition the original
// code, this also bounds whole-function growth by the limit, matching the
// paper's observation that actual expansion stays well under the limit
// (Table 3).
func (e *expander) expand(r *region.Region) {
	f := e.f
	fn := f.fn
	e.base = 0
	for _, b := range r.Blocks {
		e.base += blockSize(fn, b)
	}
	for {
		if r.PathCount() > e.td.PathLimit {
			break
		}
		sap := e.pickSapling(r)
		if sap == ir.NoBlock {
			break
		}
		if f.isMerge(sap) {
			// Tail duplicate the sapling onto this tree: re-route the edge
			// from an in-region predecessor onto a fresh duplicate, then
			// absorb the duplicate (and its subtree).
			p := e.inRegionPred(r, sap)
			if p == ir.NoBlock {
				break // defensive; saplings always have an in-region pred
			}
			t0 := time.Now()
			dup := region.TailDuplicate(fn, e.prof, p, sap)
			e.retargetPreds(p, sap, dup)
			r.Add(dup.ID, p)
			f.absorb(r, dup.ID)
			e.tr.Observe(telemetry.PhaseTailDup, time.Since(t0), len(dup.Ops))
		} else {
			// A single remaining incoming edge: absorb directly.
			p := f.preds[sap][0]
			r.Add(sap, p)
			f.entered(sap)
			f.absorb(r, sap)
		}
	}
}

// pickSapling returns the first sapling of r that passes the paper's three
// qualification tests, or ir.NoBlock.
func (e *expander) pickSapling(r *region.Region) ir.BlockID {
	f := e.f
	curSize := 0
	for _, b := range r.Blocks {
		curSize += blockSize(f.fn, b)
	}
	for _, s := range f.saplings(r) {
		// Merge-count limit, waived for merge points with no successors
		// (function exits), which are cheap to duplicate repeatedly.
		if len(f.preds[s]) > e.td.MergeLimit && f.fn.Block(s).NumSuccs() > 0 {
			continue
		}
		// Code-expansion limit against the tree's initial size.
		add := blockSize(f.fn, s)
		if float64(curSize+add) > e.td.ExpansionLimit*float64(e.base) {
			continue
		}
		return s
	}
	return ir.NoBlock
}

// inRegionPred finds a predecessor of sap that belongs to r.
func (e *expander) inRegionPred(r *region.Region, sap ir.BlockID) ir.BlockID {
	for _, p := range e.f.preds[sap] {
		if r.Contains(p) {
			return p
		}
	}
	return ir.NoBlock
}

// retargetPreds updates the former's predecessor bookkeeping after
// TailDuplicate moved the edge p→sap onto p→dup and created dup's outgoing
// edges.
func (e *expander) retargetPreds(p, sap ir.BlockID, dup *ir.Block) {
	f := e.f
	lst := f.preds[sap]
	for i, q := range lst {
		if q == p {
			f.preds[sap] = append(lst[:i:i], lst[i+1:]...)
			break
		}
	}
	f.grow()
	f.preds[dup.ID] = []ir.BlockID{p}
	for _, s := range f.succsOf(dup.ID) {
		f.preds[s] = append(f.preds[s], dup.ID)
	}
}
