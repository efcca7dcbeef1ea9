package verify

import (
	"fmt"
	"slices"

	"treegion/internal/cfg"
	"treegion/internal/core"
	"treegion/internal/inline"
	"treegion/internal/ir"
	"treegion/internal/region"
)

// Region-invariant rules. The checks re-derive every invariant from the CFG
// and the region's block lists; none of them consult the formers' own
// bookkeeping.
//
//	RG001  broken region tree: preorder, parentage or CFG edges inconsistent
//	RG002  the regions do not partition the function's blocks
//	RG003  a non-root member has a predecessor other than its tree parent
//	       (single-entry-tree / no-merge-point invariant, paper Section 2)
//	RG004  a region violates its kind's shape (linear regions with tree
//	       branching, multi-block "basic block" regions)
//	RG005  tail duplication exceeded its configured limits (paper Section 4:
//	       code-expansion limit, path-count limit)

// CheckRegionsInline runs the region rules over a function's region
// partition. td bounds KindTreegionTD regions; a zero ExpansionLimit skips
// RG005 (the caller does not know the formation configuration).
//
// It is aware of demand-driven inlining: in's splice records identify the
// continuation blocks, which carry their host's Orig for trace purposes but
// are not tail duplicates and must not count against the RG005 expansion
// budget. A nil in means no calls were inlined. It runs on a fresh Scratch.
func CheckRegionsInline(fn *ir.Function, regions []*region.Region, td core.TDConfig, in *inline.Stats) []Diagnostic {
	return new(Scratch).checkRegions(fn, cfg.New(fn), regions, td, in)
}

// checkRegions is CheckRegionsInline on the scratch's tables; g is fn's
// CFG.
func (sc *Scratch) checkRegions(fn *ir.Function, g *cfg.Graph, regions []*region.Region, td core.TDConfig, in *inline.Stats) []Diagnostic {
	c := &sc.rg
	c.fn, c.g, c.conts, c.ds = fn, g, nil, nil
	if in != nil {
		c.conts = make(map[ir.BlockID]bool, len(in.Splices))
		for _, sp := range in.Splices {
			c.conts[sp.Cont] = true
		}
	}
	// Block IDs outside the function go in a map.
	c.owner = growClear(c.owner, len(fn.Blocks))
	c.seen = growClear(c.seen, len(fn.Blocks))
	var over map[ir.BlockID]int
	ownerOf := func(b ir.BlockID) (int, bool) {
		if b >= 0 && int(b) < len(c.owner) {
			return int(c.owner[b]) - 1, c.owner[b] != 0
		}
		i, ok := over[b]
		return i, ok
	}
	for i, r := range regions {
		c.tree(i, r)
		c.kind(i, r)
		if r.Kind == region.KindTreegionTD {
			c.tdBounds(i, r, td)
		}
		for _, b := range r.Blocks {
			if prev, dup := ownerOf(b); dup {
				c.add("RG002", Error, b, "bb%d belongs to regions %d and %d", b, prev, i)
			} else if b >= 0 && int(b) < len(c.owner) {
				c.owner[b] = int32(i) + 1
			} else {
				if over == nil {
					over = make(map[ir.BlockID]int)
				}
				over[b] = i
			}
		}
	}
	for _, b := range fn.Blocks {
		if _, ok := ownerOf(b.ID); !ok {
			c.add("RG002", Error, b.ID, "bb%d belongs to no region", b.ID)
		}
	}
	ds := c.ds
	c.fn, c.g, c.conts, c.ds = nil, nil, nil, nil
	return ds
}

// regionChecker is the region rules' working state, kept in a Scratch.
type regionChecker struct {
	fn *ir.Function
	g  *cfg.Graph
	// conts marks inline continuation blocks (non-nil only when splice
	// records were supplied); see tdBounds.
	conts map[ir.BlockID]bool
	ds    []Diagnostic
	// owner and seen are indexed by BlockID over the function's blocks.
	// owner holds 1 + the first region listing each block; seen marks the
	// blocks one region's tree walk has passed, and the walk clears its
	// marks before it returns.
	owner []int32
	seen  []bool
	succs []ir.BlockID
}

func (c *regionChecker) add(rule string, sev Severity, b ir.BlockID, format string, args ...interface{}) {
	c.ds = append(c.ds, Diagnostic{
		Rule: rule, Severity: sev, Fn: c.fn.Name, Block: b, Op: -1,
		Message: fmt.Sprintf(format, args...),
	})
}

// tree re-derives RG001 (the block list is a preorder of a tree rooted at
// Root whose edges exist in the CFG) and RG003 (every non-root member's only
// CFG predecessor is its tree parent).
func (c *regionChecker) tree(i int, r *region.Region) {
	if len(r.Blocks) == 0 {
		c.add("RG001", Error, ir.NoBlock, "region %d has no blocks", i)
		return
	}
	if r.Blocks[0] != r.Root {
		c.add("RG001", Error, r.Root, "region %d root bb%d is not Blocks[0] (bb%d)", i, r.Root, r.Blocks[0])
	}
	seen := c.seen
	for j, b := range r.Blocks {
		if b < 0 || int(b) >= len(c.fn.Blocks) {
			c.add("RG001", Error, b, "region %d contains missing bb%d", i, b)
			continue
		}
		if seen[b] {
			c.add("RG001", Error, b, "region %d lists bb%d twice", i, b)
			continue
		}
		seen[b] = true
		if j == 0 {
			continue
		}
		p := r.Parent(b)
		if p < 0 || int(p) >= len(seen) || !seen[p] {
			c.add("RG001", Error, b, "region %d member bb%d has parent bb%d outside the preceding preorder", i, b, p)
			continue
		}
		c.succs = c.fn.Block(p).AppendSuccs(c.succs[:0])
		if !slices.Contains(c.succs, b) {
			c.add("RG001", Error, b, "region %d tree edge bb%d->bb%d is not a CFG edge", i, p, b)
		}
		// Single-entry tree: one predecessor, the tree parent. The root is
		// the region's only permitted merge point.
		preds := c.g.Preds[b]
		if len(preds) != 1 || preds[0] != p {
			c.add("RG003", Error, b,
				"region %d member bb%d has %d CFG predecessors (want exactly its tree parent bb%d): merge point inside a region",
				i, b, len(preds), p)
		}
	}
	// Every block marked above is in range.
	for _, b := range r.Blocks {
		if b >= 0 && int(b) < len(seen) {
			seen[b] = false
		}
	}
}

// kind checks RG004: the shape each region kind promises.
func (c *regionChecker) kind(i int, r *region.Region) {
	switch r.Kind {
	case region.KindBasicBlock:
		if len(r.Blocks) != 1 {
			c.add("RG004", Error, r.Root, "region %d is a basic-block region with %d blocks", i, len(r.Blocks))
		}
	case region.KindSLR, region.KindSuperblock:
		for _, b := range r.Blocks {
			if ch := r.Children(b); len(ch) > 1 {
				c.add("RG004", Error, b, "region %d (%s) is not linear: bb%d has %d in-region children", i, r.Kind, b, len(ch))
			}
		}
	}
}

// tdBounds checks RG005 over a tail-duplicated treegion. Sizes mirror the
// former's growth measure (ops plus one per block) with renaming copies
// excluded — they are inserted after formation and must not count against
// the formation-time budget. The sound post-hoc invariant is
//
//	size(duplicated blocks) <= (limit-1) * size(original blocks)
//
// because every admission is checked against limit * (size at initial
// absorption), and initial absorption plus directly absorbed saplings are
// exactly the blocks that kept their original identity (Orig == ID).
func (c *regionChecker) tdBounds(i int, r *region.Region, td core.TDConfig) {
	if td.ExpansionLimit == 0 {
		return
	}
	// Mirror the former's defaulting so callers can pass a raw config.
	if td.PathLimit <= 0 {
		td.PathLimit = 20
	}
	if td.ExpansionLimit < 1 {
		td.ExpansionLimit = 1
	}
	orig, dup := 0, 0
	for _, bid := range r.Blocks {
		if bid < 0 || int(bid) >= len(c.fn.Blocks) {
			return // RG001 already reported; sizes would be meaningless
		}
		blk := c.fn.Block(bid)
		w := 1
		for _, op := range blk.Ops {
			if op.Opcode != ir.Copy {
				w++
			}
		}
		// Original-identity weight: blocks that kept their ID, inline
		// continuations (they carry their host's Orig for the trace, but are
		// split-off original code, not duplicates), and spliced callee
		// bodies (Orig in a callee namespace). A tail duplicate OF a spliced
		// block also lands in the namespaced arm — that only loosens the
		// bound (undercounts dup), so it cannot produce a false positive.
		switch {
		case blk.Orig == bid, c.conts[bid], int(blk.Orig) >= ir.OrigStride:
			orig += w
		default:
			dup += w
		}
	}
	if float64(dup) > (td.ExpansionLimit-1)*float64(orig)+1e-6 {
		c.add("RG005", Error, r.Root,
			"region %d duplicated %d ops+blocks onto an original size of %d, beyond expansion limit %.2g",
			i, dup, orig, td.ExpansionLimit)
	}
	// The former tests the path limit before each admission, so the final
	// admission may legally overshoot by the leaves of the one subtree it
	// absorbed. Post hoc, an overshoot is legal iff undoing some single
	// admitted subtree brings the count back within the limit; report only
	// counts no single admission can explain.
	if pc := r.PathCount(); pc > td.PathLimit && !c.overshootExplained(r, pc, td.PathLimit) {
		c.add("RG005", Error, r.Root,
			"region %d has %d root-to-leaf paths (limit %d, not attributable to one admission)",
			i, pc, td.PathLimit)
	}
}

// overshootExplained reports whether removing some non-root member's
// subtree — the candidate final admission — reconstructs a pre-admission
// path count within the limit. Removing subtree c turns its parent into a
// leaf when c was the parent's only in-region child.
func (c *regionChecker) overshootExplained(r *region.Region, pc, limit int) bool {
	for _, b := range r.Blocks[1:] {
		leaves := 0
		for _, s := range r.Subtree(b) {
			if r.IsLeaf(s) {
				leaves++
			}
		}
		before := pc - leaves
		if len(r.Children(r.Parent(b))) == 1 {
			before++
		}
		if before <= limit {
			return true
		}
	}
	return false
}
