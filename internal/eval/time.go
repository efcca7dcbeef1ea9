// Package eval estimates program execution time the way the paper does:
// "using the profile count and schedule height of each region". For every
// path through a scheduled region, the path's height is the cycle after the
// last event the path needs: its exit branch, every branch that had to
// resolve before it, every non-speculatable op on the path (stores execute
// before control leaves), and every op whose value is live into the exit
// target. Speculatable ops that are dead at an exit may sink below it and
// do not delay the path. The region contributes the weighted sum of its
// path heights; program time is the sum over regions. Caches are ignored
// and branch prediction is perfect, exactly as in the paper, and copy Ops
// introduced by renaming are excluded from the accounted heights (the
// paper's accounting); TimeWithCopies reports the conservative variant.
package eval

import (
	"treegion/internal/cfg"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/sched"
)

// RegionTime is the estimated cycle count one region contributes.
type RegionTime struct {
	// Time is the paper's metric: Σ over exit paths of weight × height,
	// with renaming copies excluded from heights.
	Time float64
	// TimeWithCopies includes copy ops in the heights.
	TimeWithCopies float64
}

// blockView caches per-block cycle data of one schedule. Views are stored
// densely, indexed by the block's preorder position in the region, so
// measuring a region costs O(region) whatever the size of its function.
type blockView struct {
	nonspec       int // max cycle over non-spec, non-copy, non-term nodes
	nonspecCopies int // ... including copies
	terms         int // max cycle over terminator nodes
	// specDefs are the speculatable value-producing nodes homed here,
	// needed for per-exit liveness checks.
	specDefs []specDef
	// branches are the block's branch nodes with their cycles, for the
	// arm-entry and exit-branch lookups.
	branches []branchAt
}

type specDef struct {
	cycle int
	dests []ir.Reg
}

type branchAt struct {
	op    *ir.Op
	cycle int
}

// branchCycle returns the cycle of branch op among v's branches.
func (v *blockView) branchCycle(op *ir.Op) (int, bool) {
	for _, br := range v.branches {
		if br.op == op {
			return br.cycle, true
		}
	}
	return 0, false
}

// MeasureRegion computes the region's weighted time under the profile. The
// liveness must cover the scheduled function (post-renaming liveness is not
// required: renamed registers are region-local and their live-out values
// travel through non-speculatable copies, which are accounted separately).
func MeasureRegion(s *sched.Schedule, prof *profile.Data, lv *cfg.Liveness) RegionTime {
	r := s.Graph.Region
	views := make([]blockView, len(r.Blocks))
	for i := range views {
		views[i] = blockView{nonspec: -1, nonspecCopies: -1, terms: -1}
	}
	for _, n := range s.Graph.Nodes {
		v := &views[r.Pos(n.Home)]
		c := s.Cycle[n.Index]
		switch {
		case n.Term:
			if c > v.terms {
				v.terms = c
			}
			if n.Op.IsBranch() {
				v.branches = append(v.branches, branchAt{op: n.Op, cycle: c})
			}
		case !n.Spec:
			if c > v.nonspecCopies {
				v.nonspecCopies = c
			}
			if !n.IsCopy() && c > v.nonspec {
				v.nonspec = c
			}
		default:
			if len(n.Op.Dests) > 0 {
				v.specDefs = append(v.specDefs, specDef{cycle: c, dests: n.Op.Dests})
			}
		}
	}

	// pathMax walks root..B accumulating the cycles the path waits for.
	var pathBuf []ir.BlockID
	pathMax := func(b ir.BlockID, exitBr *ir.Op, target ir.BlockID, withCopies bool) int {
		max := -1
		bump := func(c int) {
			if c > max {
				max = c
			}
		}
		pathBuf = r.AppendPathTo(pathBuf[:0], b)
		path := pathBuf
		for i, x := range path {
			v := &views[r.Pos(x)]
			if withCopies {
				bump(v.nonspecCopies)
			} else {
				bump(v.nonspec)
			}
			// Speculatable defs the exit target still needs.
			if target != ir.NoBlock && lv != nil {
				for _, sd := range v.specDefs {
					if sd.cycle <= max {
						continue
					}
					for _, d := range sd.dests {
						if d.IsValid() && lv.LiveIn[target].Has(d) {
							bump(sd.cycle)
							break
						}
					}
				}
			}
			switch {
			case i < len(path)-1:
				// Ancestor: the path continues to path[i+1]. If it leaves
				// via an arm branch, arms after it never execute; if via
				// fallthrough, every arm was checked first.
				next := path[i+1]
				via := -1
				for _, br := range v.branches {
					if br.op.Target == next {
						via = br.cycle
					}
				}
				if via < 0 {
					via = v.terms // fallthrough: all branches resolved
				}
				bump(via)
			case exitBr != nil:
				// The path ends at this exit branch.
				if c, ok := v.branchCycle(exitBr); ok {
					bump(c)
				}
			default:
				// Fallthrough exit or Ret leaf: all terminators resolved.
				bump(v.terms)
			}
		}
		return max + 1
	}

	var rt RegionTime
	addPath := func(w float64, b ir.BlockID, br *ir.Op, target ir.BlockID) {
		if w == 0 {
			return
		}
		rt.Time += w * float64(pathMax(b, br, target, false))
		rt.TimeWithCopies += w * float64(pathMax(b, br, target, true))
	}

	for _, e := range r.Exits() {
		addPath(prof.EdgeWeight(e.From, e.To), e.From, e.Br, e.To)
	}
	// Ret leaves: executions that end the function inside the region.
	for _, b := range r.Blocks {
		blk := r.Fn.Block(b)
		for _, op := range blk.Ops {
			if op.Opcode == ir.Ret {
				addPath(prof.BlockWeight(b), b, nil, ir.NoBlock)
			}
		}
	}
	return rt
}
