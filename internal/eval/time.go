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
	"treegion/internal/region"
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
	// nspecDefs and nbranches size the two lists before they are filled.
	nspecDefs, nbranches int
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

// measurer is measurement's working set: the views, the two slabs their
// spec-def and branch lists are carved from, the path buffer and the exit
// list. Every compile measures on its Arena's; MeasureRegion uses a fresh
// one. It keeps nothing from one region to the next but capacity.
type measurer struct {
	views    []blockView
	specSlab []specDef
	brSlab   []branchAt
	path     []ir.BlockID
	exits    []region.Exit
}

// MeasureRegion computes the region's weighted time under the profile. The
// liveness must cover the scheduled function (post-renaming liveness is not
// required: renamed registers are region-local and their live-out values
// travel through non-speculatable copies, which are accounted separately).
// It measures on a fresh scratch; a compile measures on its Arena's
// (Arena.MeasureRegion).
func MeasureRegion(s *sched.Schedule, prof *profile.Data, lv *cfg.Liveness) RegionTime {
	return new(measurer).measure(s, prof, lv)
}

func (m *measurer) measure(s *sched.Schedule, prof *profile.Data, lv *cfg.Liveness) RegionTime {
	r := s.Graph.Region
	if cap(m.views) < len(r.Blocks) {
		m.views = make([]blockView, len(r.Blocks))
	}
	views := m.views[:len(r.Blocks)]
	m.views = views
	for i := range views {
		views[i] = blockView{nonspec: -1, nonspecCopies: -1, terms: -1}
	}
	// One counting pass takes the maxima and sizes every view's lists, so
	// the lists are carved from two slabs and filled without growth.
	nspec, nbr := 0, 0
	for _, n := range s.Graph.Nodes {
		v := &views[r.Pos(n.Home)]
		c := s.Cycle[n.Index]
		switch {
		case n.Term:
			v.terms = max(v.terms, c)
			if n.Op.IsBranch() {
				v.nbranches++
				nbr++
			}
		case !n.Spec:
			v.nonspecCopies = max(v.nonspecCopies, c)
			if !n.IsCopy() {
				v.nonspec = max(v.nonspec, c)
			}
		case len(n.Op.Dests) > 0:
			v.nspecDefs++
			nspec++
		}
	}
	if cap(m.specSlab) < nspec {
		m.specSlab = make([]specDef, nspec)
	}
	if cap(m.brSlab) < nbr {
		m.brSlab = make([]branchAt, nbr)
	}
	so, bo := 0, 0
	for i := range views {
		v := &views[i]
		v.specDefs = m.specSlab[so : so : so+v.nspecDefs]
		v.branches = m.brSlab[bo : bo : bo+v.nbranches]
		so += v.nspecDefs
		bo += v.nbranches
	}
	for _, n := range s.Graph.Nodes {
		v := &views[r.Pos(n.Home)]
		c := s.Cycle[n.Index]
		switch {
		case n.Term && n.Op.IsBranch():
			v.branches = append(v.branches, branchAt{op: n.Op, cycle: c})
		case !n.Term && n.Spec && len(n.Op.Dests) > 0:
			v.specDefs = append(v.specDefs, specDef{cycle: c, dests: n.Op.Dests})
		}
	}

	var rt RegionTime
	addPath := func(w float64, b ir.BlockID, br *ir.Op, target ir.BlockID) {
		if w == 0 {
			return
		}
		rt.Time += w * float64(m.pathMax(r, lv, b, br, target, false))
		rt.TimeWithCopies += w * float64(m.pathMax(r, lv, b, br, target, true))
	}
	m.exits = r.AppendExits(m.exits[:0])
	for _, e := range m.exits {
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

// pathMax walks root..b accumulating the cycles the path waits for, and
// returns the path's height.
func (m *measurer) pathMax(r *region.Region, lv *cfg.Liveness, b ir.BlockID, exitBr *ir.Op, target ir.BlockID, withCopies bool) int {
	max := -1
	bump := func(c int) {
		if c > max {
			max = c
		}
	}
	m.path = r.AppendPathTo(m.path[:0], b)
	path := m.path
	for i, x := range path {
		v := &m.views[r.Pos(x)]
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
