package linear

import (
	"treegion/internal/cfg"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/region"
)

// SLRs forms simple linear regions over fn: single-entry, multiple-exit
// paths grown exactly like treegions except that from each block only the
// successor with the highest profile weight is considered for inclusion
// (Section 3 of the paper), and no tail duplication is performed.
//
// Every block ends up in exactly one region; saplings (blocks stopped at)
// seed new regions, as in treegion formation.
func SLRs(fn *ir.Function, g *cfg.Graph, prof *profile.Data) []*region.Region {
	var out []*region.Region
	part := region.NewPartition(fn)
	queue := []ir.BlockID{fn.Entry}
	// Unreachable blocks still need regions (scheduling covers all code);
	// append them to the worklist after the entry so reachable code claims
	// blocks first.
	for _, b := range fn.Blocks {
		if !g.Reachable(b.ID) {
			queue = append(queue, b.ID)
		}
	}
	for len(queue) > 0 {
		root := queue[0]
		queue = queue[1:]
		if part.Owner(root) != nil {
			continue
		}
		r := part.NewRegion(region.KindSLR, root)
		// Grow along the best-weighted successor chain.
		cur := root
		for {
			next, _ := prof.BestSucc(fn, cur)
			if next == ir.NoBlock || part.Owner(next) != nil || g.IsMergePoint(next) {
				break
			}
			r.Add(next, cur)
			cur = next
		}
		out = append(out, r)
		// Every successor not in a region is a sapling rooting a new one.
		for _, b := range r.Blocks {
			for _, s := range fn.Block(b).Succs() {
				if part.Owner(s) == nil {
					queue = append(queue, s)
				}
			}
		}
	}
	return out
}
