// Package linear forms the paper's three linear baseline regions: basic
// blocks, simple linear regions (SLRs), and superblocks. Linear regions are
// represented with the same tree Region type the treegion formers use (a
// path is a degenerate tree), so one scheduler serves everything.
package linear

import (
	"treegion/internal/ir"
	"treegion/internal/region"
)

// BasicBlocks makes each block of fn its own region — the paper's baseline.
func BasicBlocks(fn *ir.Function) []*region.Region {
	part := region.NewPartition(fn)
	out := make([]*region.Region, 0, len(fn.Blocks))
	for _, b := range fn.Blocks {
		out = append(out, part.NewRegion(region.KindBasicBlock, b.ID))
	}
	return out
}
