package region

import (
	"fmt"

	"treegion/internal/ir"
)

// Rebuild reconstructs a region of p from its serialized shape: the
// preorder block list and the parallel parent list, each block's Parent
// (parents[0] must be ir.NoBlock for the root). The artifact store uses
// it to revive a function's regions from disk into one partition, so —
// unlike NewRegion and Add, which panic on programmer error — it
// validates everything and returns an error on malformed input, a block
// another region of p already owns included: corrupt store entries must
// read as cache misses, never as crashes.
func Rebuild(p *Partition, kind Kind, blocks, parents []ir.BlockID, fromTrace bool) (*Region, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("region: rebuild: empty block list")
	}
	if len(parents) != len(blocks) {
		return nil, fmt.Errorf("region: rebuild: %d parents for %d blocks", len(parents), len(blocks))
	}
	if parents[0] != ir.NoBlock {
		return nil, fmt.Errorf("region: rebuild: root bb%d has parent bb%d", blocks[0], parents[0])
	}
	var r *Region
	for i, b := range blocks {
		if b < 0 || int(b) >= len(p.fn.Blocks) {
			return nil, fmt.Errorf("region: rebuild: bb%d out of range", b)
		}
		if o := p.Owner(b); o != nil {
			return nil, fmt.Errorf("region: rebuild: bb%d already in the region rooted at bb%d", b, o.Root)
		}
		if i == 0 {
			// The preorder length is known up front; reserve it so the Add
			// loop never regrows Blocks or parents (regions revive by the
			// thousand on warm decode).
			r = p.newRegion(kind, b, len(blocks))
			r.FromTrace = fromTrace
			continue
		}
		if !r.Contains(parents[i]) {
			return nil, fmt.Errorf("region: rebuild: parent bb%d of bb%d precedes it in no preorder", parents[i], b)
		}
		r.Add(b, parents[i])
	}
	return r, nil
}
