package region

import (
	"fmt"

	"treegion/internal/ir"
)

// Rebuild reconstructs a region from its serialized shape: the preorder
// block list and the parallel parent list (Parents[0] must be ir.NoBlock for
// the root). The artifact store uses it to revive regions from disk, so —
// unlike New/Add, which panic on programmer error — it validates everything
// and returns an error on malformed input: corrupt store entries must read
// as cache misses, never as crashes.
func Rebuild(fn *ir.Function, kind Kind, blocks, parents []ir.BlockID, fromTrace bool) (*Region, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("region: rebuild: empty block list")
	}
	if len(parents) != len(blocks) {
		return nil, fmt.Errorf("region: rebuild: %d parents for %d blocks", len(parents), len(blocks))
	}
	inRange := func(b ir.BlockID) bool { return b >= 0 && int(b) < len(fn.Blocks) }
	if !inRange(blocks[0]) {
		return nil, fmt.Errorf("region: rebuild: root bb%d out of range", blocks[0])
	}
	if parents[0] != ir.NoBlock {
		return nil, fmt.Errorf("region: rebuild: root bb%d has parent bb%d", blocks[0], parents[0])
	}
	// The preorder length is known up front; reserve it so the Add loop
	// never regrows Blocks or parents (regions revive by the thousand on
	// warm decode).
	r := newRegion(fn, kind, blocks[0], len(blocks))
	r.FromTrace = fromTrace
	for i := 1; i < len(blocks); i++ {
		b, p := blocks[i], parents[i]
		if !inRange(b) {
			return nil, fmt.Errorf("region: rebuild: bb%d out of range", b)
		}
		if r.Contains(b) {
			return nil, fmt.Errorf("region: rebuild: bb%d listed twice", b)
		}
		if !r.Contains(p) {
			return nil, fmt.Errorf("region: rebuild: parent bb%d of bb%d precedes it in no preorder", p, b)
		}
		r.Add(b, p)
	}
	return r, nil
}

// Parents returns the parent list parallel to r.Blocks (the root's entry is
// ir.NoBlock), the serialized form Rebuild consumes.
func (r *Region) Parents() []ir.BlockID {
	return append([]ir.BlockID(nil), r.parents...)
}
