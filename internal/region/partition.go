package region

import (
	"fmt"

	"treegion/internal/ir"
)

// Partition is the block partition of one function, the object treeform
// (Fig. 2) and treeform-td (Fig. 11) produce: every block belongs to at most
// one region, and once formation is done to exactly one. It is the function's
// only record of block ownership — each block's owning region and its
// preorder position there — and every region of the function reads it for
// membership, positions and parents. Formation and the store's decode write
// it, through NewRegion and Add; nothing writes it afterwards.
type Partition struct {
	fn *ir.Function
	// slots is indexed by BlockID. It grows when formation appends blocks to
	// the function (tail duplicates, inline splices) and then claims them.
	slots   []slot
	regions []*Region
	owned   int
}

// slot is one block's entry: its owner as a 1-based index into regions
// (0 = unowned) and its preorder position in that region.
type slot struct{ region, pos int32 }

// NewPartition starts an empty partition of fn.
func NewPartition(fn *ir.Function) *Partition {
	return &Partition{fn: fn, slots: make([]slot, len(fn.Blocks))}
}

// NewRegion starts a region of p containing just root, which must not
// belong to any region of p yet.
func (p *Partition) NewRegion(kind Kind, root ir.BlockID) *Region {
	return p.newRegion(kind, root, 1)
}

// newRegion is NewRegion with room reserved for n blocks.
func (p *Partition) newRegion(kind Kind, root ir.BlockID, n int) *Region {
	r := &Region{
		Fn:      p.fn,
		Kind:    kind,
		Root:    root,
		Blocks:  append(make([]ir.BlockID, 0, n), root),
		part:    p,
		id:      int32(len(p.regions) + 1),
		parents: append(make([]ir.BlockID, 0, n), ir.NoBlock),
	}
	p.claim(r, root, 0)
	p.regions = append(p.regions, r)
	return r
}

// claim records b as r's member at preorder position pos. It panics if b
// is not a block of the function or already belongs to a region of p.
func (p *Partition) claim(r *Region, b ir.BlockID, pos int) {
	if n := len(p.fn.Blocks); n > len(p.slots) {
		p.slots = append(p.slots, make([]slot, n-len(p.slots))...)
	}
	if o := p.slots[b].region; o != 0 {
		panic(fmt.Sprintf("region: bb%d already belongs to the region rooted at bb%d", b, p.regions[o-1].Root))
	}
	p.slots[b] = slot{r.id, int32(pos)}
	p.owned++
}

// at returns b's entry, the zero slot for a block p has never seen.
func (p *Partition) at(b ir.BlockID) slot {
	if b < 0 || int(b) >= len(p.slots) {
		return slot{}
	}
	return p.slots[b]
}

// Owner returns the region of p that b belongs to, or nil.
func (p *Partition) Owner(b ir.BlockID) *Region {
	if o := p.at(b).region; o != 0 {
		return p.regions[o-1]
	}
	return nil
}

// Check reports whether regions are exactly p's regions, in the order they
// were started, and cover every block of the function. It reads p's
// owned-block count and builds no map; the error names the first uncovered
// block. CheckPartition is the independent, map-based oracle.
func (p *Partition) Check(regions []*Region) error {
	if len(regions) != len(p.regions) {
		return fmt.Errorf("%d regions listed, %d formed", len(regions), len(p.regions))
	}
	for i, r := range regions {
		if r != p.regions[i] {
			return fmt.Errorf("region %d is not the partition's region %d", i, i)
		}
	}
	// claim admits only blocks of the function, once each, so the count
	// falls short exactly when some block is uncovered.
	if p.owned < len(p.fn.Blocks) {
		for _, b := range p.fn.Blocks {
			if p.at(b.ID).region == 0 {
				return fmt.Errorf("bb%d in no region", b.ID)
			}
		}
	}
	return nil
}
