package ddg

import "treegion/internal/ir"

// rename performs the paper's compile-time register renaming: any
// speculatable op whose destination would clobber a value live on some
// other path (were the op hoisted above the diverging branch) gets a fresh
// destination register. In-region consumers are rewritten to read the fresh
// register directly (so they can chase the speculated value), and a Copy op
// restoring the original register is placed at the op's home position; the
// copy is non-speculatable and carries the value to paths that leave the
// region. The paper excludes these copies from speedup accounting.
func (b *builder) rename() {
	r := b.g.Region
	fn := b.g.Fn
	for _, bid := range r.Blocks {
		blk := fn.Block(bid)
		for i := 0; i < len(blk.Ops); i++ {
			op := blk.Ops[i]
			if b.isGone(op) || !op.Opcode.Speculatable() || len(op.Dests) == 0 {
				continue
			}
			if _, merged := b.homeOf(op); merged {
				continue // merged representatives are pinned, never renamed
			}
			if op.Guarded() {
				// A guarded definition cannot be renamed: the restoring
				// copy would have to be predicated too. Pin it instead.
				for _, d := range op.Dests {
					if d.IsValid() && b.conflictsOffPath(bid, d) {
						b.setPinned(op)
						break
					}
				}
				continue
			}
			inserted := 0
			for di, d := range op.Dests {
				if !d.IsValid() || !b.conflictsOffPath(bid, d) {
					continue
				}
				fresh := fn.NewReg(d.Class)
				op.Dests[di] = fresh
				op.Renamed = true
				cp := fn.NewOp(ir.Copy)
				cp.Dests = []ir.Reg{d}
				cp.Srcs = []ir.Reg{fresh}
				insertAt(blk, i+1+inserted, cp)
				inserted++
				b.g.NumCopies++
				b.rewriteUses(bid, i+1+inserted, d, fresh)
			}
			if inserted > 0 {
				b.g.NumRenamed++
				i += inserted // skip the copies we just placed
			}
		}
	}
}

// pinConflicting implements restricted speculation for schedulers without
// renaming: every speculatable op whose destination conflicts off-path is
// pinned below its controlling branch instead of being renamed.
func (b *builder) pinConflicting() {
	for _, bid := range b.g.Region.Blocks {
		for _, op := range b.g.Fn.Block(bid).Ops {
			if b.isGone(op) || !op.Opcode.Speculatable() || len(op.Dests) == 0 {
				continue
			}
			if _, merged := b.homeOf(op); merged {
				continue
			}
			for _, d := range op.Dests {
				if d.IsValid() && b.conflictsOffPath(bid, d) {
					b.setPinned(op)
					break
				}
			}
		}
	}
}

// buildDefBits snapshots, per member block, the set of registers a
// surviving op defines, as bitsets over the region-local register numbering
// (which it extends to every destination in the region). It runs after
// dominator merging (the gone set is final) and before renaming. Renaming
// keeps the table valid for the original registers it is queried with: a
// renamed op's old destination is re-defined in the same block by the
// inserted Copy, and fresh registers are never looked up. Only member
// blocks are ever queried, so the table is region-sized.
func (b *builder) buildDefBits() {
	r := b.g.Region
	for _, bid := range r.Blocks {
		for _, op := range b.g.Fn.Block(bid).Ops {
			if b.isGone(op) {
				continue
			}
			for _, d := range op.Dests {
				b.number(d)
			}
		}
	}
	b.defRegs = len(b.regOf)
	b.defNW = (b.defRegs + 63) / 64
	b.defBits = growClear(b.defBits, len(r.Blocks)*b.defNW)
	for i, bid := range r.Blocks {
		w := b.defBits[i*b.defNW : (i+1)*b.defNW]
		for _, op := range b.g.Fn.Block(bid).Ops {
			if b.isGone(op) {
				continue
			}
			for _, d := range op.Dests {
				if k := b.local(d); k >= 0 {
					w[k>>6] |= 1 << (uint(k) & 63)
				}
			}
		}
	}
}

// conflictsOffPath reports whether hoisting a definition of d from block bid
// to the top of the region could be observed on some path other than
// root..bid: d is live into a sibling subtree or a region-exit target of an
// ancestor divergence, or some sibling subtree also defines d.
func (b *builder) conflictsOffPath(bid ir.BlockID, d ir.Reg) bool {
	r := b.g.Region
	fn := b.g.Fn
	lv := b.opts.Liveness
	cur := bid
	for {
		parent := r.Parent(cur)
		if parent == ir.NoBlock {
			return false
		}
		b.succBuf = fn.Block(parent).AppendSuccs(b.succBuf[:0])
		for _, s := range b.succBuf {
			if s == cur && r.Contains(s) && r.Parent(s) == parent {
				continue // the on-path edge
			}
			if lv.LiveIn[s].Has(d) {
				return true
			}
			if r.Contains(s) && r.Parent(s) == parent {
				// Sibling subtree: a second definition of d there would race
				// with ours once both speculate above the divergence.
				b.subtreeBuf = b.appendSubtree(b.subtreeBuf[:0], s)
				for _, x := range b.subtreeBuf {
					if b.blockDefines(x, d) {
						return true
					}
				}
			}
		}
		cur = parent
	}
}

// blockDefines reports whether a surviving op of member block x writes d.
// During renaming the prebuilt per-block bitsets answer in O(1) for every
// register they cover; during dominator merging (whose incremental
// eliminations would invalidate a snapshot) it scans the ops.
func (b *builder) blockDefines(x ir.BlockID, d ir.Reg) bool {
	if k := int(b.local(d)); k >= 0 && k < b.defRegs {
		i := b.g.Region.Pos(x)
		return b.defBits[i*b.defNW+(k>>6)]&(1<<(uint(k)&63)) != 0
	}
	for _, op := range b.g.Fn.Block(x).Ops {
		if b.isGone(op) {
			continue
		}
		for _, dd := range op.Dests {
			if dd == d {
				return true
			}
		}
	}
	return false
}

// rewriteUses replaces reads of old with fresh from position from in block
// bid onward, descending the region subtree, stopping along each path at a
// surviving redefinition of old (whose consumers want the new value).
func (b *builder) rewriteUses(bid ir.BlockID, from int, old, fresh ir.Reg) {
	fn := b.g.Fn
	blk := fn.Block(bid)
	for _, op := range blk.Ops[from:] {
		if b.isGone(op) {
			continue
		}
		for si, s := range op.Srcs {
			if s == old {
				op.Srcs[si] = fresh
			}
		}
		for _, dd := range op.Dests {
			if dd == old {
				return // redefined; later readers want that def
			}
		}
	}
	for _, c := range b.g.Region.Children(bid) {
		b.rewriteUses(c, 0, old, fresh)
	}
}

// insertAt places op at index i of blk's op list.
func insertAt(blk *ir.Block, i int, op *ir.Op) {
	blk.Ops = append(blk.Ops, nil)
	copy(blk.Ops[i+1:], blk.Ops[i:])
	blk.Ops[i] = op
}
