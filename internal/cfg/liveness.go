package cfg

import (
	"math/bits"

	"treegion/internal/ir"
)

// BitSet is a word-packed register set over the registers of one Liveness
// that can be live anywhere: those some reachable block reads before
// writing them. All BitSets of one Liveness share a single uint64 slab, so
// computing liveness for a function costs a handful of allocations
// regardless of block count. Every other register reports not-present:
// registers no block reads before writing, and registers minted after the
// snapshot (scheduler renaming), matching the map-based semantics the
// renamer relies on.
type BitSet struct {
	lv    *Liveness
	words []uint64
}

// Has reports membership.
func (s BitSet) Has(r ir.Reg) bool {
	k := s.lv.index(r)
	return k >= 0 && s.words[k>>6]&(1<<(uint(k)&63)) != 0
}

// Count returns the number of registers in the set.
func (s BitSet) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s BitSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Liveness holds per-block live-in register sets, from the standard
// backward dataflow. The treegion scheduler consults live-in sets of
// off-path blocks to decide when speculation requires renaming; nothing
// reads live-out sets, so none are kept.
type Liveness struct {
	LiveIn []BitSet // indexed by BlockID
	// slots[c][num] numbers register {c, num}; see regSlot.
	slots [5][]regSlot
}

// regSlot is one register's entry in the numbering walk.
type regSlot struct {
	// seen is the ID+1 of the last block that read the register before
	// writing it or killed it: the first such event in a block decides the
	// register's role there, and later ones are ignored.
	seen int32
	// k is the register's dense index plus one, or 0 when no reachable
	// block reads it before writing it.
	k int32
}

// index returns r's dense index, or -1 when r cannot be live.
func (lv *Liveness) index(r ir.Reg) int {
	if int(r.Class) >= len(lv.slots) {
		return -1
	}
	t := lv.slots[r.Class]
	if uint(r.Num) >= uint(len(t)) {
		return -1
	}
	return int(t[r.Num].k) - 1
}

// slot returns r's entry, growing its class's table for a register
// numbered past the allocator's high-water mark (hand-numbered and never
// noted).
func (lv *Liveness) slot(r ir.Reg) *regSlot {
	t := lv.slots[r.Class]
	if r.Num >= len(t) {
		t = append(t, make([]regSlot, r.Num+1-len(t))...)
		lv.slots[r.Class] = t
	}
	return &t[r.Num]
}

// ComputeLiveness solves in = use ∪ (∪ in[succ] \ kill) over g's reachable
// blocks, with guarded definitions not killing (a predicated-off op leaves
// the pre-existing value flowing through). Unreachable blocks keep empty
// sets.
//
// A register can be live-in somewhere only if some reachable block reads
// it before writing it, so one walk over the ops numbers just those
// registers, records each block's reads-before-writes and kills, and the
// sets pack into words over that smaller universe. Each block keeps two
// rows, in (seeded with its reads) and kill. A worklist seeded in
// postorder then re-queues a block's reachable predecessors only when the
// block's live-in set grew.
func ComputeLiveness(g *Graph) *Liveness {
	fn := g.Fn
	n := len(fn.Blocks)
	lv := &Liveness{}
	for c := range lv.slots {
		lv.slots[c] = make([]regSlot, fn.NumRegs(ir.RegClass(c)))
	}

	// The walk. ends[2b] and ends[2b+1] are where block b's reads (dense
	// indices) and kills (registers, numbered only once the walk is done)
	// end in their lists.
	nops := fn.NumOps()
	reads := make([]int32, 0, nops)
	kills := make([]ir.Reg, 0, nops)
	ends := make([]int32, 2*n)
	next := int32(0)
	var stamp int32
	read := func(r ir.Reg) {
		if s := lv.slot(r); s.seen != stamp {
			s.seen = stamp
			if s.k == 0 {
				next++
				s.k = next
			}
			reads = append(reads, s.k-1)
		}
	}
	for _, b := range fn.Blocks {
		if g.Reachable(b.ID) {
			stamp = int32(b.ID) + 1
			for _, op := range b.Ops {
				if op.Guarded() {
					read(op.Guard)
				}
				for _, r := range op.Srcs {
					if r.IsValid() {
						read(r)
					}
				}
				// A guarded definition may not execute, so it does not kill:
				// the pre-existing value can still flow through the block.
				if op.Guarded() {
					continue
				}
				for _, r := range op.Dests {
					if !r.IsValid() {
						continue
					}
					if s := lv.slot(r); s.seen != stamp {
						s.seen = stamp
						kills = append(kills, r)
					}
				}
			}
		}
		ends[2*b.ID], ends[2*b.ID+1] = int32(len(reads)), int32(len(kills))
	}

	nw := (int(next) + 63) / 64
	rows := make([]uint64, 2*n*nw)
	in := func(b ir.BlockID) []uint64 { return rows[2*int(b)*nw : (2*int(b)+1)*nw] }
	kill := func(b ir.BlockID) []uint64 { return rows[(2*int(b)+1)*nw : (2*int(b)+2)*nw] }
	var r0, k0 int32
	for b := 0; b < n; b++ {
		r1, k1 := ends[2*b], ends[2*b+1]
		w := in(ir.BlockID(b))
		for _, k := range reads[r0:r1] {
			w[k>>6] |= 1 << (uint(k) & 63)
		}
		w = kill(ir.BlockID(b))
		for _, r := range kills[k0:k1] {
			if k := lv.index(r); k >= 0 {
				w[k>>6] |= 1 << (uint(k) & 63)
			}
		}
		r0, k0 = r1, k1
	}

	// The worklist: a FIFO ring over the reachable blocks, which holds each
	// block at most once.
	m := len(g.RPO)
	queue := make([]ir.BlockID, m)
	queued := make([]bool, n)
	for i, b := range g.RPO {
		queue[m-1-i] = b
		queued[b] = true
	}
	head, size := 0, m
	for size > 0 {
		b := queue[head]
		head, size = (head+1)%m, size-1
		queued[b] = false
		bin, bkill := in(b), kill(b)
		grew := false
		for _, s := range g.Succs[b] {
			for w, v := range in(s) {
				if nv := bin[w] | v&^bkill[w]; nv != bin[w] {
					bin[w] = nv
					grew = true
				}
			}
		}
		if !grew {
			continue
		}
		for _, p := range g.Preds[b] {
			if g.Reachable(p) && !queued[p] {
				queued[p] = true
				queue[(head+size)%m] = p
				size++
			}
		}
	}

	lv.LiveIn = make([]BitSet, n)
	for b := range lv.LiveIn {
		lv.LiveIn[b] = BitSet{lv: lv, words: in(ir.BlockID(b))}
	}
	return lv
}
