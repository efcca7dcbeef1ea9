package ir

// Dense numbering tables. Op IDs are already dense per function (NewOp hands
// them out sequentially), and virtual registers are dense per class; the hot
// analyses (liveness, DDG construction, scheduling) exploit both to replace
// pointer- and struct-keyed maps with flat slices and bitsets. The tables
// here are snapshots: they cover everything allocated at the time they are
// taken, and deliberately map later allocations (e.g. registers minted by
// scheduler renaming after a liveness snapshot) to -1, which set lookups
// treat as "absent".

// RegIndex maps virtual registers to dense indices 0..Len()-1 across all
// register classes, so register sets pack into bitset words. Take the index
// with Function.RegIndexTable once per analysis; registers allocated after
// the snapshot map to -1.
type RegIndex struct {
	// offset[c] is the dense index of register {class c, num 0}.
	offset [5]int
	// count[c] is the number of registers in class c at snapshot time.
	count [5]int
	total int
}

// RegIndexTable snapshots the function's register universe. It is based on
// the allocator's per-class high-water marks, widened by a scan over the ops
// so hand-numbered registers that were never passed to NoteReg still index
// correctly.
func (f *Function) RegIndexTable() RegIndex {
	var x RegIndex
	x.count = [5]int{f.nextReg[0], f.nextReg[1], f.nextReg[2], f.nextReg[3], f.nextReg[4]}
	note := func(r Reg) {
		if r.IsValid() && r.Num >= x.count[r.Class] {
			x.count[r.Class] = r.Num + 1
		}
	}
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			for _, d := range op.Dests {
				note(d)
			}
			for _, s := range op.Srcs {
				note(s)
			}
			note(op.Guard)
		}
	}
	off := 0
	for c := range x.count {
		x.offset[c] = off
		off += x.count[c]
	}
	x.total = off
	return x
}

// Len returns the size of the dense register universe.
func (x *RegIndex) Len() int { return x.total }

// Of returns r's dense index, or -1 when r is NoReg or was allocated after
// the snapshot (renamed registers never appear in pre-renaming sets).
func (x *RegIndex) Of(r Reg) int {
	if !r.IsValid() || r.Num >= x.count[r.Class] {
		return -1
	}
	return x.offset[r.Class] + r.Num
}
