package ir

import "math/bits"

// Numbering assigns registers the dense slots 0, 1, 2, ... in order of
// first sight. It is the register numbering the DDG builder (per region),
// the interpreter (per decoded function), the verifier (per function and
// per region) and the inliner (per splice) each keep one instance of.
//
// The tables are indexed by register class and number and grow on first
// touch, to powers of two, up to MaxRegNum, so registers that renaming or
// splicing mints after a function was built index them like any other,
// and so does a hand-numbered register above its function's allocator
// mark. Reset returns them to all-zero through the log of what was
// numbered, so between uses they hold no facts. A register no table can
// index — a negative number, a class above FPR, or a number above
// MaxRegNum — is numbered through one overflow map instead. NoReg is
// never numbered: Slot and Lookup return -1 for it.
//
// The zero value is ready for use. A Numbering must not be shared between
// concurrent users.
type Numbering struct {
	// tab holds slot+1 by class and number; 0 = unnumbered. Lookups clamp
	// the class to ClassFPR+1, whose row stays empty, so every class above
	// FPR misses the tables. Once a table has grown, ClassNone's row is
	// none, one entry that stays zero, so NoReg looks up -1 without
	// leaving the fast path.
	tab  [ClassFPR + 2][]int32
	none [1]int32
	regs []Reg         // slot → register; also the reset log
	over map[Reg]int32 // registers no table can index
	// overflows counts the numberings that took the overflow map.
	overflows int
}

// Slot returns r's slot, assigning the next one on first sight; -1 for an
// invalid register.
func (n *Numbering) Slot(r Reg) int32 {
	if s := n.Lookup(r); s >= 0 || !r.IsValid() {
		return s
	}
	return n.assign(r)
}

// Lookup returns r's slot, or -1 when r has none yet.
func (n *Numbering) Lookup(r Reg) int32 {
	if t := n.row(r.Class); uint(r.Num) < uint(len(t)) {
		return t[r.Num] - 1
	}
	return n.lookupOver(r)
}

// row returns class c's table, empty for every class above FPR.
func (n *Numbering) row(c RegClass) []int32 { return n.tab[min(c, ClassFPR+1)] }

// spills reports whether r is a register no table can index.
func spills(r Reg) bool {
	return r.Class > ClassFPR || r.Num < 0 || r.Num > MaxRegNum
}

func (n *Numbering) lookupOver(r Reg) int32 {
	if spills(r) {
		if s, ok := n.over[r]; ok {
			return s
		}
	}
	return -1
}

// assign gives the valid, unnumbered register r the next slot.
func (n *Numbering) assign(r Reg) int32 {
	s := int32(len(n.regs))
	n.regs = append(n.regs, r)
	if spills(r) {
		if n.over == nil {
			n.over = make(map[Reg]int32)
		}
		n.over[r] = s
		n.overflows++
		return s
	}
	t := n.tab[r.Class]
	if r.Num >= len(t) {
		// The next power of two above r.Num, so a table at least doubles.
		nt := make([]int32, min(1<<bits.Len(uint(r.Num)), MaxRegNum+1))
		copy(nt, t)
		t = nt
		n.tab[r.Class] = t
		n.tab[ClassNone] = n.none[:]
	}
	t[r.Num] = s + 1
	return s
}

// Len returns the number of slots assigned since the last Reset.
func (n *Numbering) Len() int { return len(n.regs) }

// Reg returns the register at slot s.
func (n *Numbering) Reg(s int32) Reg { return n.regs[s] }

// Overflows returns how many registers have been numbered through the
// overflow map over n's lifetime.
func (n *Numbering) Overflows() int { return n.overflows }

// Reset forgets every slot, keeping the tables for the next use.
func (n *Numbering) Reset() {
	for _, r := range n.regs {
		if t := n.row(r.Class); uint(r.Num) < uint(len(t)) {
			t[r.Num] = 0
		}
	}
	n.regs = n.regs[:0]
	clear(n.over)
}
