package interp

import "treegion/internal/ir"

// Numbering assigns registers the dense slots 0, 1, 2, ... in order of
// first sight. The Runner decodes every function through one, and the
// verifier numbers each region's and each function's registers through the
// same one, so a verifying worker keeps a single set of tables across
// everything it checks.
//
// The tables are indexed by register class and number, sized by the
// function's allocator high-water marks (ir.Function.NumRegs), which parsed
// and decoded input bounds by ir.MaxRegNum. They grow to the largest
// function seen and stay there; Reset returns them to all-zero through the
// log of what was numbered, so between uses they hold no facts. A register
// no table can index — a negative number, a class above FPR, or a
// hand-numbered register at or above its function's mark — is numbered
// through one overflow map instead, as ir.Function.Validate does for op
// IDs. Generated, parsed and compiled code never takes that path.
//
// The zero value is ready for use. A Numbering must not be shared between
// concurrent users.
type Numbering struct {
	tab   [ir.ClassFPR + 1][]int32 // slot+1 by class and number; 0 = unnumbered
	bound [ir.ClassFPR + 1]int     // numbers below bound[c] index tab[c]
	regs  []ir.Reg                 // slot → register; also the reset log
	over  map[ir.Reg]int32         // registers no table can index
	// overflows counts the numberings that took the overflow map.
	overflows int
}

// Begin readies n, which must be empty, to number fn's registers.
func (n *Numbering) Begin(fn *ir.Function) {
	for c := ir.ClassGPR; c <= ir.ClassFPR; c++ {
		b := fn.NumRegs(c)
		n.bound[c] = b
		if b > len(n.tab[c]) {
			n.tab[c] = make([]int32, max(b, 2*len(n.tab[c])))
		}
	}
}

// Slot returns r's slot, assigning the next one on first sight. r must be
// a valid register.
func (n *Numbering) Slot(r ir.Reg) int32 {
	if r.Class > ir.ClassFPR || uint(r.Num) >= uint(n.bound[r.Class]) {
		return n.overflow(r)
	}
	t := n.tab[r.Class]
	if k := t[r.Num]; k != 0 {
		return k - 1
	}
	n.regs = append(n.regs, r)
	t[r.Num] = int32(len(n.regs))
	return int32(len(n.regs)) - 1
}

func (n *Numbering) overflow(r ir.Reg) int32 {
	if s, ok := n.over[r]; ok {
		return s
	}
	if n.over == nil {
		n.over = make(map[ir.Reg]int32)
	}
	s := int32(len(n.regs))
	n.over[r] = s
	n.regs = append(n.regs, r)
	n.overflows++
	return s
}

// Lookup returns r's slot, or -1 when r has none yet.
func (n *Numbering) Lookup(r ir.Reg) int32 {
	if r.Class > ir.ClassFPR || uint(r.Num) >= uint(n.bound[r.Class]) {
		if s, ok := n.over[r]; ok {
			return s
		}
		return -1
	}
	return n.tab[r.Class][r.Num] - 1
}

// Len returns the number of slots assigned since the last Reset.
func (n *Numbering) Len() int { return len(n.regs) }

// Reg returns the register at slot s.
func (n *Numbering) Reg(s int32) ir.Reg { return n.regs[s] }

// Overflows returns how many registers have been numbered through the
// overflow map over n's lifetime.
func (n *Numbering) Overflows() int { return n.overflows }

// Reset forgets every slot, keeping the tables for the next Begin.
func (n *Numbering) Reset() {
	for _, r := range n.regs {
		if r.Class <= ir.ClassFPR && uint(r.Num) < uint(len(n.tab[r.Class])) {
			n.tab[r.Class][r.Num] = 0
		}
	}
	n.regs = n.regs[:0]
	clear(n.over)
}
