package interp

import "treegion/internal/ir"

// Register slots 0 and 1 stand in for absent operands: a missing or invalid
// source reads zeroSlot, which nothing writes, and a missing or invalid
// destination writes sinkSlot, which nothing reads. Real registers take the
// slots after them.
const (
	zeroSlot int32 = iota
	sinkSlot
	firstRegSlot
)

// code is one function decoded for frames at one Orig base: each register
// operand is a slot of a dense frame-local register file, numbered in order
// of first sight, and each conditional branch carries its namespaced Orig
// (the oracle key) and the slot of its occurrence counter. No table is
// indexed by a register number, so a huge one in the IR sizes nothing.
type code struct {
	fn     *ir.Function
	nregs  int
	blocks []block // indexed by BlockID
	params []int32 // written from a call's arguments
	rets   []int32 // read into a call's results
}

type block struct {
	orig ir.BlockID // namespaced Orig, as the trace records it
	next ir.BlockID // fallthrough successor, or ir.NoBlock
	ops  []inst
}

// inst is one decoded op.
type inst struct {
	opc    ir.Opcode
	cond   ir.Cond
	guard  int32 // predicate slot, or -1: unguarded, or an op that ignores guards
	d0, d1 int32
	s0, s1 int32
	branch int32 // occurrence counter slot of a conditional branch
	target ir.BlockID
	imm    int64
	prob   float64
	key    int   // oracle key of a conditional branch
	call   *call // resolved callee of a Call op; nil for an opaque call
}

// call is a resolved call site.
type call struct {
	name    string // the callee's name, for errors
	callee  *code
	args    []int32
	results []int32
}

// codeKey identifies one decode: a function runs at base 0 as the root of a
// trip and at its program's Orig base as a callee.
type codeKey struct {
	fn   *ir.Function
	base int
}

// decode returns fn decoded at base, decoding it and every callee it can
// reach on first use. The code is cached before its ops are decoded, so
// recursive calls resolve to it.
func (r *Runner) decode(fn *ir.Function, base int) *code {
	k := codeKey{fn, base}
	if c, ok := r.codes[k]; ok {
		return c
	}
	c := &code{fn: fn, blocks: make([]block, len(fn.Blocks))}
	r.codes[k] = c
	nops := 0
	for _, b := range fn.Blocks {
		nops += len(b.Ops)
	}
	insts := make([]inst, nops)
	// One numbering map per register class, keyed by number: an int key
	// hashes faster than the two-field ir.Reg. RegClass is a byte, so the
	// array covers every class untrusted IR can name. An op defines about
	// one register, so a map sized by the op count rarely grows.
	var slots [256]map[int]int32
	nregs := int32(0)
	slot := func(reg ir.Reg, absent int32) int32 {
		if !reg.IsValid() {
			return absent
		}
		m := slots[reg.Class]
		if m == nil {
			m = make(map[int]int32, nops)
			slots[reg.Class] = m
		}
		s, ok := m[reg.Num]
		if !ok {
			s = firstRegSlot + nregs
			m[reg.Num] = s
			nregs++
		}
		return s
	}
	operand := func(rs []ir.Reg, i int, absent int32) int32 {
		if i >= len(rs) {
			return absent
		}
		return slot(rs[i], absent)
	}
	slotsOf := func(rs []ir.Reg, absent int32) []int32 {
		out := make([]int32, len(rs))
		for i, reg := range rs {
			out[i] = slot(reg, absent)
		}
		return out
	}
	for bi, b := range fn.Blocks {
		db := &c.blocks[bi] // control transfers index fn.Blocks, as fn.Block does
		db.orig = ir.BlockID(nsOrig(base, int(b.Orig)))
		db.next = b.FallThrough
		db.ops, insts = insts[:len(b.Ops):len(b.Ops)], insts[len(b.Ops):]
		for i, op := range b.Ops {
			in := &db.ops[i]
			*in = inst{
				opc: op.Opcode, cond: op.Cond, guard: -1,
				d0: operand(op.Dests, 0, sinkSlot), d1: operand(op.Dests, 1, sinkSlot),
				s0: operand(op.Srcs, 0, zeroSlot), s1: operand(op.Srcs, 1, zeroSlot),
				target: op.Target, imm: op.Imm, prob: op.Prob,
			}
			switch op.Opcode {
			case ir.Brct, ir.Brcf:
				in.key = nsOrig(base, op.Orig)
				s, ok := r.branches[in.key]
				if !ok {
					s = int32(len(r.branches))
					r.branches[in.key] = s
				}
				in.branch = s
				continue
			case ir.Bru, ir.Ret:
				continue // control ops ignore guards
			case ir.Call:
				if callee := r.prog.Lookup(op.Callee); callee != nil {
					in.call = &call{
						name:    op.Callee,
						callee:  r.decode(callee, r.prog.OrigBase(r.prog.Index(op.Callee))),
						args:    slotsOf(op.Srcs, zeroSlot),
						results: slotsOf(op.Dests, sinkSlot),
					}
				}
			}
			if op.Guarded() {
				in.guard = slot(op.Guard, zeroSlot)
			}
		}
	}
	c.params = slotsOf(fn.Params, sinkSlot)
	c.rets = slotsOf(fn.Rets, zeroSlot)
	c.nregs = int(firstRegSlot + nregs)
	return c
}
