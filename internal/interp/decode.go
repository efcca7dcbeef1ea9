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
// of first sight through the Runner's Numbering, and each conditional
// branch carries its namespaced Orig (the oracle key) and the slot of its
// occurrence counter.
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

// pendingCall is a resolved call whose callee is decoded once its caller's
// numbering is done.
type pendingCall struct {
	call *call
	fn   *ir.Function
	base int
}

// carve returns n elements from the end of *slab, starting a larger slab
// when it is full. What earlier carves returned keeps the slab it came
// from, so growing never moves decoded code.
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if len(s)+n > cap(s) {
		s = make([]T, 0, max(n, 2*cap(s)))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// decode returns fn decoded at base, decoding it and every callee it can
// reach on first use. The code is cached before its ops are decoded, so
// recursive calls resolve to it. Callees are decoded only after fn's
// numbering has been reset: every function numbers its registers through
// the Runner's one Numbering, which holds one function at a time.
func (r *Runner) decode(fn *ir.Function, base int) *code {
	k := codeKey{fn, base}
	if c, ok := r.codes[k]; ok {
		return c
	}
	c := &carve(&r.codeSlab, 1)[0]
	*c = code{fn: fn, blocks: carve(&r.blockSlab, len(fn.Blocks))}
	r.codes[k] = c
	nops := 0
	for _, b := range fn.Blocks {
		nops += len(b.Ops)
	}
	insts := carve(&r.instSlab, nops)
	num := r.num
	slot := func(reg ir.Reg, absent int32) int32 {
		if !reg.IsValid() {
			return absent
		}
		return firstRegSlot + num.Slot(reg)
	}
	operand := func(rs []ir.Reg, i int, absent int32) int32 {
		if i >= len(rs) {
			return absent
		}
		return slot(rs[i], absent)
	}
	slotsOf := func(rs []ir.Reg, absent int32) []int32 {
		out := carve(&r.slotSlab, len(rs))
		for i, reg := range rs {
			out[i] = slot(reg, absent)
		}
		return out
	}
	pending := len(r.pending)
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
					cl := &carve(&r.callSlab, 1)[0]
					*cl = call{
						name:    op.Callee,
						args:    slotsOf(op.Srcs, zeroSlot),
						results: slotsOf(op.Dests, sinkSlot),
					}
					in.call = cl
					r.pending = append(r.pending, pendingCall{cl, callee, r.prog.OrigBase(r.prog.Index(op.Callee))})
				}
			}
			if op.Guarded() {
				in.guard = slot(op.Guard, zeroSlot)
			}
		}
	}
	for _, b := range oplessCycles(fn) {
		c.blocks[b].next = ir.NoBlock
	}
	c.params = slotsOf(fn.Params, sinkSlot)
	c.rets = slotsOf(fn.Rets, zeroSlot)
	c.nregs = int(firstRegSlot) + num.Len()
	num.Reset()
	// A nested decode appends its own calls past end and truncates back to
	// end before returning, so this range stays put.
	for i, end := pending, len(r.pending); i < end; i++ {
		p := r.pending[i]
		p.call.callee = r.decode(p.fn, p.base)
	}
	r.pending = r.pending[:pending]
	return c
}
