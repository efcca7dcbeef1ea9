package interp

import (
	"fmt"

	"treegion/internal/ir"
)

// maxCallDepth bounds the call-frame stack of a trip. Generated programs are
// shallow (calldeep chains are depth 3); the bound exists so accidental
// recursion surfaces as a deterministic error on both sides of a semantic
// comparison instead of a stack overflow.
const maxCallDepth = 64

// nsOrig maps an op/block Orig ID into the run's shared namespace: IDs below
// ir.OrigStride are native to the executing function and get the frame's
// base added; IDs at or above the stride were already namespaced by the
// inliner and pass through unchanged. The root frame runs at base 0, so a
// call-free function's trace and oracle keys are its own Orig IDs.
func nsOrig(base, orig int) int {
	if orig < ir.OrigStride {
		return base + orig
	}
	return orig
}

// Runner executes functions against one program context. It decodes each
// function the first time it runs it (or a call reaches it) and reuses that
// decode for every later trip, so callers that run the same functions under
// several oracles decode them once. The functions must not change while the
// Runner is in use, and a Runner is not safe for concurrent use.
//
// Everything a decode or a trip needs beyond the decoded code is reused
// across trips: the numbering tables, one stack every call frame is carved
// from, the branch counters and the memory map. Reset keeps that storage
// and the decode storage too, so a Runner kept across calls (the verifier's
// Scratch keeps one per worker) stops allocating once it has met its
// largest function.
type Runner struct {
	prog     *ir.Program
	num      *Numbering
	codes    map[codeKey]*code
	branches map[int]int32 // oracle key → occurrence counter slot
	pending  []pendingCall

	// Decode storage, carved by decode and reclaimed by Reset.
	codeSlab  []code
	blockSlab []block
	instSlab  []inst
	callSlab  []call
	slotSlab  []int32

	// Trip state, reused by every trip.
	stack []int64
	occ   []int
	mem   map[int64]int64
}

// Reset readies r to run functions against prog (nil: every call is
// opaque), numbering registers through num. A Runner runs nothing before
// its first Reset. It forgets every decode and every branch-counter slot: a
// later function can reuse a freed function's address, so no decode may
// outlive the call that made it. The storage behind decodes, frames,
// counters and memory is kept for reuse.
func (r *Runner) Reset(prog *ir.Program, num *Numbering) {
	r.prog, r.num = prog, num
	if r.codes == nil {
		r.codes = make(map[codeKey]*code)
		r.branches = make(map[int]int32)
		r.mem = make(map[int64]int64)
	}
	clear(r.codes)
	clear(r.branches)
	r.codeSlab = r.codeSlab[:0]
	r.blockSlab = r.blockSlab[:0]
	r.instSlab = r.instSlab[:0]
	r.callSlab = r.callSlab[:0]
	r.slotSlab = r.slotSlab[:0]
}

// RunTrace executes fn once under the oracle, recording into tr: tr's
// contents are replaced and its storage reused, so a caller comparing trips
// keeps one Trace per side. Call ops resolve against the Runner's program:
// a resolved call pushes a fresh register frame (params bound from the
// call's sources), executes the callee's body over the shared memory and
// oracle, and copies the callee's Rets into the call's destinations.
// Opaque calls (empty Callee, or a nil program) are no-ops.
//
// Callee blocks are recorded in the trace under the callee's Orig namespace
// (prog.OrigBase), and after a call returns the caller's block is recorded
// again — the "resumption record". An inliner splice makes the same sequence
// observable directly (spliced clones carry namespaced Origs; the
// continuation block keeps the host block's Orig), so the block traces of an
// original program and its inlined compilation are comparable element for
// element.
//
// It reports an error, with the trace up to that point, if the trip exceeds
// the step bound (runaway loop), falls off a block with no successor or
// into a cycle of blocks without ops (oplessCycles), or makes a call the
// callee's signature or the depth bound rejects.
func (r *Runner) RunTrace(fn *ir.Function, o Oracle, cfg Config, tr *Trace) error {
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	c := r.decode(fn, 0)
	tr.Blocks, tr.Stores, tr.Steps = tr.Blocks[:0], tr.Stores[:0], 0
	r.occ = append(r.occ[:0], make([]int, len(r.branches))...)
	clear(r.mem)
	t := &trip{o: o, maxSteps: maxSteps, tr: tr, occ: r.occ, mem: r.mem, stack: r.stack}
	err := t.frame(c, 0, t.push(c.nregs))
	r.stack = t.stack
	return err
}

// trip is the shared state of one run: the trace, the step budget, the
// branch-occurrence counters and the memory are global across call frames;
// registers are per-frame, carved from one stack.
type trip struct {
	o        Oracle
	maxSteps int
	tr       *Trace
	occ      []int
	mem      map[int64]int64
	stack    []int64
	top      int
}

// push carves an n-register frame off the stack, zeroed. A full stack is
// replaced by a larger one; the frames below keep the slices they hold,
// which stay valid, so growing never moves a live frame's registers.
func (t *trip) push(n int) []int64 {
	if t.top+n > len(t.stack) {
		t.stack = make([]int64, max(t.top+n, 2*len(t.stack)))
	}
	f := t.stack[t.top : t.top+n : t.top+n]
	clear(f)
	t.top += n
	return f
}

func (t *trip) frame(c *code, depth int, regs []int64) error {
	cur := c.fn.Entry
	for {
		b := &c.blocks[cur]
		t.tr.Blocks = append(t.tr.Blocks, b.orig)
		next := b.next
	ops:
		for i := range b.ops {
			in := &b.ops[i]
			t.tr.Steps++
			if t.tr.Steps > t.maxSteps {
				return fmt.Errorf("interp: %s exceeded %d steps (runaway loop?)", c.fn.Name, t.maxSteps)
			}
			if in.guard >= 0 && regs[in.guard] == 0 {
				continue // squashed predicated op
			}
			switch in.opc {
			case ir.Brct, ir.Brcf:
				n := t.occ[in.branch]
				t.occ[in.branch] = n + 1
				if t.o.Take(in.key, n, in.prob) {
					next = in.target
					break ops
				}
			case ir.Bru:
				next = in.target
				break ops
			case ir.Ret:
				return nil
			case ir.St:
				addr := regs[in.s0] + in.imm
				v := regs[in.s1]
				t.mem[addr] = v
				t.tr.Stores = append(t.tr.Stores, StoreEvent{Addr: addr, Value: v})
			case ir.Call:
				if in.call != nil {
					if err := t.call(c, depth, regs, in.call); err != nil {
						return err
					}
					// Resumption record: control re-enters the caller's
					// block. The inliner's continuation split (which keeps
					// the host block's Orig) makes the same re-entry
					// observable, so both sides of a differential check log
					// it.
					t.tr.Blocks = append(t.tr.Blocks, b.orig)
				}
			case ir.Nop:
			case ir.Pbr:
				// A BTR value is only meaningful to the scheduler's
				// dataflow; model it as the target block number.
				regs[in.d0] = int64(in.target)
			case ir.MovI:
				regs[in.d0] = in.imm
			case ir.Mov, ir.Copy:
				regs[in.d0] = regs[in.s0]
			case ir.Ld:
				addr := regs[in.s0] + in.imm
				v, ok := t.mem[addr]
				if !ok {
					v = SyntheticMem(addr)
				}
				regs[in.d0] = v
			case ir.Cmpp:
				res := int64(0)
				if Compare(in.cond, regs[in.s0], regs[in.s1]) {
					res = 1
				}
				regs[in.d0] = res
				regs[in.d1] = 1 - res
			default:
				regs[in.d0] = ALU(in.opc, regs[in.s0], regs[in.s1])
			}
		}
		if next == ir.NoBlock {
			return noSuccessor(c.fn, cur)
		}
		cur = next
	}
}

// call runs one resolved call from a frame of c at depth: arguments bound
// into a fresh register frame, the callee's body, results copied back.
func (t *trip) call(c *code, depth int, regs []int64, cl *call) error {
	callee := cl.callee
	if depth+1 > maxCallDepth {
		return fmt.Errorf("interp: %s: call depth exceeds %d (recursion?)", c.fn.Name, maxCallDepth)
	}
	if len(cl.args) != len(callee.params) || len(cl.results) != len(callee.rets) {
		return fmt.Errorf("interp: %s: call @%s passes %d args/%d results, want %d/%d",
			c.fn.Name, cl.name, len(cl.args), len(cl.results), len(callee.params), len(callee.rets))
	}
	base := t.top
	cregs := t.push(callee.nregs)
	for i, p := range callee.params {
		cregs[p] = regs[cl.args[i]]
	}
	if err := t.frame(callee, depth+1, cregs); err != nil {
		return err
	}
	for i, d := range cl.results {
		regs[d] = cregs[callee.rets[i]]
	}
	t.top = base
	return nil
}
