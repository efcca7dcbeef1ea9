package verify

import (
	"fmt"
	"slices"

	"treegion/internal/cfg"
	"treegion/internal/interp"
	"treegion/internal/ir"
)

// IR well-formedness rules. These independently re-derive everything
// ir.Function.Validate enforces (and more: operand shapes, def-before-use)
// and report every violation instead of stopping at the first.
//
//	IR001  missing or out-of-range entry block
//	IR002  block ID does not match its index
//	IR003  branch, pbr or fallthrough target out of range
//	IR004  misplaced terminator (op after branch, BRU not last,
//	       fallthrough after BRU)
//	IR005  RET in a block with successors
//	IR006  duplicate successor edge
//	IR007  duplicate op ID
//	IR008  malformed operands for the opcode (counts, register classes)
//	IR009  a predicate or branch-target register is read on some entry
//	       path before any definition (data registers are exempt: the
//	       synthetic benchmarks treat entry-live GPRs/FPRs as implicit
//	       zero-initialized parameters, which the interpreter honours)

// CheckFunction runs the IR rules over fn. ifConverted relaxes IR009
// (guarded definitions do not kill, so path-sensitive def-before-use over
// predicated code would report spurious entry-live registers). It runs on a
// fresh Scratch.
func CheckFunction(fn *ir.Function, ifConverted bool) []Diagnostic {
	ds, _ := new(Scratch).checkFunction(fn, ifConverted)
	return ds
}

// checkFunction is CheckFunction on the scratch's tables. It also returns
// the CFG that IR009 built, or nil when IR009 did not run, so the caller's
// liveness and region checks can share it.
func (sc *Scratch) checkFunction(fn *ir.Function, ifConverted bool) ([]Diagnostic, *cfg.Graph) {
	c := &sc.ir
	c.fn, c.num, c.ds = fn, &sc.regs, nil
	c.structure()
	// Def-before-use needs an indexable CFG; skip it when the structure is
	// already broken or when predication blurs kills.
	var g *cfg.Graph
	if !HasErrors(c.ds) && !ifConverted && !anyGuarded(fn) {
		g = cfg.New(fn)
		c.mustDefine(g)
	}
	ds := c.ds
	c.fn, c.ds = nil, nil
	return ds, g
}

// irChecker is the IR rules' working state, kept in a Scratch.
type irChecker struct {
	fn  *ir.Function
	num *interp.Numbering
	ds  []Diagnostic
	// opIDs is IR007's set of op IDs below the function's op-ID bound.
	opIDs regBits
	// sets backs mustDefine's rows; rows holds its gen and out rows.
	sets  []uint64
	rows  []regBits
	succs []ir.BlockID
}

func (c *irChecker) add(rule string, sev Severity, b ir.BlockID, op int, format string, args ...interface{}) {
	c.ds = append(c.ds, Diagnostic{
		Rule: rule, Severity: sev, Fn: c.fn.Name, Block: b, Op: op,
		Message: fmt.Sprintf(format, args...),
	})
}

func anyGuarded(fn *ir.Function) bool {
	for _, b := range fn.Blocks {
		for _, op := range b.Ops {
			if op.Guarded() {
				return true
			}
		}
	}
	return false
}

func (c *irChecker) structure() {
	fn := c.fn
	if fn.Entry == ir.NoBlock || int(fn.Entry) >= len(fn.Blocks) || fn.Entry < 0 {
		c.add("IR001", Error, ir.NoBlock, -1, "entry bb%d out of range (%d blocks)", fn.Entry, len(fn.Blocks))
	}
	inRange := func(b ir.BlockID) bool { return b >= 0 && int(b) < len(fn.Blocks) }
	// Op IDs below the allocator's bound go in a bitset; a hand-built
	// function's IDs outside it spill into a map, as Validate's do.
	bound := fn.NumOpIDs()
	c.opIDs = growClear(c.opIDs, (bound+63)/64)
	var overflow map[int]bool
	for i, b := range fn.Blocks {
		if b.ID != ir.BlockID(i) {
			c.add("IR002", Error, b.ID, -1, "block at index %d has ID %d", i, b.ID)
		}
		sawBranch := false
		sawBru := false
		for j, op := range b.Ops {
			var dup bool
			if op.ID >= 0 && op.ID < bound {
				dup = c.opIDs.has(op.ID)
				c.opIDs.add(op.ID)
			} else {
				dup = overflow[op.ID]
				if overflow == nil {
					overflow = make(map[int]bool)
				}
				overflow[op.ID] = true
			}
			if dup {
				c.add("IR007", Error, b.ID, op.ID, "duplicate op ID %d", op.ID)
			}
			if op.IsBranch() || op.Opcode == ir.Pbr {
				if !inRange(op.Target) {
					c.add("IR003", Error, b.ID, op.ID, "%s targets missing bb%d", op.Opcode, op.Target)
				}
			}
			switch {
			case op.IsBranch():
				if sawBru {
					c.add("IR004", Error, b.ID, op.ID, "branch after BRU")
				}
				sawBranch = true
				if op.Opcode == ir.Bru {
					sawBru = true
					if j != len(b.Ops)-1 {
						c.add("IR004", Error, b.ID, op.ID, "BRU is not the last op of its block")
					}
				}
			case sawBranch && op.Opcode != ir.Nop:
				c.add("IR004", Error, b.ID, op.ID, "non-branch op %v after a branch", op)
			}
			if op.Opcode == ir.Ret && (b.FallThrough != ir.NoBlock || len(b.Branches()) > 0) {
				c.add("IR005", Error, b.ID, op.ID, "RET in a block with successors")
			}
			c.operands(b, op)
		}
		if b.FallThrough != ir.NoBlock {
			if !inRange(b.FallThrough) {
				c.add("IR003", Error, b.ID, -1, "fallthrough targets missing bb%d", b.FallThrough)
			}
			if sawBru {
				c.add("IR004", Error, b.ID, -1, "fallthrough after BRU")
			}
		}
		c.succs = b.AppendSuccs(c.succs[:0])
		for j, s := range c.succs {
			if slices.Contains(c.succs[:j], s) {
				c.add("IR006", Error, b.ID, -1, "duplicate successor bb%d", s)
			}
		}
	}
}

// operands checks the operand shape of one op (IR008): destination/source
// counts and register classes per opcode, plus guard-class sanity.
func (c *irChecker) operands(b *ir.Block, op *ir.Op) {
	bad := func(format string, args ...interface{}) {
		c.add("IR008", Error, b.ID, op.ID, "%s: %s", op.Opcode, fmt.Sprintf(format, args...))
	}
	if op.Guard.IsValid() && op.Guard.Class != ir.ClassPred {
		bad("guard %v is not a predicate", op.Guard)
	}
	wantShape := func(dests, srcs int) bool {
		ok := true
		if len(op.Dests) != dests {
			bad("needs %d destination(s), has %d", dests, len(op.Dests))
			ok = false
		}
		if len(op.Srcs) != srcs {
			bad("needs %d source(s), has %d", srcs, len(op.Srcs))
			ok = false
		}
		return ok
	}
	allValid := func(rs []ir.Reg, what string) {
		for _, r := range rs {
			if !r.IsValid() {
				bad("invalid %s register", what)
			}
		}
	}
	switch op.Opcode {
	case ir.Nop:
		// No constraints: padding.
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr,
		ir.FAdd, ir.FMul, ir.FDiv:
		if wantShape(1, 2) {
			allValid(op.Dests, "destination")
			allValid(op.Srcs, "source")
		}
	case ir.MovI:
		if wantShape(1, 0) {
			allValid(op.Dests, "destination")
		}
	case ir.Mov, ir.Copy:
		if wantShape(1, 1) {
			allValid(op.Dests, "destination")
			allValid(op.Srcs, "source")
		}
	case ir.Ld:
		if wantShape(1, 1) {
			allValid(op.Dests, "destination")
			allValid(op.Srcs, "address")
		}
	case ir.St:
		if wantShape(0, 2) {
			allValid(op.Srcs, "source")
		}
	case ir.Cmpp:
		if len(op.Dests) != 1 && len(op.Dests) != 2 {
			bad("needs 1 or 2 destinations, has %d", len(op.Dests))
		}
		for _, d := range op.Dests {
			if d.IsValid() && d.Class != ir.ClassPred {
				bad("destination %v is not a predicate", d)
			}
		}
		if len(op.Srcs) != 2 {
			bad("needs 2 sources, has %d", len(op.Srcs))
		}
		allValid(op.Srcs, "source")
	case ir.Pbr:
		if wantShape(1, 0) {
			if d := op.Dests[0]; d.IsValid() && d.Class != ir.ClassBTR {
				bad("destination %v is not a branch-target register", d)
			}
		}
	case ir.Brct, ir.Brcf:
		if len(op.Dests) != 0 {
			bad("takes no destinations, has %d", len(op.Dests))
		}
		if len(op.Srcs) != 2 {
			bad("needs 2 sources (btr, pred), has %d", len(op.Srcs))
			break
		}
		// The btr slot may be empty (decoded target form); the predicate
		// must be a real predicate register.
		if b := op.Srcs[0]; b.IsValid() && b.Class != ir.ClassBTR {
			bad("branch-target source %v is not a BTR", b)
		}
		if p := op.Srcs[1]; !p.IsValid() || p.Class != ir.ClassPred {
			bad("predicate source %v is not a predicate", p)
		}
	case ir.Bru:
		if len(op.Dests) != 0 {
			bad("takes no destinations, has %d", len(op.Dests))
		}
	case ir.Call, ir.Ret:
		// Opaque; no operand constraints.
	}
}

// mustDefine is a forward must-define dataflow: a register counts as
// defined at a use only if every path from entry to the use writes it
// first. Only predicate and branch-target reads are reported: those steer
// control, while maybe-undefined data registers are the synthetic suite's
// implicit zero-initialized parameters (the interpreter zero-fills them).
//
// The sets range over the control registers the function reads, numbered
// in order of first sight through the scratch's Numbering; every set
// operation acts on each register independently, so leaving the other
// registers out changes no result. The numbering is the verifier's own:
// none is shared with the liveness analysis it checks. g is fn's CFG.
func (c *irChecker) mustDefine(g *cfg.Graph) {
	fn := c.fn
	num := c.num
	num.Begin(fn)
	defer num.Reset()
	for _, b := range fn.Blocks {
		for _, op := range b.Ops {
			for _, s := range op.Srcs {
				if controlReg(s) {
					num.Slot(s)
				}
			}
		}
	}
	if num.Len() == 0 {
		return // no control register is read, so none can be undefined
	}
	tracked := func(r ir.Reg) (int, bool) {
		if !controlReg(r) {
			return 0, false
		}
		i := num.Lookup(r)
		return int(i), i >= 0
	}
	words := (num.Len() + 63) / 64
	n := len(fn.Blocks)
	c.sets = growClear(c.sets, (2*n+1)*words)
	backing := c.sets
	set := func(i int) regBits { return backing[i*words : (i+1)*words : (i+1)*words] }
	// gen[b] holds what b writes; out[b] what is defined on every path
	// through b's exit. Every block but the entry starts at "everything"
	// until its predecessors constrain it; unreachable predecessors never
	// do.
	c.rows = grow(c.rows, 2*n)
	gen, out := c.rows[:n], c.rows[n:]
	for _, b := range fn.Blocks {
		gen[b.ID], out[b.ID] = set(int(b.ID)), set(n+int(b.ID))
		for _, op := range b.Ops {
			for _, d := range op.Dests {
				if i, ok := tracked(d); ok {
					gen[b.ID].add(i)
				}
			}
		}
		if b.ID != fn.Entry {
			out[b.ID].fill()
		}
	}
	in := set(2 * n)
	meet := func(bid ir.BlockID) {
		if bid == fn.Entry {
			clear(in)
			return
		}
		in.fill()
		for _, p := range g.Preds[bid] {
			in.intersect(out[p])
		}
	}
	for changed := true; changed; {
		changed = false
		for _, bid := range g.RPO {
			meet(bid)
			if out[bid].assignUnion(in, gen[bid]) {
				changed = true
			}
		}
	}
	for _, b := range fn.Blocks {
		if !g.Reachable(b.ID) {
			continue // never executes
		}
		meet(b.ID)
		for _, op := range b.Ops {
			for _, s := range op.Srcs {
				if i, ok := tracked(s); ok && !in.has(i) {
					c.add("IR009", Error, b.ID, op.ID,
						"%v reads %v, which has no definition on some path from entry", op, s)
				}
			}
			for _, d := range op.Dests {
				if i, ok := tracked(d); ok {
					in.add(i)
				}
			}
		}
	}
}

// controlReg reports whether IR009 tracks r: a predicate or branch-target
// register.
func controlReg(r ir.Reg) bool { return r.Class == ir.ClassPred || r.Class == ir.ClassBTR }

// regBits is a word-packed set over mustDefine's first-sight numbering
// (and IR007's op IDs).
type regBits []uint64

func (s regBits) add(i int)      { s[i>>6] |= 1 << (i & 63) }
func (s regBits) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

func (s regBits) fill() {
	for i := range s {
		s[i] = ^uint64(0)
	}
}

func (s regBits) intersect(o regBits) {
	for i, w := range o {
		s[i] &= w
	}
}

// assignUnion sets s to a ∪ b and reports whether s changed.
func (s regBits) assignUnion(a, b regBits) bool {
	changed := false
	for i := range s {
		if w := a[i] | b[i]; w != s[i] {
			s[i] = w
			changed = true
		}
	}
	return changed
}
