package interp

import (
	"fmt"
	"math"

	"treegion/internal/ir"
	"treegion/internal/profile"
)

// refProfile is the map-based profiler the skeleton-walking Profile
// replaced, kept as its test oracle: every trip writes the profile's maps
// once per visited block and taken edge, keeps its branch occurrences in
// a map of its own, and checks the step bound at every op and the whole
// profile's bound after every trip.
func refProfile(fn *ir.Function, seed uint64, trips int, cfg Config) (*profile.Data, error) {
	d := profile.New()
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	maxTotal, total := min(maxSteps, math.MaxInt/profileTripBounds)*profileTripBounds, 0
	for t := 0; t < trips; t++ {
		steps, err := refProfileTrip(fn, NewOracle(seed+uint64(t)), cfg, d)
		if err != nil {
			return nil, err
		}
		if total += steps; total > maxTotal {
			return nil, fmt.Errorf("interp: profiling %s exceeded %d steps in total over its first %d trips", fn.Name, maxTotal, t+1)
		}
	}
	return d, nil
}

// refProfileTrip runs one trip into d and returns its steps.
func refProfileTrip(fn *ir.Function, o Oracle, cfg Config, d *profile.Data) (int, error) {
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	occ := make(map[int]int)
	cur := fn.Entry
	steps := 0
	var run refRun
	for {
		b := fn.Block(cur)
		if err := run.enter(fn, cur); err != nil {
			return 0, err
		}
		d.AddBlock(cur, 1)
		next := b.FallThrough
		jumped := false
		done := false
		for _, op := range b.Ops {
			steps++
			if steps > maxSteps {
				return 0, fmt.Errorf("interp: profiling %s exceeded %d steps", fn.Name, maxSteps)
			}
			switch op.Opcode {
			case ir.Brct, ir.Brcf:
				n := occ[op.Orig]
				occ[op.Orig] = n + 1
				if o.Take(op.Orig, n, op.Prob) {
					next = op.Target
					jumped = true
				}
			case ir.Bru:
				next = op.Target
				jumped = true
			case ir.Ret:
				done = true
			}
			if jumped || done {
				break
			}
		}
		if done {
			return steps, nil
		}
		if next == ir.NoBlock {
			return 0, fmt.Errorf("interp: %s: bb%d has no successor and no RET", fn.Name, cur)
		}
		d.AddEdge(cur, next, 1)
		cur = next
	}
}

// refRun counts the op-less blocks a trip has entered in a row and notes
// where the run began: a run longer than the function's blocks repeats a
// block, and so cycles without running an op.
type refRun struct {
	n     int
	start ir.BlockID
}

func (r *refRun) enter(fn *ir.Function, b ir.BlockID) error {
	if len(fn.Block(b).Ops) != 0 {
		r.n = 0
		return nil
	}
	if r.n++; r.n == 1 {
		r.start = b
	}
	if r.n > len(fn.Blocks) {
		return fmt.Errorf("interp: %s: bb%d falls into a cycle of blocks without ops", fn.Name, r.start)
	}
	return nil
}

// refRunIn is the map-backed interpreter the slot-decoded one replaced,
// kept as its test oracle: registers live in a map per frame and every op
// is interpreted straight off the IR.
func refRunIn(prog *ir.Program, fn *ir.Function, o Oracle, cfg Config) (*Trace, error) {
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	r := &refRunner{
		prog:     prog,
		o:        o,
		maxSteps: maxSteps,
		tr:       &Trace{},
		occ:      make(map[int]int),
		mem:      make(map[int64]int64),
	}
	err := r.frame(fn, 0, 0, &refState{regs: make(map[ir.Reg]int64), mem: r.mem})
	return r.tr, err
}

type refRunner struct {
	prog     *ir.Program
	o        Oracle
	maxSteps int
	tr       *Trace
	occ      map[int]int
	mem      map[int64]int64
}

func (r *refRunner) frame(fn *ir.Function, base, depth int, st *refState) error {
	cur := fn.Entry
	var run refRun
	for {
		b := fn.Block(cur)
		if err := run.enter(fn, cur); err != nil {
			return err
		}
		r.tr.Blocks = append(r.tr.Blocks, ir.BlockID(nsOrig(base, int(b.Orig))))
		next := b.FallThrough
		jumped := false
		done := false
		for _, op := range b.Ops {
			r.tr.Steps++
			if r.tr.Steps > r.maxSteps {
				return fmt.Errorf("interp: %s exceeded %d steps (runaway loop?)", fn.Name, r.maxSteps)
			}
			switch op.Opcode {
			case ir.Brct, ir.Brcf:
				key := nsOrig(base, op.Orig)
				n := r.occ[key]
				r.occ[key] = n + 1
				if r.o.Take(key, n, op.Prob) {
					next = op.Target
					jumped = true
				}
			case ir.Bru:
				next = op.Target
				jumped = true
			case ir.Ret:
				done = true
			case ir.St:
				if op.Guarded() && st.get(op.Guard) == 0 {
					break // squashed predicated store
				}
				addr := st.get(op.Srcs[0]) + op.Imm
				v := st.get(op.Srcs[1])
				st.mem[addr] = v
				r.tr.Stores = append(r.tr.Stores, StoreEvent{Addr: addr, Value: v})
			case ir.Call:
				callee := r.prog.Lookup(op.Callee)
				if callee == nil {
					st.exec(op) // opaque barrier
					break
				}
				if op.Guarded() && st.get(op.Guard) == 0 {
					break // squashed predicated call
				}
				if depth+1 > maxCallDepth {
					return fmt.Errorf("interp: %s: call depth exceeds %d (recursion?)", fn.Name, maxCallDepth)
				}
				if len(op.Srcs) != len(callee.Params) || len(op.Dests) != len(callee.Rets) {
					return fmt.Errorf("interp: %s: call @%s passes %d args/%d results, want %d/%d",
						fn.Name, op.Callee, len(op.Srcs), len(op.Dests),
						len(callee.Params), len(callee.Rets))
				}
				cst := &refState{regs: make(map[ir.Reg]int64), mem: st.mem}
				for i, p := range callee.Params {
					cst.set(p, st.get(op.Srcs[i]))
				}
				cbase := r.prog.OrigBase(r.prog.Index(op.Callee))
				if err := r.frame(callee, cbase, depth+1, cst); err != nil {
					return err
				}
				for i, d := range op.Dests {
					st.set(d, cst.get(callee.Rets[i]))
				}
				r.tr.Blocks = append(r.tr.Blocks, ir.BlockID(nsOrig(base, int(b.Orig))))
			default:
				st.exec(op)
			}
			if jumped || done {
				break
			}
		}
		if done {
			return nil
		}
		if next == ir.NoBlock {
			return fmt.Errorf("interp: %s: bb%d has no successor and no RET", fn.Name, cur)
		}
		cur = next
	}
}

// refState is one frame's register map over the trip's shared memory.
type refState struct {
	regs map[ir.Reg]int64
	mem  map[int64]int64
}

func (s *refState) get(r ir.Reg) int64 { return s.regs[r] }

func (s *refState) set(r ir.Reg, v int64) {
	if r.IsValid() {
		s.regs[r] = v
	}
}

// exec evaluates one non-memory-write, non-control op. Guarded ops whose
// predicate is false are squashed.
func (s *refState) exec(op *ir.Op) {
	if op.Guarded() && s.get(op.Guard) == 0 {
		return
	}
	switch op.Opcode {
	case ir.Nop, ir.Call, ir.Pbr:
		if op.Opcode == ir.Pbr {
			s.set(op.Dests[0], int64(op.Target))
		}
	case ir.MovI:
		s.set(op.Dests[0], op.Imm)
	case ir.Mov, ir.Copy:
		s.set(op.Dests[0], s.get(op.Srcs[0]))
	case ir.Ld:
		addr := s.get(op.Srcs[0]) + op.Imm
		v, ok := s.mem[addr]
		if !ok {
			v = SyntheticMem(addr)
		}
		s.set(op.Dests[0], v)
	case ir.Cmpp:
		a, b := s.get(op.Srcs[0]), s.get(op.Srcs[1])
		res := int64(0)
		if Compare(op.Cond, a, b) {
			res = 1
		}
		s.set(op.Dests[0], res)
		if len(op.Dests) > 1 {
			s.set(op.Dests[1], 1-res)
		}
	default:
		a, b := int64(0), int64(0)
		if len(op.Srcs) > 0 {
			a = s.get(op.Srcs[0])
		}
		if len(op.Srcs) > 1 {
			b = s.get(op.Srcs[1])
		}
		s.set(op.Dests[0], ALU(op.Opcode, a, b))
	}
}
