// Package vlsim executes compiled schedules on a simulated VLIW: MultiOp
// rows issue in order, results become visible after their latency, ops from
// not-taken paths execute speculatively exactly as the hardware would, and
// control leaves each region at its resolved exit. Running a whole compiled
// function this way and comparing the observable store trace (and visited
// blocks) against the sequential interpreter on the *original* program
// verifies the entire compiler end to end — region formation, tail
// duplication, dependence construction, register renaming, dominator
// parallelism, and list scheduling together.
//
// The simulation follows the schedule semantics DESIGN.md documents:
//
//   - every op of a region's schedule at a cycle no later than the taken
//     exit issues — including speculatable ops homed on other paths (this is
//     precisely what makes the comparison a real test of renaming);
//   - non-speculatable ops homed off the taken path are squashed (they are
//     guarded by their block's path predicate);
//   - ops carrying an if-conversion guard are squashed when the guard reads
//     false;
//   - a register write becomes visible `latency` cycles after issue; reads
//     in the same cycle see the old value (which is why anti-dependences may
//     share a cycle); in-flight writes complete when control leaves the
//     region (fully pipelined units, NUAL write-back);
//   - memory updates apply in node order within a cycle (the PlayDoh rule
//     that a store and its dependent memory ops may share a cycle).
package vlsim

import (
	"fmt"
	"slices"
	"time"

	"treegion/internal/ddg"
	"treegion/internal/eval"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/sched"
	"treegion/internal/telemetry"
)

// Machine state. Register reads honour write latency via pending writes.
type state struct {
	regs    map[ir.Reg]int64
	mem     map[int64]int64
	pending []write
}

type write struct {
	reg       ir.Reg
	val       int64
	visibleAt int
}

func newState() *state {
	return &state{regs: make(map[ir.Reg]int64), mem: make(map[int64]int64)}
}

// read returns r's value as seen at cycle: committed state plus any pending
// write that has become visible (pending writes are flushed in visibleAt
// order, so the committed map always holds the latest visible value).
func (s *state) read(r ir.Reg, cycle int) int64 {
	s.commit(cycle)
	return s.regs[r]
}

func (s *state) commit(cycle int) {
	kept := s.pending[:0]
	for _, w := range s.pending {
		if w.visibleAt <= cycle {
			s.regs[w.reg] = w.val
		} else {
			kept = append(kept, w)
		}
	}
	s.pending = kept
}

func (s *state) flush() {
	slices.SortStableFunc(s.pending, func(a, b write) int {
		return a.visibleAt - b.visibleAt
	})
	for _, w := range s.pending {
		s.regs[w.reg] = w.val
	}
	s.pending = s.pending[:0]
}

// Run executes the compiled function fr from its entry, resolving branches
// with the oracle (whose decisions are keyed by original op identity, so
// the path matches the sequential interpreter on the original program). It
// returns the observable trace.
func Run(fr *eval.FunctionResult, o interp.Oracle, maxRegions int) (*interp.Trace, error) {
	if fr.Trace != nil {
		t0 := time.Now()
		defer func() { fr.Trace.Observe(telemetry.PhaseVLSim, time.Since(t0), fr.OpsAfter) }()
	}
	// Map each block to its region and schedule.
	owner := make(map[ir.BlockID]int)
	for i, r := range fr.Regions {
		for _, b := range r.Blocks {
			owner[b] = i
		}
	}
	st := newState()
	tr := &interp.Trace{}
	occ := make(map[int]int)
	if maxRegions <= 0 {
		maxRegions = 1 << 20
	}
	cur := fr.Fn.Entry
	for steps := 0; ; steps++ {
		if steps > maxRegions {
			return tr, fmt.Errorf("vlsim: %s exceeded %d region executions", fr.Fn.Name, maxRegions)
		}
		ri, ok := owner[cur]
		if !ok {
			return tr, fmt.Errorf("vlsim: bb%d not in any region", cur)
		}
		next, done, err := runRegion(fr.Schedules[ri], cur, st, o, occ, tr)
		if err != nil {
			return tr, err
		}
		st.flush()
		if done {
			return tr, nil
		}
		cur = next
	}
}

// runRegion executes one region's schedule entered at entry (which must be
// the region root) and returns the successor block, or done for Ret.
func runRegion(s *sched.Schedule, entry ir.BlockID, st *state, o interp.Oracle,
	occ map[int]int, tr *interp.Trace) (ir.BlockID, bool, error) {
	r := s.Graph.Region
	if entry != r.Root {
		return 0, false, fmt.Errorf("vlsim: entered region at bb%d, root is bb%d", entry, r.Root)
	}

	// Resolve the path first: walk the tree from the root, deciding each
	// block's branches in arm order with the oracle — the same decision
	// stream the sequential interpreter consumes.
	type exitInfo struct {
		to    ir.BlockID
		br    *ir.Op // nil for fallthrough exits
		done  bool
		cycle int // cycle of the deciding event (for op filtering)
	}
	onPath := map[ir.BlockID]bool{}
	var exit exitInfo
	cur := entry
walk:
	for {
		onPath[cur] = true
		tr.Blocks = append(tr.Blocks, s.Graph.Fn.Block(cur).Orig)
		blk := s.Graph.Fn.Block(cur)
		for _, op := range blk.Ops {
			if !op.IsBranch() {
				if op.Opcode == ir.Ret {
					exit = exitInfo{done: true}
					break walk
				}
				continue
			}
			taken := true
			if op.Opcode.IsConditionalBranch() {
				n := occ[op.Orig]
				occ[op.Orig] = n + 1
				taken = o.Take(op.Orig, n, op.Prob)
			}
			if taken {
				if r.IsTreeEdge(cur, op.Target) {
					cur = op.Target
					continue walk
				}
				nd := s.Graph.NodeOf(op)
				exit = exitInfo{to: op.Target, br: op, cycle: s.Cycle[nd.Index]}
				break walk
			}
		}
		ft := blk.FallThrough
		if ft == ir.NoBlock {
			return 0, false, fmt.Errorf("vlsim: bb%d has no continuation", cur)
		}
		if r.IsTreeEdge(cur, ft) {
			cur = ft
			continue
		}
		// Fallthrough exit: control leaves after the block's last
		// terminator (all arms checked); ops needed later were measured by
		// eval the same way. For filtering, use the schedule's full length.
		exit = exitInfo{to: ft, cycle: s.Length - 1}
		break
	}
	if exit.done {
		exit.cycle = s.Length - 1
	}

	// Execute rows 0..exitCycle. Within a row, ops run in node-index order
	// (block program order), which fixes same-cycle memory ordering.
	rows := make([][]*ddg.Node, s.Length)
	for _, n := range s.Graph.Nodes {
		c := s.Cycle[n.Index]
		rows[c] = append(rows[c], n)
	}
	for c := 0; c <= exit.cycle && c < s.Length; c++ {
		slices.SortStableFunc(rows[c], func(a, b *ddg.Node) int { return a.Index - b.Index })
		for _, n := range rows[c] {
			if err := execNode(s, n, c, onPath, st, tr); err != nil {
				return 0, false, err
			}
		}
	}
	return exit.to, exit.done, nil
}

// execNode executes one scheduled op at cycle c under the path filter.
func execNode(s *sched.Schedule, n *ddg.Node, c int, onPath map[ir.BlockID]bool,
	st *state, tr *interp.Trace) error {
	op := n.Op
	if n.Term {
		return nil // control handled by the path walk
	}
	if !n.Spec && !onPath[n.Home] {
		return nil // squashed: guarded by its path predicate
	}
	if op.Guarded() && st.read(op.Guard, c) == 0 {
		return nil // if-conversion guard false
	}
	lat := latencyOf(op.Opcode)
	switch op.Opcode {
	case ir.Nop, ir.Call:
	case ir.Pbr:
		st.pending = append(st.pending, write{op.Dests[0], int64(op.Target), c + lat})
	case ir.MovI:
		st.pending = append(st.pending, write{op.Dests[0], op.Imm, c + lat})
	case ir.Mov, ir.Copy:
		st.pending = append(st.pending, write{op.Dests[0], st.read(op.Srcs[0], c), c + lat})
	case ir.Ld:
		addr := st.read(op.Srcs[0], c) + op.Imm
		v, ok := st.mem[addr]
		if !ok {
			v = interp.SyntheticMem(addr)
		}
		st.pending = append(st.pending, write{op.Dests[0], v, c + lat})
	case ir.St:
		if !onPath[n.Home] {
			return fmt.Errorf("vlsim: off-path store executed: %v", op)
		}
		addr := st.read(op.Srcs[0], c) + op.Imm
		v := st.read(op.Srcs[1], c)
		st.mem[addr] = v
		tr.Stores = append(tr.Stores, interp.StoreEvent{Addr: addr, Value: v})
	case ir.Cmpp:
		a, b := st.read(op.Srcs[0], c), st.read(op.Srcs[1], c)
		res := int64(0)
		if interp.Compare(op.Cond, a, b) {
			res = 1
		}
		st.pending = append(st.pending, write{op.Dests[0], res, c + lat})
		if len(op.Dests) > 1 {
			st.pending = append(st.pending, write{op.Dests[1], 1 - res, c + lat})
		}
	default:
		a, b := int64(0), int64(0)
		if len(op.Srcs) > 0 {
			a = st.read(op.Srcs[0], c)
		}
		if len(op.Srcs) > 1 {
			b = st.read(op.Srcs[1], c)
		}
		st.pending = append(st.pending, write{op.Dests[0], interp.ALU(op.Opcode, a, b), c + lat})
	}
	tr.Steps++
	return nil
}

func latencyOf(o ir.Opcode) int {
	switch o {
	case ir.Ld:
		return 2
	case ir.FMul:
		return 3
	case ir.FDiv:
		return 9
	default:
		return 1
	}
}
