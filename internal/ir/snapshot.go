package ir

import "fmt"

// FuncSnapshot is a flat, slab-friendly image of a Function: blocks, ops and
// operand registers as three parallel arrays with counts instead of
// pointers. It exists for the artifact store's binary codec — a Function
// round-trips through a snapshot with op IDs, Orig tags, and the private
// allocator counters preserved exactly (which the textual irtext round trip
// cannot do: Parse renumbers IDs and forgets Orig).
type FuncSnapshot struct {
	Name      string
	Entry     BlockID
	NextOp    int32
	NextBlock int32
	NextReg   [5]int32

	// Params and Rets mirror the function's call convention registers.
	Params []Reg
	Rets   []Reg

	Blocks []BlockSnap
	// Ops holds every op in block order (Blocks[0]'s ops first).
	Ops []OpSnap
	// Regs holds every operand register in op order: each op's Dests
	// followed by its Srcs.
	Regs []Reg
	// Syms is the callee symbol table: Call ops reference it through
	// OpSnap.Callee, in first-use order.
	Syms []string
}

// BlockSnap is one block's row in a FuncSnapshot. The block ID is implicit
// (dense index).
type BlockSnap struct {
	Orig        BlockID
	FallThrough BlockID
	NumOps      int32
}

// OpSnap is one op's row in a FuncSnapshot.
type OpSnap struct {
	ID       int32
	Orig     int32
	Opcode   Opcode
	Cond     Cond
	Renamed  bool
	Guard    Reg
	NumDests uint8
	NumSrcs  uint8
	Imm      int64
	Target   BlockID
	Prob     float64
	// Callee indexes FuncSnapshot.Syms for a resolved Call, -1 otherwise.
	Callee int32
}

// Snapshot flattens f. The snapshot aliases nothing in f.
func (f *Function) Snapshot() *FuncSnapshot {
	s := &FuncSnapshot{
		Name:      f.Name,
		Entry:     f.Entry,
		NextOp:    int32(f.nextOpID),
		NextBlock: int32(f.nextBlock),
	}
	for c, n := range f.nextReg {
		s.NextReg[c] = int32(n)
	}
	s.Params = append([]Reg(nil), f.Params...)
	s.Rets = append([]Reg(nil), f.Rets...)
	symIdx := map[string]int32{}
	nops, nregs := 0, 0
	for _, b := range f.Blocks {
		nops += len(b.Ops)
		for _, op := range b.Ops {
			nregs += len(op.Dests) + len(op.Srcs)
		}
	}
	s.Blocks = make([]BlockSnap, len(f.Blocks))
	s.Ops = make([]OpSnap, 0, nops)
	s.Regs = make([]Reg, 0, nregs)
	for i, b := range f.Blocks {
		s.Blocks[i] = BlockSnap{Orig: b.Orig, FallThrough: b.FallThrough, NumOps: int32(len(b.Ops))}
		for _, op := range b.Ops {
			callee := int32(-1)
			if op.Callee != "" {
				idx, ok := symIdx[op.Callee]
				if !ok {
					idx = int32(len(s.Syms))
					s.Syms = append(s.Syms, op.Callee)
					symIdx[op.Callee] = idx
				}
				callee = idx
			}
			s.Ops = append(s.Ops, OpSnap{
				ID:       int32(op.ID),
				Orig:     int32(op.Orig),
				Opcode:   op.Opcode,
				Cond:     op.Cond,
				Renamed:  op.Renamed,
				Guard:    op.Guard,
				NumDests: uint8(len(op.Dests)),
				NumSrcs:  uint8(len(op.Srcs)),
				Imm:      op.Imm,
				Target:   op.Target,
				Prob:     op.Prob,
				Callee:   callee,
			})
			s.Regs = append(s.Regs, op.Dests...)
			s.Regs = append(s.Regs, op.Srcs...)
		}
	}
	return s
}

// Build materializes the snapshot into a Function. Blocks, ops and operand
// registers are slab-allocated exactly as in Function.Clone. The structural
// counts are validated (so a corrupt snapshot errors instead of panicking);
// the result is NOT passed through Validate — callers that ingest untrusted
// bytes do that themselves.
func (s *FuncSnapshot) Build() (*Function, error) {
	nops := 0
	for i := range s.Blocks {
		n := int(s.Blocks[i].NumOps)
		if n < 0 {
			return nil, fmt.Errorf("ir: snapshot block %d: negative op count", i)
		}
		nops += n
	}
	if nops != len(s.Ops) {
		return nil, fmt.Errorf("ir: snapshot op count mismatch: blocks say %d, have %d", nops, len(s.Ops))
	}
	nregs := 0
	for i := range s.Ops {
		nregs += int(s.Ops[i].NumDests) + int(s.Ops[i].NumSrcs)
	}
	if nregs != len(s.Regs) {
		return nil, fmt.Errorf("ir: snapshot reg count mismatch: ops say %d, have %d", nregs, len(s.Regs))
	}
	if int(s.Entry) < 0 || int(s.Entry) >= len(s.Blocks) {
		return nil, fmt.Errorf("ir: snapshot entry bb%d out of range", s.Entry)
	}
	// Registers index per-class tables by class and number, so a class no
	// builder produces or a negative number is corruption, not a register.
	for c, n := range s.NextReg {
		if n < 0 {
			return nil, fmt.Errorf("ir: snapshot: negative register count %d for class %d", n, c)
		}
	}
	for _, regs := range [][]Reg{s.Params, s.Rets, s.Regs} {
		for _, r := range regs {
			if err := checkSnapReg(r); err != nil {
				return nil, err
			}
		}
	}
	for i := range s.Ops {
		if err := checkSnapReg(s.Ops[i].Guard); err != nil {
			return nil, err
		}
	}

	f := &Function{
		Name:      s.Name,
		Entry:     s.Entry,
		Params:    append([]Reg(nil), s.Params...),
		Rets:      append([]Reg(nil), s.Rets...),
		nextOpID:  int(s.NextOp),
		nextBlock: BlockID(s.NextBlock),
	}
	for c, n := range s.NextReg {
		f.nextReg[c] = int(n)
	}
	blockSlab := make([]Block, len(s.Blocks))
	opSlab := make([]Op, len(s.Ops))
	regSlab := make([]Reg, len(s.Regs))
	copy(regSlab, s.Regs)
	opPtrs := make([]*Op, len(s.Ops))
	f.Blocks = make([]*Block, len(s.Blocks))
	oi, ri := 0, 0
	for i := range s.Blocks {
		bs := &s.Blocks[i]
		if ft := bs.FallThrough; ft != NoBlock && (int(ft) < 0 || int(ft) >= len(s.Blocks)) {
			return nil, fmt.Errorf("ir: snapshot bb%d: fallthrough to missing bb%d", i, ft)
		}
		nb := &blockSlab[i]
		nb.ID, nb.Orig, nb.FallThrough = BlockID(i), bs.Orig, bs.FallThrough
		nb.Ops = opPtrs[oi : oi : oi+int(bs.NumOps)]
		for j := 0; j < int(bs.NumOps); j++ {
			os := &s.Ops[oi]
			no := &opSlab[oi]
			no.ID = int(os.ID)
			no.Orig = int(os.Orig)
			no.Opcode = os.Opcode
			no.Cond = os.Cond
			no.Renamed = os.Renamed
			no.Guard = os.Guard
			no.Imm = os.Imm
			no.Target = os.Target
			no.Prob = os.Prob
			if os.Callee >= 0 {
				if int(os.Callee) >= len(s.Syms) {
					return nil, fmt.Errorf("ir: snapshot op %d: callee symbol %d out of range", oi, os.Callee)
				}
				no.Callee = s.Syms[os.Callee]
			}
			if n := int(os.NumDests); n > 0 {
				no.Dests = regSlab[ri : ri+n : ri+n]
				ri += n
			}
			if n := int(os.NumSrcs); n > 0 {
				no.Srcs = regSlab[ri : ri+n : ri+n]
				ri += n
			}
			opPtrs[oi] = no
			nb.Ops = append(nb.Ops, no)
			oi++
		}
		f.Blocks[i] = nb
	}
	return f, nil
}

// checkSnapReg rejects a register with a class outside [ClassNone,
// ClassFPR] or a negative number.
func checkSnapReg(r Reg) error {
	if r.Class > ClassFPR || r.Num < 0 {
		return fmt.Errorf("ir: snapshot: bad register (class %d, number %d)", r.Class, r.Num)
	}
	return nil
}
