package ir

// This file provides small construction helpers used by the program
// generator, the hand-built paper example, and tests. Each helper allocates
// the op from the function (fresh ID) and appends it to the block.

// EmitMovI appends "dest = MOVI imm".
func (f *Function) EmitMovI(b *Block, dest Reg, imm int64) *Op {
	op := f.NewOp(MovI)
	op.Dests = []Reg{dest}
	op.Imm = imm
	b.Ops = append(b.Ops, op)
	return op
}

// EmitALU appends a two-source ALU op "dest = opc s1, s2".
func (f *Function) EmitALU(b *Block, opc Opcode, dest, s1, s2 Reg) *Op {
	op := f.NewOp(opc)
	op.Dests = []Reg{dest}
	op.Srcs = []Reg{s1, s2}
	b.Ops = append(b.Ops, op)
	return op
}

// EmitLd appends "dest = LD [base+off]".
func (f *Function) EmitLd(b *Block, dest, base Reg, off int64) *Op {
	op := f.NewOp(Ld)
	op.Dests = []Reg{dest}
	op.Srcs = []Reg{base}
	op.Imm = off
	b.Ops = append(b.Ops, op)
	return op
}

// EmitSt appends "ST [base+off], val".
func (f *Function) EmitSt(b *Block, base Reg, off int64, val Reg) *Op {
	op := f.NewOp(St)
	op.Srcs = []Reg{base, val}
	op.Imm = off
	b.Ops = append(b.Ops, op)
	return op
}

// EmitCmpp appends "p[, pbar] = CMPP (s1 cond s2)". Pass NoReg for pbar to
// omit the complement destination.
func (f *Function) EmitCmpp(b *Block, p, pbar Reg, cond Cond, s1, s2 Reg) *Op {
	op := f.NewOp(Cmpp)
	op.Dests = []Reg{p}
	if pbar.IsValid() {
		op.Dests = append(op.Dests, pbar)
	}
	op.Srcs = []Reg{s1, s2}
	op.Cond = cond
	b.Ops = append(b.Ops, op)
	return op
}

// EmitPbr appends "btr = PBR -> target".
func (f *Function) EmitPbr(b *Block, btr Reg, target BlockID) *Op {
	op := f.NewOp(Pbr)
	op.Dests = []Reg{btr}
	op.Target = target
	b.Ops = append(b.Ops, op)
	return op
}

// EmitBrct appends "BRCT btr, p -> target" taken with probability prob.
func (f *Function) EmitBrct(b *Block, btr, p Reg, target BlockID, prob float64) *Op {
	op := f.NewOp(Brct)
	op.Srcs = []Reg{btr, p}
	op.Target = target
	op.Prob = prob
	b.Ops = append(b.Ops, op)
	return op
}

// EmitBru appends "BRU btr -> target"; the block must not also fall through.
func (f *Function) EmitBru(b *Block, btr Reg, target BlockID) *Op {
	op := f.NewOp(Bru)
	if btr.IsValid() {
		op.Srcs = []Reg{btr}
	}
	op.Target = target
	op.Prob = 1
	b.Ops = append(b.Ops, op)
	return op
}

// EmitCall appends "dests = CALL @callee srcs". The srcs are matched
// positionally to the callee's Params and the dests to its Rets; the call
// remains a scheduling barrier unless the inliner splices the callee in.
func (f *Function) EmitCall(b *Block, callee string, dests, srcs []Reg) *Op {
	op := f.NewOp(Call)
	op.Callee = callee
	op.Dests = append([]Reg(nil), dests...)
	op.Srcs = append([]Reg(nil), srcs...)
	b.Ops = append(b.Ops, op)
	return op
}

// EmitRet appends a RET, marking the block as a function exit.
func (f *Function) EmitRet(b *Block) *Op {
	op := f.NewOp(Ret)
	b.Ops = append(b.Ops, op)
	b.FallThrough = NoBlock
	return op
}
