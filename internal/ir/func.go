package ir

import (
	"fmt"
	"strings"
)

// Function is a single procedure: a list of basic blocks forming a CFG.
// Blocks[i].ID == i always holds; tail duplication appends new blocks and
// never removes old ones (unreachable blocks are tolerated by analyses).
type Function struct {
	Name   string
	Blocks []*Block
	Entry  BlockID

	// Params and Rets define the function's call convention: Params are the
	// registers that receive the caller's arguments (positionally matched to
	// a Call op's Srcs), Rets are the registers whose values are live at RET
	// and are copied into the Call op's Dests. Both are empty for the legacy
	// single-function programs.
	Params []Reg
	Rets   []Reg

	nextOpID  int
	nextReg   [5]int // per-RegClass next virtual register number
	nextBlock BlockID
}

// NewFunction returns an empty function with no blocks.
func NewFunction(name string) *Function {
	return &Function{Name: name, Entry: NoBlock}
}

// NewBlock appends a fresh empty block (no fallthrough) and returns it.
// The first block created becomes the entry.
func (f *Function) NewBlock() *Block {
	b := &Block{ID: f.nextBlock, Orig: f.nextBlock, FallThrough: NoBlock}
	f.nextBlock++
	f.Blocks = append(f.Blocks, b)
	if f.Entry == NoBlock {
		f.Entry = b.ID
	}
	return b
}

// Block returns the block with the given ID.
func (f *Function) Block(id BlockID) *Block { return f.Blocks[id] }

// NewOp allocates an op with a fresh ID (Orig == ID). The caller appends it
// to a block.
func (f *Function) NewOp(opc Opcode) *Op {
	op := &Op{ID: f.nextOpID, Orig: f.nextOpID, Opcode: opc}
	f.nextOpID++
	return op
}

// InitOp initializes op in place with a fresh ID (Orig == ID), exactly like
// NewOp but without allocating. Slab-allocating parsers and decoders carve
// ops out of a backing array and initialize them through this.
func (f *Function) InitOp(op *Op, opc Opcode) {
	*op = Op{ID: f.nextOpID, Orig: f.nextOpID, Opcode: opc}
	f.nextOpID++
}

// CloneOp duplicates op under a fresh ID, preserving Orig.
func (f *Function) CloneOp(op *Op) *Op {
	c := op.Clone(f.nextOpID)
	f.nextOpID++
	return c
}

// NewReg allocates a fresh virtual register of the given class.
func (f *Function) NewReg(c RegClass) Reg {
	n := f.nextReg[c]
	f.nextReg[c]++
	return Reg{Class: c, Num: n}
}

// NoteReg informs the allocator that r is in use, so NewReg never returns a
// clashing register. Builders that hand-number registers must call this.
func (f *Function) NoteReg(r Reg) {
	if r.IsValid() && r.Num >= f.nextReg[r.Class] {
		f.nextReg[r.Class] = r.Num + 1
	}
}

// NumRegs returns the allocator's high-water mark for class c: NewReg and
// NoteReg have handed out only numbers below it.
func (f *Function) NumRegs(c RegClass) int { return f.nextReg[c] }

// NumOpIDs returns the op-ID allocator's high-water mark: NewOp, InitOp and
// CloneOp have handed out only IDs below it.
func (f *Function) NumOpIDs() int { return f.nextOpID }

// NumOps returns the total op count across all blocks (static code size).
func (f *Function) NumOps() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Ops)
	}
	return n
}

// DuplicateBlock clones block src (ops get fresh IDs, same Orig) and returns
// the new block. Successor edges are copied verbatim; the caller fixes up
// predecessors.
func (f *Function) DuplicateBlock(src *Block) *Block {
	nb := f.NewBlock()
	nb.Orig = src.Orig
	nb.FallThrough = src.FallThrough
	nb.Ops = make([]*Op, 0, len(src.Ops))
	for _, op := range src.Ops {
		nb.Ops = append(nb.Ops, f.CloneOp(op))
	}
	return nb
}

// Clone returns a deep copy of f. Block and op IDs are preserved, so a
// clone serves as a pre-transformation snapshot for semantic comparison.
//
// The copy is slab-allocated: all blocks, ops, and operand registers live in
// three backing arrays instead of one allocation per op. Nothing ever
// appends to a cloned op's Dests/Srcs (transforms assign elements in place
// or replace the slice wholesale), so sharing one register backing array is
// safe.
func (f *Function) Clone() *Function {
	c := &Function{
		Name:      f.Name,
		Entry:     f.Entry,
		Params:    append([]Reg(nil), f.Params...),
		Rets:      append([]Reg(nil), f.Rets...),
		nextOpID:  f.nextOpID,
		nextReg:   f.nextReg,
		nextBlock: f.nextBlock,
	}
	nops, nregs := 0, 0
	for _, b := range f.Blocks {
		nops += len(b.Ops)
		for _, op := range b.Ops {
			nregs += len(op.Dests) + len(op.Srcs)
		}
	}
	blockSlab := make([]Block, len(f.Blocks))
	opSlab := make([]Op, nops)
	regSlab := make([]Reg, nregs)
	c.Blocks = make([]*Block, len(f.Blocks))
	opPtrs := make([]*Op, nops)
	oi, ri := 0, 0
	for i, b := range f.Blocks {
		nb := &blockSlab[i]
		nb.ID, nb.Orig, nb.FallThrough = b.ID, b.Orig, b.FallThrough
		nb.Ops = opPtrs[oi : oi : oi+len(b.Ops)]
		for _, op := range b.Ops {
			no := &opSlab[oi]
			*no = *op
			no.Dests, no.Srcs = nil, nil
			if n := len(op.Dests); n > 0 {
				no.Dests = regSlab[ri : ri+n : ri+n]
				ri += copy(no.Dests, op.Dests)
			}
			if n := len(op.Srcs); n > 0 {
				no.Srcs = regSlab[ri : ri+n : ri+n]
				ri += copy(no.Srcs, op.Srcs)
			}
			opPtrs[oi] = no
			nb.Ops = append(nb.Ops, no)
			oi++
		}
		c.Blocks[i] = nb
	}
	return c
}

// Validate checks structural invariants of the function and returns the
// first violation found, or nil.
func (f *Function) Validate() error {
	if f.Entry == NoBlock {
		return fmt.Errorf("%s: no entry block", f.Name)
	}
	// Op IDs are dense (every allocation path goes through nextOpID), so a
	// flat bool slab replaces the old map; hand-built functions with IDs
	// outside [0, nextOpID) spill into the overflow map.
	seenOp := make([]bool, f.nextOpID)
	var seenOverflow map[int]bool
	var succBuf []BlockID
	for i, b := range f.Blocks {
		if b.ID != BlockID(i) {
			return fmt.Errorf("%s: block at index %d has ID %d", f.Name, i, b.ID)
		}
		sawBranch := false
		for j, op := range b.Ops {
			if op.ID >= 0 && op.ID < len(seenOp) {
				if seenOp[op.ID] {
					return fmt.Errorf("%s: bb%d: duplicate op ID %d", f.Name, b.ID, op.ID)
				}
				seenOp[op.ID] = true
			} else {
				if seenOverflow[op.ID] {
					return fmt.Errorf("%s: bb%d: duplicate op ID %d", f.Name, b.ID, op.ID)
				}
				if seenOverflow == nil {
					seenOverflow = make(map[int]bool)
				}
				seenOverflow[op.ID] = true
			}
			if op.IsBranch() {
				sawBranch = true
				if op.Target < 0 || int(op.Target) >= len(f.Blocks) {
					return fmt.Errorf("%s: bb%d: branch to missing bb%d", f.Name, b.ID, op.Target)
				}
				if op.Opcode == Bru && j != len(b.Ops)-1 {
					return fmt.Errorf("%s: bb%d: BRU not last", f.Name, b.ID)
				}
			} else if sawBranch && op.Opcode != Nop {
				return fmt.Errorf("%s: bb%d: non-branch op %v after a branch", f.Name, b.ID, op)
			}
			if op.Opcode == Ret && (b.FallThrough != NoBlock || sawBranch) {
				return fmt.Errorf("%s: bb%d: RET in a block with successors", f.Name, b.ID)
			}
		}
		if b.FallThrough != NoBlock && (b.FallThrough < 0 || int(b.FallThrough) >= len(f.Blocks)) {
			return fmt.Errorf("%s: bb%d: fallthrough to missing bb%d", f.Name, b.ID, b.FallThrough)
		}
		succBuf = b.AppendSuccs(succBuf[:0])
		for j, s := range succBuf {
			for _, t := range succBuf[:j] {
				if s == t {
					return fmt.Errorf("%s: bb%d: duplicate successor bb%d", f.Name, b.ID, s)
				}
			}
		}
		if len(b.Ops) > 0 && b.Ops[len(b.Ops)-1].Opcode == Bru && b.FallThrough != NoBlock {
			return fmt.Errorf("%s: bb%d: fallthrough after BRU", f.Name, b.ID)
		}
	}
	return nil
}

// String renders the whole function, one block per paragraph.
func (f *Function) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (entry bb%d)\n", f.Name, f.Entry)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "bb%d:", b.ID)
		if b.Orig != b.ID {
			fmt.Fprintf(&sb, " (dup of bb%d)", b.Orig)
		}
		sb.WriteString("\n")
		for _, op := range b.Ops {
			fmt.Fprintf(&sb, "\t%s\n", op)
		}
		if b.FallThrough != NoBlock {
			fmt.Fprintf(&sb, "\t(fallthrough bb%d)\n", b.FallThrough)
		}
	}
	return sb.String()
}
