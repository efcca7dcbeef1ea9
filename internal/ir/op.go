package ir

import (
	"fmt"
	"strings"
)

// Opcode enumerates the operation repertoire of the machine models. The set
// mirrors what the paper's examples use (PlayDoh-style) plus the integer and
// floating-point ALU ops the synthetic benchmarks need.
type Opcode uint8

const (
	Nop Opcode = iota

	// Integer ALU (unit latency).
	Add
	Sub
	Mul
	Div
	And
	Or
	Xor
	Shl
	Shr
	MovI // dest = Imm
	Mov  // dest = src
	Copy // renaming compensation copy; excluded from speedup accounting

	// Compare-to-predicate: dests = [p, optional complement p],
	// srcs = [r, r], Cond selects the relation.
	Cmpp

	// Memory (serialized; load latency 2).
	Ld // dest = mem[src0 + Imm]
	St // mem[src0 + Imm] = src1

	// Floating point.
	FAdd // latency 1
	FMul // latency 3
	FDiv // latency 9

	// Control.
	Pbr  // dest = BTR primed with Target
	Brct // branch to Target if predicate src true;  srcs = [b, p]
	Brcf // branch to Target if predicate src false; srcs = [b, p]
	Bru  // unconditional branch to Target;          srcs = [b]
	Call // opaque call; scheduling barrier
	Ret  // function exit

	numOpcodes
)

var opcodeNames = [numOpcodes]string{
	Nop:  "NOP",
	Add:  "ADD",
	Sub:  "SUB",
	Mul:  "MUL",
	Div:  "DIV",
	And:  "AND",
	Or:   "OR",
	Xor:  "XOR",
	Shl:  "SHL",
	Shr:  "SHR",
	MovI: "MOVI",
	Mov:  "MOV",
	Copy: "COPY",
	Cmpp: "CMPP",
	Ld:   "LD",
	St:   "ST",
	FAdd: "FADD",
	FMul: "FMUL",
	FDiv: "FDIV",
	Pbr:  "PBR",
	Brct: "BRCT",
	Brcf: "BRCF",
	Bru:  "BRU",
	Call: "CALL",
	Ret:  "RET",
}

// String returns the assembler-style mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("OP(%d)", int(o))
}

// IsBranch reports whether the opcode transfers control to a Target block.
func (o Opcode) IsBranch() bool { return o == Brct || o == Brcf || o == Bru }

// IsConditionalBranch reports whether the branch depends on a predicate.
func (o Opcode) IsConditionalBranch() bool { return o == Brct || o == Brcf }

// IsMemory reports whether the opcode touches memory.
func (o Opcode) IsMemory() bool { return o == Ld || o == St }

// Speculatable reports whether an op with this opcode may be hoisted above a
// branch it is control-dependent on. Stores must not speculate (no predicated
// stores in this study), branches and copies stay put, and Ret terminates the
// function.
func (o Opcode) Speculatable() bool {
	switch o {
	case St, Ret, Brct, Brcf, Bru, Copy:
		return false
	case Call:
		// A call is a scheduling barrier with its own latency (see
		// machine.Model.Latency): it clobbers memory and transfers control,
		// so it never moves above a branch.
		return false
	}
	return true
}

// Cond is the comparison relation of a Cmpp op.
type Cond uint8

// Comparison relations.
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
)

// String returns the relation as an infix symbol.
func (c Cond) String() string {
	switch c {
	case CondEQ:
		return "=="
	case CondNE:
		return "!="
	case CondLT:
		return "<"
	case CondLE:
		return "<="
	case CondGT:
		return ">"
	case CondGE:
		return ">="
	default:
		return "?"
	}
}

// Op is a single operation. Ops are identified within a Function by ID;
// duplicates created by tail duplication share an Orig ID, which is how the
// scheduler detects dominator parallelism.
type Op struct {
	ID     int // unique within the function
	Orig   int // ID of the op this was duplicated from (== ID for originals)
	Opcode Opcode
	Dests  []Reg
	Srcs   []Reg
	Imm    int64   // immediate for MovI, address offset for Ld/St
	Cond   Cond    // relation for Cmpp
	Target BlockID // branch/Pbr target block
	// Prob is the probability, fixed by the program generator, that this
	// branch is taken given that it executes (conditional branches only).
	// The stochastic interpreter draws against it to produce profiles.
	Prob float64
	// Callee names the function a Call op targets ("" for the legacy opaque
	// call). Srcs carry the argument registers, matched positionally to the
	// callee's Params; Dests receive the callee's Rets on return.
	Callee string
	// Renamed marks ops whose destination was renamed by the scheduler to
	// permit speculation; used only for reporting.
	Renamed bool
	// Guard predicates the op (hyperblock-style if-conversion): the op
	// executes, and its definitions take effect, only when the predicate
	// register is true. NoReg means unconditional. Branches use explicit
	// predicate sources instead.
	Guard Reg
}

// Guarded reports whether the op carries an if-conversion predicate.
func (op *Op) Guarded() bool { return op.Guard.IsValid() }

// IsBranch reports whether the op is a branch.
func (op *Op) IsBranch() bool { return op.Opcode.IsBranch() }

// Clone returns a copy of op with the given new ID, preserving Orig so
// duplicate detection works across tail duplication.
func (op *Op) Clone(newID int) *Op {
	c := *op
	c.ID = newID
	c.Orig = op.Orig
	c.Dests = append([]Reg(nil), op.Dests...)
	c.Srcs = append([]Reg(nil), op.Srcs...)
	return &c
}

// String renders the op in the paper's style, e.g. "r3 = ADD r1, r2" or
// "BRCT b2, p1 -> bb4"; guarded ops append "? p" as in the paper's Fig. 5.
func (op *Op) String() string {
	s := op.base()
	if op.Guarded() {
		return s + " ? " + op.Guard.String()
	}
	return s
}

func (op *Op) base() string {
	var b strings.Builder
	if len(op.Dests) > 0 {
		for i, d := range op.Dests {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(d.String())
		}
		b.WriteString(" = ")
	}
	b.WriteString(op.Opcode.String())
	switch op.Opcode {
	case MovI:
		fmt.Fprintf(&b, " %d", op.Imm)
		return b.String()
	case Cmpp:
		fmt.Fprintf(&b, " (%s %s %s)", op.Srcs[0], op.Cond, op.Srcs[1])
		return b.String()
	case Ld:
		fmt.Fprintf(&b, " [%s+%d]", op.Srcs[0], op.Imm)
		return b.String()
	case St:
		fmt.Fprintf(&b, " [%s+%d], %s", op.Srcs[0], op.Imm, op.Srcs[1])
		return b.String()
	case Call:
		if op.Callee != "" {
			fmt.Fprintf(&b, " @%s", op.Callee)
		}
	}
	for i, s := range op.Srcs {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " %s", s)
	}
	if op.Opcode.IsBranch() || op.Opcode == Pbr {
		fmt.Fprintf(&b, " -> bb%d", op.Target)
	}
	return b.String()
}
