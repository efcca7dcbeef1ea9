// Package ir defines the intermediate representation used throughout the
// treegion compiler: virtual registers, operations (Ops), basic blocks, and
// functions. The IR is deliberately close to the HP Labs PlayDoh flavour the
// paper schedules for: general-purpose integer registers ("r"), predicate
// registers ("p"), branch-target registers ("b"), and floating-point
// registers ("f"), with compare-to-predicate (CMPP), prepare-to-branch (PBR)
// and predicated branch (BRCT/BRCF/BRU) operations.
package ir

import "fmt"

// RegClass identifies a virtual register file.
type RegClass uint8

// Register classes. ClassNone marks the zero Reg, used where an operand slot
// is absent.
const (
	ClassNone RegClass = iota
	ClassGPR           // general-purpose integer ("r")
	ClassPred          // predicate ("p")
	ClassBTR           // branch target ("b")
	ClassFPR           // floating point ("f")
)

// String returns the single-letter prefix the paper uses for the class.
func (c RegClass) String() string {
	switch c {
	case ClassGPR:
		return "r"
	case ClassPred:
		return "p"
	case ClassBTR:
		return "b"
	case ClassFPR:
		return "f"
	default:
		return "?"
	}
}

// Reg is a virtual register: a class plus an index within that class's file.
// Register files are unbounded up to MaxRegNum; the paper's study pre-dates
// register allocation and we follow it.
type Reg struct {
	Class RegClass
	Num   int
}

// MaxRegNum bounds the register numbers that input may carry (.tir text
// and stored artifacts). Liveness and the DDG index tables by register
// number, so an unbounded number lets a few bytes of input demand
// gigabytes. Generated programs stay far below it: the largest number is
// 54,181 (stress2) before compilation and 63,181 after tree-td compiles it.
const MaxRegNum = 1 << 20

// NoReg is the absent register.
var NoReg = Reg{}

// IsValid reports whether r names an actual register.
func (r Reg) IsValid() bool { return r.Class != ClassNone }

// String formats the register in the paper's style, e.g. "r3", "p1", "b2".
func (r Reg) String() string {
	if !r.IsValid() {
		return "_"
	}
	return fmt.Sprintf("%s%d", r.Class, r.Num)
}

// GPR returns the n-th general-purpose register.
func GPR(n int) Reg { return Reg{ClassGPR, n} }

// Pred returns the n-th predicate register.
func Pred(n int) Reg { return Reg{ClassPred, n} }

// BTR returns the n-th branch-target register.
func BTR(n int) Reg { return Reg{ClassBTR, n} }

// FPR returns the n-th floating-point register.
func FPR(n int) Reg { return Reg{ClassFPR, n} }
