// Package irtext serializes ir.Functions to a human-writable assembly-like
// text format and parses it back. The format lets users feed hand-written
// programs to the compiler driver (treegionc -input) and makes golden tests
// readable.
//
// Grammar (';' starts a comment):
//
//	func <name>                  ; or: func <name>(r1, r2) -> (r3)
//	bb<N>:                       ; blocks in any order; the first is entry
//	  [(p<G>)] <op>              ; optional if-conversion guard
//	  ...
//	  fallthrough @bb<M>         ; optional, last line of a block
//
// A file may hold several functions (ParseProgram); each `func` line starts
// a new one. The optional parenthesized lists on the `func` line declare the
// call convention: parameter registers, then return registers after `->`.
//
// Ops:
//
//	r1 = movi 42                 r1 = add r2, r3     (sub/mul/div/and/or/
//	r1 = mov r2                                       xor/shl/shr/fadd/fmul/fdiv)
//	r1 = ld [r2+8]               st [r2+8], r3
//	p0 = cmpp gt r1, r2          p0, p1 = cmpp le r1, r2
//	b0 = pbr @bb3                brct b0, p0, @bb3 #0.25
//	bru @bb3                     brcf b0, p0, @bb3 #0.5
//	call                         ret
//	r1 = call @f r2, r3          ; resolved call: srcs -> callee params
//	r1 = copy r2
//
// Register classes by prefix: r (general), p (predicate), b (branch target),
// f (floating point). Conditional branches carry their taken probability
// after '#' (defaults to 0.5).
package irtext

import (
	"slices"
	"strconv"

	"treegion/internal/ir"
)

// Print serializes fn in the package's text format. Cache keys hash
// AppendFuncKey's binary form, not this text.
func Print(fn *ir.Function) string {
	return string(AppendFunc(nil, fn))
}

// AppendFunc appends fn's text format to buf and returns it, letting the
// cache-key path hash the text out of one reused buffer instead of
// materializing a fresh string per lookup.
func AppendFunc(buf []byte, fn *ir.Function) []byte {
	// ~24 bytes/op line covers the suite's mix; under-estimates just grow.
	buf = slices.Grow(buf, 16+len(fn.Name)+8*len(fn.Blocks)+24*fn.NumOps())
	buf = append(buf, "func "...)
	buf = append(buf, fn.Name...)
	// The convention lists are printed only when present, so call-free
	// functions keep the legacy single-token header byte for byte.
	if len(fn.Params) > 0 || len(fn.Rets) > 0 {
		buf = append(buf, '(')
		for i, r := range fn.Params {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = appendReg(buf, r)
		}
		buf = append(buf, ')')
		if len(fn.Rets) > 0 {
			buf = append(buf, " -> ("...)
			for i, r := range fn.Rets {
				if i > 0 {
					buf = append(buf, ", "...)
				}
				buf = appendReg(buf, r)
			}
			buf = append(buf, ')')
		}
	}
	buf = append(buf, '\n')
	for _, b := range fn.Blocks {
		buf = append(buf, "bb"...)
		buf = strconv.AppendInt(buf, int64(b.ID), 10)
		buf = append(buf, ":\n"...)
		for _, op := range b.Ops {
			buf = append(buf, ' ', ' ')
			buf = appendOp(buf, op)
			buf = append(buf, '\n')
		}
		if b.FallThrough != ir.NoBlock {
			buf = append(buf, "  fallthrough @bb"...)
			buf = strconv.AppendInt(buf, int64(b.FallThrough), 10)
			buf = append(buf, '\n')
		}
	}
	return buf
}

// PrintProgram serializes every function of a multi-function program, in
// program order, separated by blank lines. The result parses back with
// ParseProgram.
func PrintProgram(p *ir.Program) string {
	var buf []byte
	for i, fn := range p.Funcs {
		if i > 0 {
			buf = append(buf, '\n')
		}
		buf = AppendFunc(buf, fn)
	}
	return string(buf)
}

// appendReg appends a register token (r3, p1, b0, f2, or _).
func appendReg(buf []byte, r ir.Reg) []byte {
	var c byte
	switch r.Class {
	case ir.ClassGPR:
		c = 'r'
	case ir.ClassPred:
		c = 'p'
	case ir.ClassBTR:
		c = 'b'
	case ir.ClassFPR:
		c = 'f'
	default:
		return append(buf, '_')
	}
	buf = append(buf, c)
	return strconv.AppendInt(buf, int64(r.Num), 10)
}

func appendTarget(buf []byte, t ir.BlockID) []byte {
	buf = append(buf, "@bb"...)
	return strconv.AppendInt(buf, int64(t), 10)
}

func appendOp(buf []byte, op *ir.Op) []byte {
	if op.Guarded() {
		buf = append(buf, '(')
		buf = appendReg(buf, op.Guard)
		buf = append(buf, ") "...)
	}
	switch op.Opcode {
	case ir.MovI:
		buf = appendReg(buf, op.Dests[0])
		buf = append(buf, " = movi "...)
		buf = strconv.AppendInt(buf, op.Imm, 10)
	case ir.Mov, ir.Copy:
		buf = appendReg(buf, op.Dests[0])
		buf = append(buf, " = "...)
		buf = append(buf, mnemonic(op.Opcode)...)
		buf = append(buf, ' ')
		buf = appendReg(buf, op.Srcs[0])
	case ir.Ld:
		buf = appendReg(buf, op.Dests[0])
		buf = append(buf, " = ld ["...)
		buf = appendReg(buf, op.Srcs[0])
		buf = append(buf, '+')
		buf = strconv.AppendInt(buf, op.Imm, 10)
		buf = append(buf, ']')
	case ir.St:
		buf = append(buf, "st ["...)
		buf = appendReg(buf, op.Srcs[0])
		buf = append(buf, '+')
		buf = strconv.AppendInt(buf, op.Imm, 10)
		buf = append(buf, "], "...)
		buf = appendReg(buf, op.Srcs[1])
	case ir.Cmpp:
		buf = appendReg(buf, op.Dests[0])
		if len(op.Dests) > 1 {
			buf = append(buf, ", "...)
			buf = appendReg(buf, op.Dests[1])
		}
		buf = append(buf, " = cmpp "...)
		buf = append(buf, condName(op.Cond)...)
		buf = append(buf, ' ')
		buf = appendReg(buf, op.Srcs[0])
		buf = append(buf, ", "...)
		buf = appendReg(buf, op.Srcs[1])
	case ir.Pbr:
		buf = appendReg(buf, op.Dests[0])
		buf = append(buf, " = pbr "...)
		buf = appendTarget(buf, op.Target)
	case ir.Brct, ir.Brcf:
		buf = append(buf, mnemonic(op.Opcode)...)
		buf = append(buf, ' ')
		if len(op.Srcs) > 1 && op.Srcs[0].IsValid() {
			buf = appendReg(buf, op.Srcs[0])
		} else {
			buf = append(buf, '_')
		}
		buf = append(buf, ", "...)
		buf = appendReg(buf, op.Srcs[len(op.Srcs)-1])
		buf = append(buf, ", "...)
		buf = appendTarget(buf, op.Target)
		buf = append(buf, " #"...)
		buf = strconv.AppendFloat(buf, op.Prob, 'g', -1, 64)
	case ir.Bru:
		buf = append(buf, "bru "...)
		buf = appendTarget(buf, op.Target)
	case ir.Call:
		if op.Callee == "" {
			buf = append(buf, "call"...)
			break
		}
		for i, d := range op.Dests {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = appendReg(buf, d)
		}
		if len(op.Dests) > 0 {
			buf = append(buf, " = "...)
		}
		buf = append(buf, "call @"...)
		buf = append(buf, op.Callee...)
		for i, s := range op.Srcs {
			if i > 0 {
				buf = append(buf, ","...)
			}
			buf = append(buf, ' ')
			buf = appendReg(buf, s)
		}
	case ir.Ret:
		buf = append(buf, "ret"...)
	case ir.Nop:
		buf = append(buf, "nop"...)
	default: // two-source ALU
		buf = appendReg(buf, op.Dests[0])
		buf = append(buf, " = "...)
		buf = append(buf, mnemonic(op.Opcode)...)
		buf = append(buf, ' ')
		buf = appendReg(buf, op.Srcs[0])
		buf = append(buf, ", "...)
		buf = appendReg(buf, op.Srcs[1])
	}
	return buf
}

var mnemonics = map[ir.Opcode]string{
	ir.Add: "add", ir.Sub: "sub", ir.Mul: "mul", ir.Div: "div",
	ir.And: "and", ir.Or: "or", ir.Xor: "xor", ir.Shl: "shl", ir.Shr: "shr",
	ir.MovI: "movi", ir.Mov: "mov", ir.Copy: "copy",
	ir.Cmpp: "cmpp", ir.Ld: "ld", ir.St: "st",
	ir.FAdd: "fadd", ir.FMul: "fmul", ir.FDiv: "fdiv",
	ir.Pbr: "pbr", ir.Brct: "brct", ir.Brcf: "brcf", ir.Bru: "bru",
	ir.Call: "call", ir.Ret: "ret", ir.Nop: "nop",
}

func mnemonic(o ir.Opcode) string { return mnemonics[o] }

var condNames = map[ir.Cond]string{
	ir.CondEQ: "eq", ir.CondNE: "ne", ir.CondLT: "lt",
	ir.CondLE: "le", ir.CondGT: "gt", ir.CondGE: "ge",
}

func condName(c ir.Cond) string { return condNames[c] }
