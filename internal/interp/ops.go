package interp

import "treegion/internal/ir"

// SyntheticMem returns the initial content of an untouched memory cell. A
// load from a cell no store has written reads this deterministic value
// derived from the address, so load-dependent computation still produces
// meaningful, reproducible store traces.
func SyntheticMem(addr int64) int64 {
	x := uint64(addr) * 0x2545f4914f6cdd1d
	x ^= x >> 29
	return int64(x & 0xffff)
}

// Compare evaluates a CMPP relation.
func Compare(c ir.Cond, a, b int64) bool {
	switch c {
	case ir.CondEQ:
		return a == b
	case ir.CondNE:
		return a != b
	case ir.CondLT:
		return a < b
	case ir.CondLE:
		return a <= b
	case ir.CondGT:
		return a > b
	case ir.CondGE:
		return a >= b
	}
	return false
}

// ALU evaluates an integer/FP arithmetic opcode over 64-bit values.
func ALU(opc ir.Opcode, a, b int64) int64 {
	switch opc {
	case ir.Add, ir.FAdd:
		return a + b
	case ir.Sub:
		return a - b
	case ir.Mul, ir.FMul:
		return a * b
	case ir.Div, ir.FDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case ir.And:
		return a & b
	case ir.Or:
		return a | b
	case ir.Xor:
		return a ^ b
	case ir.Shl:
		return a << (uint64(b) & 63)
	case ir.Shr:
		return int64(uint64(a) >> (uint64(b) & 63))
	}
	return 0
}
