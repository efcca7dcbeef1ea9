package interp

import (
	"reflect"
	"strings"
	"testing"

	"treegion/internal/ir"
)

// callProg builds main -> add(7,5) with the result stored to memory.
func callProg(t *testing.T) *ir.Program {
	t.Helper()
	add := ir.NewFunction("add")
	pa := add.NewReg(ir.ClassGPR)
	pb := add.NewReg(ir.ClassGPR)
	add.Params = []ir.Reg{pa, pb}
	ab := add.NewBlock()
	s := add.NewReg(ir.ClassGPR)
	add.EmitALU(ab, ir.Add, s, pa, pb)
	add.Rets = []ir.Reg{s}
	add.EmitRet(ab)

	main := ir.NewFunction("main")
	mb := main.NewBlock()
	r0 := main.NewReg(ir.ClassGPR)
	r1 := main.NewReg(ir.ClassGPR)
	r2 := main.NewReg(ir.ClassGPR)
	main.EmitMovI(mb, r0, 7)
	main.EmitMovI(mb, r1, 5)
	main.EmitCall(mb, "add", []ir.Reg{r2}, []ir.Reg{r0, r1})
	main.EmitSt(mb, r0, 0, r2)
	main.EmitRet(mb)

	p, err := ir.NewProgram([]*ir.Function{main, add})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunInExecutesCalls(t *testing.T) {
	p := callProg(t)
	tr, err := runOnce(p, p.Funcs[0], NewOracle(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Stores) != 1 || tr.Stores[0].Value != 12 || tr.Stores[0].Addr != 7 {
		t.Fatalf("stores = %+v, want one store of 12 to [7]", tr.Stores)
	}
	// Trace: caller entry (orig 0), callee entry under its namespace, then
	// the caller's resumption record.
	want := []ir.BlockID{0, ir.BlockID(p.OrigBase(1)), 0}
	if !reflect.DeepEqual(tr.Blocks, want) {
		t.Fatalf("trace = %v, want %v", tr.Blocks, want)
	}
}

func TestRunInGuardedCallSquashed(t *testing.T) {
	p := callProg(t)
	main := p.Funcs[0]
	var call *ir.Op
	for _, b := range main.Blocks {
		for _, op := range b.Ops {
			if op.Opcode == ir.Call {
				call = op
			}
		}
	}
	// Guard on an undefined predicate (reads as zero): the callee must not
	// run, so its return value copy must not happen and the store writes 0.
	call.Guard = main.NewReg(ir.ClassPred)
	tr, err := runOnce(p, main, NewOracle(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Stores) != 1 || tr.Stores[0].Value != 0 {
		t.Fatalf("stores = %+v, want squashed call (stored 0)", tr.Stores)
	}
	if len(tr.Blocks) != 1 {
		t.Fatalf("trace = %v, want no callee blocks", tr.Blocks)
	}
}

func TestRunInDepthCap(t *testing.T) {
	f := ir.NewFunction("loop")
	pa := f.NewReg(ir.ClassGPR)
	pb := f.NewReg(ir.ClassGPR)
	f.Params = []ir.Reg{pa, pb}
	b := f.NewBlock()
	r := f.NewReg(ir.ClassGPR)
	f.EmitCall(b, "loop", []ir.Reg{r}, []ir.Reg{pa, pb})
	f.Rets = []ir.Reg{r}
	f.EmitRet(b)
	p, err := ir.NewProgram([]*ir.Function{f})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(p, f, NewOracle(1), Config{}); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("recursion: err = %v, want depth cap", err)
	}
}

func TestRunInArityMismatch(t *testing.T) {
	p := callProg(t)
	main := p.Funcs[0]
	for _, b := range main.Blocks {
		for _, op := range b.Ops {
			if op.Opcode == ir.Call {
				op.Srcs = op.Srcs[:1] // violate the convention post-resolution
			}
		}
	}
	if _, err := runOnce(p, main, NewOracle(1), Config{}); err == nil || !strings.Contains(err.Error(), "args") {
		t.Fatalf("arity: err = %v, want convention error", err)
	}
}
