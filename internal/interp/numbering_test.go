package interp

import (
	"reflect"
	"testing"

	"treegion/internal/ir"
)

// TestNumberingOverflowMatchesReference runs a hand-built function with
// registers a generated one never has — one numbered past the function's
// mark and never noted, a negative one, and one of a class above FPR — and
// expects the reference's trace. The first indexes a table; the other two
// are numbered through the overflow map.
func TestNumberingOverflowMatchesReference(t *testing.T) {
	f := ir.NewFunction("hand")
	b := f.NewBlock()
	low := f.NewReg(ir.ClassGPR)
	high := ir.Reg{Class: ir.ClassGPR, Num: 5000}
	neg := ir.Reg{Class: ir.ClassGPR, Num: -3}
	odd := ir.Reg{Class: ir.ClassFPR + 4, Num: 2}
	f.EmitMovI(b, low, 1)
	f.EmitMovI(b, high, 7)
	f.EmitMovI(b, neg, 5)
	f.EmitALU(b, ir.Add, odd, high, neg)
	f.EmitSt(b, high, 0, odd)
	f.EmitSt(b, low, 0, high)
	f.EmitRet(b)

	var num ir.Numbering
	r := &Runner{}
	r.Reset(nil, &num)
	got := new(Trace)
	if err := r.RunTrace(f, NewOracle(1), Config{}, got); err != nil {
		t.Fatal(err)
	}
	want, err := refRunIn(nil, f, NewOracle(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace %+v, want %+v", got, want)
	}
	if want := []StoreEvent{{7, 12}, {1, 7}}; !reflect.DeepEqual(got.Stores, want) {
		t.Fatalf("stores %v, want %v", got.Stores, want)
	}
	if n := num.Overflows(); n != 2 {
		t.Fatalf("%d overflow numberings, want 2", n)
	}
	// A reset numbering holds nothing: every register is unnumbered again,
	// and a second function numbers from slot 0.
	for _, reg := range []ir.Reg{low, high, neg, odd} {
		if s := num.Lookup(reg); s != -1 {
			t.Fatalf("%v keeps slot %d after Reset", reg, s)
		}
	}
	if s := num.Slot(high); s != 0 {
		t.Fatalf("first slot after Reset is %d, want 0", s)
	}
	num.Reset()
}
