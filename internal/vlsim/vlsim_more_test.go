package vlsim

import (
	"testing"

	"treegion/internal/core"
	"treegion/internal/eval"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/machine"
	"treegion/internal/profile"
)

// TestRenamedSpeculationIsHarmless builds the canonical renaming situation
// by hand — both arms of a diamond define the same live-out register — and
// checks that executing the *treegion schedule* (where both renamed defs run
// speculatively above the branch) still commits the correct value on every
// path.
func TestRenamedSpeculationIsHarmless(t *testing.T) {
	build := func() (*ir.Function, *profile.Data) {
		f := ir.NewFunction("ren")
		b0, tb, eb, join := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
		base := f.NewReg(ir.ClassGPR)
		v := f.NewReg(ir.ClassGPR)
		p := f.NewReg(ir.ClassPred)
		f.EmitMovI(b0, base, 100)
		f.EmitCmpp(b0, p, ir.NoReg, ir.CondGT, base, base)
		f.EmitBrct(b0, ir.NoReg, p, tb.ID, 0.5)
		b0.FallThrough = eb.ID
		f.EmitMovI(tb, v, 111)
		tb.FallThrough = join.ID
		f.EmitMovI(eb, v, 222)
		eb.FallThrough = join.ID
		f.EmitSt(join, base, 0, v)
		f.EmitRet(join)
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		prof := profile.New()
		prof.AddBlock(0, 10)
		prof.AddBlock(1, 5)
		prof.AddBlock(2, 5)
		prof.AddBlock(3, 10)
		prof.AddEdge(0, 1, 5)
		prof.AddEdge(0, 2, 5)
		prof.AddEdge(1, 3, 5)
		prof.AddEdge(2, 3, 5)
		return f, prof
	}
	fn, prof := build()
	orig := fn.Clone()
	fr, err := eval.CompileFunction(fn, prof, eval.Config{
		Kind: eval.Treegion, Heuristic: core.DepHeight, Machine: machine.EightU, Rename: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both MOVIs must have been renamed (v live at the join), and the wide
	// machine speculates them above the branch.
	renamed := 0
	for _, f2 := range fr.Regions {
		for _, b := range f2.Blocks {
			for _, op := range fr.Fn.Block(b).Ops {
				if op.Renamed {
					renamed++
				}
			}
		}
	}
	if renamed != 2 {
		t.Fatalf("renamed = %d, want both arm defs", renamed)
	}
	// Differential check across both oracle outcomes.
	var run interp.Runner
	run.Reset(nil, new(ir.Numbering))
	for seed := uint64(0); seed < 8; seed++ {
		want := new(interp.Trace)
		if err := run.RunTrace(orig, interp.NewOracle(seed), interp.Config{}, want); err != nil {
			t.Fatal(err)
		}
		got, err := Run(fr, interp.NewOracle(seed), 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Stores) != 1 || got.Stores[0] != want.Stores[0] {
			t.Fatalf("seed %d: store %v, want %v", seed, got.Stores, want.Stores)
		}
	}
}

// TestLoadLatencyObserved: a load's consumer in the next region must see
// the loaded value even when the load issues on the region's last cycle
// (in-flight writes complete at region exit).
func TestLoadLatencyObserved(t *testing.T) {
	f := ir.NewFunction("lat")
	b0, b1 := f.NewBlock(), f.NewBlock()
	base := f.NewReg(ir.ClassGPR)
	v := f.NewReg(ir.ClassGPR)
	f.EmitMovI(b0, base, 40)
	f.EmitLd(b0, v, base, 0)
	b0.FallThrough = b1.ID
	f.EmitSt(b1, base, 8, v)
	f.EmitRet(b1)
	prof := profile.New()
	prof.AddBlock(0, 1)
	prof.AddBlock(1, 1)
	prof.AddEdge(0, 1, 1)
	orig := f.Clone()
	fr, err := eval.CompileFunction(f, prof, eval.Config{
		Kind: eval.BasicBlocks, Heuristic: core.DepHeight, Machine: machine.FourU, Rename: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var run interp.Runner
	run.Reset(nil, new(ir.Numbering))
	want := new(interp.Trace)
	_ = run.RunTrace(orig, interp.NewOracle(0), interp.Config{}, want)
	got, err := Run(fr, interp.NewOracle(0), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Stores) != 1 || got.Stores[0] != want.Stores[0] {
		t.Fatalf("store %v, want %v (synthetic memory at 40)", got.Stores, want.Stores)
	}
}

// TestOffPathNonSpecSquashed: a store on the not-taken arm must not appear
// in the trace even though its row executes.
func TestOffPathNonSpecSquashed(t *testing.T) {
	f := ir.NewFunction("sq")
	b0, tb, eb := f.NewBlock(), f.NewBlock(), f.NewBlock()
	base := f.NewReg(ir.ClassGPR)
	p := f.NewReg(ir.ClassPred)
	f.EmitMovI(b0, base, 16)
	f.EmitCmpp(b0, p, ir.NoReg, ir.CondGT, base, base)
	f.EmitBrct(b0, ir.NoReg, p, tb.ID, 0) // never taken
	b0.FallThrough = eb.ID
	f.EmitSt(tb, base, 0, base)
	f.EmitRet(tb)
	f.EmitSt(eb, base, 8, base)
	f.EmitRet(eb)
	prof := profile.New()
	prof.AddBlock(0, 1)
	prof.AddBlock(2, 1)
	prof.AddEdge(0, 2, 1)
	fr, err := eval.CompileFunction(f, prof, eval.Config{
		Kind: eval.Treegion, Heuristic: core.DepHeight, Machine: machine.EightU, Rename: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(fr, interp.NewOracle(3), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Stores) != 1 || got.Stores[0].Addr != 24 {
		t.Fatalf("stores = %v, want only the fallthrough arm's [16+8]", got.Stores)
	}
}
