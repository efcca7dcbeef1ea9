package verify_test

import (
	"fmt"
	"testing"

	"treegion/internal/eval"
	"treegion/internal/inline"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/progen"
	"treegion/internal/verify"
)

// TestScratchNumbersWithoutOverflow pins that generated and compiled code
// never takes the numbering's overflow path: every register of the suite,
// two stress functions, callhot and calldeep, compiled with inlining off
// and on and verified on one Scratch, indexes the dense tables.
func TestScratchNumbersWithoutOverflow(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"stress", "callhot", "calldeep"} {
		preset, _ := progen.PresetByName(name)
		p, err := progen.Generate(preset)
		if err != nil {
			t.Fatal(err)
		}
		if name == "stress" {
			p.Funcs = p.Funcs[:2] // two 7000-op functions suffice
		}
		progs = append(progs, p)
	}
	var sc verify.Scratch
	verified := 0
	for _, p := range progs {
		resolved, err := ir.NewProgram(p.Funcs)
		if err != nil {
			t.Fatal(err)
		}
		profs, err := eval.ProfileProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		on := eval.DefaultConfig()
		on.Inline = inline.DefaultConfig()
		for _, c := range []eval.Config{eval.DefaultConfig(), on} {
			res, err := eval.CompileProgram(p, profs, c)
			if err != nil {
				t.Fatal(err)
			}
			for i, fr := range res.Funcs {
				opts := verify.Options{Machine: c.Machine, Orig: p.Funcs[i], Prog: resolved}
				if c.Inline.Enabled {
					st := fr.Inline
					opts.Inline = &st
				}
				if ds := verify.CompiledScratch(fr.Fn, fr.Regions, fr.Schedules, opts, &sc); verify.HasErrors(ds) {
					t.Fatalf("%s/%s: %v", p.Name, fr.Fn.Name, ds)
				}
				verified++
			}
		}
	}
	if n := sc.Overflows(); n != 0 {
		t.Fatalf("%d registers numbered through the overflow map over %d verified functions", n, verified)
	}
	t.Logf("%d functions verified, no overflow numbering", verified)
}

// diamonds returns a chain of n if-diamonds, the shape of core's
// TestFormCostLinearInBlocks: head i branches to two arms that both fall
// into head i+1, and the last head returns, so treeform roots one region at
// each head and the function has n+1 regions.
func diamonds(n int) *ir.Function {
	f := ir.NewFunction(fmt.Sprintf("diamonds%d", n))
	x, y := f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR)
	p := f.NewReg(ir.ClassPred)
	head := f.NewBlock()
	f.EmitMovI(head, x, 1)
	f.EmitMovI(head, y, 2)
	for i := 0; i < n; i++ {
		left, right, next := f.NewBlock(), f.NewBlock(), f.NewBlock()
		f.EmitCmpp(head, p, ir.NoReg, ir.CondLT, x, y)
		f.EmitBrct(head, ir.NoReg, p, right.ID, 0.5)
		head.FallThrough = left.ID
		f.EmitALU(left, ir.Add, x, x, y)
		f.EmitALU(right, ir.Sub, y, y, x)
		left.FallThrough = next.ID
		right.FallThrough = next.ID
		head = next
	}
	f.EmitRet(head)
	return f
}

// TestCompiledScratchAllocsFlatInRegions pins that verifying on a warm
// Scratch allocates nothing per region: the whole verifier, SEM included,
// allocates as many objects for a 1,024-diamond chain as for a 64-diamond
// one. Tables rebuilt per region or per trip grow the count with the
// region count.
func TestCompiledScratchAllocsFlatInRegions(t *testing.T) {
	var sc verify.Scratch
	type input struct {
		fr   *eval.FunctionResult
		opts verify.Options
	}
	var ins []input
	for _, n := range []int{64, 1024} {
		orig := diamonds(n)
		prof, err := interp.Profile(orig, 1, 20, interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		c := eval.DefaultConfig()
		fr, err := eval.CompileFunction(orig.Clone(), prof, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(fr.Regions) != n+1 {
			t.Fatalf("%d diamonds formed %d regions, want %d", n, len(fr.Regions), n+1)
		}
		ins = append(ins, input{fr, verify.Options{Machine: c.Machine, Orig: orig}})
	}
	verifyOn := func(in input) {
		if ds := verify.CompiledScratch(in.fr.Fn, in.fr.Regions, in.fr.Schedules, in.opts, &sc); len(ds) != 0 {
			t.Fatalf("%s: %v", in.fr.Fn.Name, ds)
		}
	}
	for _, in := range ins {
		verifyOn(in) // warm: the scratch meets the largest function first
	}
	small := testing.AllocsPerRun(5, func() { verifyOn(ins[0]) })
	big := testing.AllocsPerRun(5, func() { verifyOn(ins[1]) })
	if small != big {
		t.Fatalf("verifying allocates %.0f objects for 65 regions but %.0f for 1,025", small, big)
	}
	t.Logf("%.0f objects per verified function at 65 and at 1,025 regions", small)
}
