package cfg_test

// Differential witnesses of liveness on the functions the compile path
// actually feeds it: compile runs liveness after tail duplication, inline
// splices and if-conversion, and verify.Compiled runs it again on the
// renamed function. Each is compared set for set against the map-based
// reference (cfg.DiffLiveness, from export_test.go).

import (
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/core"
	"treegion/internal/eval"
	"treegion/internal/hyper"
	"treegion/internal/inline"
	"treegion/internal/ir"
	"treegion/internal/progen"
)

// TestLivenessMatchesReferenceStress: two stress functions as generated,
// each about 1,200 blocks and 6,700 registers. The map reference over all
// 24 would take over a minute.
func TestLivenessMatchesReferenceStress(t *testing.T) {
	p := progen.Stress()
	p.NumFuncs = 2
	prog, err := progen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for _, fn := range prog.Funcs {
		blocks += cfg.DiffLiveness(t, fn)
	}
	t.Logf("%d functions, %d blocks", len(prog.Funcs), blocks)
}

// TestLivenessMatchesReferenceCompiled: every suite function after
// tree-td(2.0) formation; after if-conversion, and again when compiled
// with if-conversion (tail duplicates, guarded code and renamed
// registers, the function verify.Compiled sees); and callhot and calldeep
// compiled with inline-on-absorb under both treegion formers.
func TestLivenessMatchesReferenceCompiled(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	ifc := eval.DefaultConfig()
	ifc.Kind = eval.TreegionTD
	ifc.IfConvert = true
	ifc.Hyper = hyper.DefaultConfig()
	cases, blocks := 0, 0
	diff := func(fn *ir.Function) {
		blocks += cfg.DiffLiveness(t, fn)
		cases++
	}
	for _, prog := range progs {
		profs, err := eval.ProfileProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		for i, orig := range prog.Funcs {
			fn := orig.Clone()
			core.FormTD(fn, profs[i].Clone(), core.DefaultTDConfig())
			diff(fn)

			fn = orig.Clone()
			if st := hyper.IfConvert(fn, profs[i].Clone(), ifc.Hyper); st.Predicated == 0 {
				continue
			}
			diff(fn)
			fr, err := eval.CompileFunction(orig.Clone(), profs[i].Clone(), ifc)
			if err != nil {
				t.Fatal(err)
			}
			diff(fr.Fn)
		}
	}
	for _, name := range []string{"callhot", "calldeep"} {
		p, ok := progen.PresetByName(name)
		if !ok {
			t.Fatalf("no %s preset", name)
		}
		prog, err := progen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		profs, err := eval.ProfileProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		resolved, err := ir.NewProgram(prog.Funcs)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []eval.RegionKind{eval.Treegion, eval.TreegionTD} {
			c := eval.DefaultConfig()
			c.Kind = kind
			c.Inline = inline.DefaultConfig()
			c.InlineEnv = &inline.Env{Prog: resolved, Profiles: profs}
			for i, orig := range prog.Funcs {
				fr, err := eval.CompileFunction(orig.Clone(), profs[i].Clone(), c)
				if err != nil {
					t.Fatal(err)
				}
				diff(fr.Fn)
			}
		}
	}
	t.Logf("%d functions, %d blocks", cases, blocks)
}
