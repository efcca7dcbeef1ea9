package progen

import (
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/interp"
	"treegion/internal/ir"
)

func TestGenerateAllValid(t *testing.T) {
	progs, err := GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 8 {
		t.Fatalf("got %d programs, want 8", len(progs))
	}
	for _, prog := range progs {
		if len(prog.Funcs) == 0 {
			t.Errorf("%s: no functions", prog.Name)
		}
		for _, fn := range prog.Funcs {
			if err := fn.Validate(); err != nil {
				t.Errorf("%s: %v", prog.Name, err)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := PresetByName("compress")
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Funcs) != len(b.Funcs) {
		t.Fatal("function counts differ")
	}
	for i := range a.Funcs {
		if a.Funcs[i].String() != b.Funcs[i].String() {
			t.Fatalf("function %d differs between identical generations", i)
		}
	}
}

func TestGeneratedFunctionsTerminate(t *testing.T) {
	progs, err := GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	var run interp.Runner
	var tr interp.Trace
	for _, prog := range progs {
		run.Reset(nil, new(interp.Numbering))
		for _, fn := range prog.Funcs {
			if err := run.RunTrace(fn, interp.NewOracle(99), interp.Config{MaxSteps: 2_000_000}, &tr); err != nil {
				t.Errorf("%s/%s: %v", prog.Name, fn.Name, err)
			}
		}
	}
}

func TestGeneratedShapeTraits(t *testing.T) {
	// gcc preset must contain wide multiway branches; ijpeg must be biased.
	gcc, _ := PresetByName("gcc")
	prog, err := Generate(gcc)
	if err != nil {
		t.Fatal(err)
	}
	maxArms := 0
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			if n := b.NumSuccs(); n > maxArms {
				maxArms = n
			}
		}
	}
	if maxArms < 6 {
		t.Errorf("gcc preset max block arity = %d, want wide multiway branches", maxArms)
	}

	ij, _ := PresetByName("ijpeg")
	iprog, err := Generate(ij)
	if err != nil {
		t.Fatal(err)
	}
	biased, total := 0, 0
	for _, fn := range iprog.Funcs {
		for _, b := range fn.Blocks {
			for _, op := range b.Ops {
				if op.Opcode.IsConditionalBranch() {
					total++
					if op.Prob > 0.95 || op.Prob < 0.05 {
						biased++
					}
				}
			}
		}
	}
	if total == 0 || float64(biased)/float64(total) < 0.5 {
		t.Errorf("ijpeg preset biased branches = %d/%d, want a majority", biased, total)
	}
}

func TestGeneratedCFGsHaveMergesAndLoops(t *testing.T) {
	p, _ := PresetByName("compress")
	prog, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	merges, backs := 0, 0
	for _, fn := range prog.Funcs {
		g := cfg.New(fn)
		for _, b := range fn.Blocks {
			if g.IsMergePoint(b.ID) {
				merges++
			}
		}
		backs += len(g.BackEdges())
	}
	if merges == 0 {
		t.Error("no merge points generated; treegion formation would be trivial")
	}
	if backs == 0 {
		t.Error("no loops generated")
	}
}

func TestBranchProbsWellFormed(t *testing.T) {
	progs, err := GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range progs {
		for _, fn := range prog.Funcs {
			for _, b := range fn.Blocks {
				for _, op := range b.Ops {
					if op.Opcode.IsConditionalBranch() {
						if op.Prob < 0 || op.Prob > 1 {
							t.Fatalf("%s: branch prob %v out of range", prog.Name, op.Prob)
						}
					}
				}
			}
		}
	}
}

func TestPresetByName(t *testing.T) {
	if _, ok := PresetByName("gcc"); !ok {
		t.Fatal("gcc preset missing")
	}
	if _, ok := PresetByName("nonesuch"); ok {
		t.Fatal("bogus preset found")
	}
}

func TestInsertBeforeBranches(t *testing.T) {
	f := ir.NewFunction("t")
	b, tgt := f.NewBlock(), f.NewBlock()
	f.EmitALU(b, ir.Add, ir.GPR(1), ir.GPR(0), ir.GPR(0))
	f.EmitBrct(b, ir.NoReg, ir.Pred(0), tgt.ID, 0.5)
	op := f.NewOp(ir.Pbr)
	op.Dests = []ir.Reg{ir.BTR(0)}
	op.Target = tgt.ID
	insertBeforeBranches(b, op)
	if b.Ops[1].Opcode != ir.Pbr || b.Ops[2].Opcode != ir.Brct {
		t.Fatalf("PBR not inserted before branch: %v", b.Ops)
	}
}
