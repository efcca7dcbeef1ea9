package eval

import (
	"testing"

	"treegion/internal/core"
	"treegion/internal/machine"
	"treegion/internal/progen"
)

// TestVerifySuiteMatrix proves every schedule the compiler emits over the
// benchmark suite legal: every region former, all four priority heuristics,
// and both the 4-issue and 8-issue machines. The verifier must come back
// empty-handed on every compile.
func TestVerifySuiteMatrix(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	kinds := []RegionKind{BasicBlocks, SLR, Treegion, Superblock, TreegionTD}
	machines := []machine.Model{machine.FourU, machine.EightU}
	heuristics := core.Heuristics()
	if testing.Short() {
		progs = progs[:2]
		heuristics = []core.Heuristic{core.DepHeight, core.GlobalWeight}
	}
	for _, prog := range progs {
		profs, err := ProfileProgram(prog)
		if err != nil {
			t.Fatalf("%s: profile: %v", prog.Name, err)
		}
		for _, kind := range kinds {
			for _, h := range heuristics {
				for _, m := range machines {
					c := DefaultConfig()
					c.Kind = kind
					c.Heuristic = h
					c.Machine = m
					if kind == TreegionTD {
						c.DominatorParallelism = true
					}
					verifyProgram(t, prog, profs, c)
				}
			}
		}
	}
}

// TestVerifyIfConverted covers the predicated pipeline: the verifier must
// stay silent on if-converted compiles too (with the differential and
// def-before-use checks it cannot apply there skipped internally).
func TestVerifyIfConverted(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	c := DefaultConfig()
	c.IfConvert = true
	for _, prog := range progs[:3] {
		profs, err := ProfileProgram(prog)
		if err != nil {
			t.Fatalf("%s: profile: %v", prog.Name, err)
		}
		verifyProgram(t, prog, profs, c)
	}
}

// TestVerifyNoRename covers restricted speculation: with renaming off,
// conflicting ops are pinned rather than renamed and the schedule must
// still verify.
func TestVerifyNoRename(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	c := DefaultConfig()
	c.Rename = false
	for _, prog := range progs[:3] {
		profs, err := ProfileProgram(prog)
		if err != nil {
			t.Fatalf("%s: profile: %v", prog.Name, err)
		}
		verifyProgram(t, prog, profs, c)
	}
}

func verifyProgram(t *testing.T, prog *progen.Program, profs Profiles, c Config) {
	t.Helper()
	ar := NewArena() // compiles and verifies every function, as a worker does
	for i, orig := range prog.Funcs {
		fr, err := CompileFunctionArena(orig.Clone(), profs[i].Clone(), c, ar)
		if err != nil {
			t.Fatalf("%s/%s [%s]: compile: %v", prog.Name, orig.Name, c.Fingerprint(), err)
		}
		for _, d := range VerifyDiagnostics(orig, fr, c, ar) {
			t.Errorf("%s [%s]: %s", prog.Name, c.Fingerprint(), d)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestVerifyStress2Slice proves the asymptotic stress tier's giant
// straight-line regions verify too — these are the rank spaces that push
// the scheduler's bitmap queues past their level-1 word seam, so the legal-
// schedule guarantee must be demonstrated there, not just on suite-sized
// regions. The program is sliced to one function and two heuristics to stay
// affordable under -short (make check runs this slice under the race
// detector); make bench exercises the full tier.
func TestVerifyStress2Slice(t *testing.T) {
	p, ok := progen.PresetByName("stress2")
	if !ok {
		t.Fatal("stress2 preset not registered")
	}
	prog, err := progen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	prog.Funcs = prog.Funcs[:1]
	prog.Preset.NumFuncs = 1
	profs, err := ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []core.Heuristic{core.DepHeight, core.GlobalWeight} {
		c := DefaultConfig()
		c.Heuristic = h
		verifyProgram(t, prog, profs, c)
	}
}
