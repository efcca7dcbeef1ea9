package vlsim

import (
	"testing"

	"treegion/internal/core"
	"treegion/internal/eval"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/machine"
	"treegion/internal/profile"
	"treegion/internal/progen"
)

// differential compiles fn under c and checks that executing the schedules
// on the simulated VLIW produces exactly the store trace and block path of
// the sequential interpreter on the original program, across several trips.
func differential(t *testing.T, name string, fn *ir.Function, prof *profile.Data, c eval.Config, seeds int) {
	t.Helper()
	orig := fn.Clone()
	fr, err := eval.CompileFunction(fn, prof, c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var run interp.Runner
	run.Reset(nil, new(ir.Numbering))
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		want := new(interp.Trace)
		if err := run.RunTrace(orig, interp.NewOracle(seed), interp.Config{MaxSteps: 2_000_000}, want); err != nil {
			t.Fatalf("%s: interp: %v", name, err)
		}
		got, err := Run(fr, interp.NewOracle(seed), 2_000_000)
		if err != nil {
			t.Fatalf("%s seed %d: vlsim: %v", name, seed, err)
		}
		if len(got.Blocks) != len(want.Blocks) {
			t.Fatalf("%s seed %d: path length %d vs %d", name, seed, len(got.Blocks), len(want.Blocks))
		}
		for i := range want.Blocks {
			if got.Blocks[i] != want.Blocks[i] {
				t.Fatalf("%s seed %d: path diverges at step %d: bb%d vs bb%d",
					name, seed, i, got.Blocks[i], want.Blocks[i])
			}
		}
		if len(got.Stores) != len(want.Stores) {
			t.Fatalf("%s seed %d: %d stores vs %d", name, seed, len(got.Stores), len(want.Stores))
		}
		for i := range want.Stores {
			if got.Stores[i] != want.Stores[i] {
				t.Fatalf("%s seed %d: store %d = %+v, want %+v",
					name, seed, i, got.Stores[i], want.Stores[i])
			}
		}
	}
}

// TestSchedulesExecuteCorrectly is the compiler's end-to-end differential
// test: for every region former and machine, the *scheduled* code — with
// speculation, renaming, tail duplication and dominator parallelism — must
// behave exactly like the original sequential program.
func TestSchedulesExecuteCorrectly(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		kind   eval.RegionKind
		rename bool
		dompar bool
	}{
		{eval.BasicBlocks, true, false},
		{eval.SLR, true, false},
		{eval.Treegion, true, false},
		{eval.Superblock, false, false}, // restricted speculation
		{eval.TreegionTD, true, true},
	}
	for _, prog := range progs[:4] {
		for fi, origFn := range prog.Funcs {
			if fi > 1 {
				break
			}
			for _, k := range kinds {
				for _, h := range []core.Heuristic{core.DepHeight, core.GlobalWeight} {
					fn := origFn.Clone()
					prof, err := interp.Profile(fn, 41, 25, interp.Config{MaxSteps: 2_000_000})
					if err != nil {
						t.Fatal(err)
					}
					c := eval.Config{
						Kind: k.kind, Heuristic: h, Machine: machine.FourU,
						Rename: k.rename, DominatorParallelism: k.dompar,
						TD: core.DefaultTDConfig(),
					}
					name := prog.Name + "/" + fn.Name + "/" + k.kind.String() + "/" + h.String()
					differential(t, name, fn, prof, c, 6)
				}
			}
		}
	}
}

// TestSchedulesExecuteCorrectlyWide repeats the differential check on the
// 8-issue machine (more speculation in flight).
func TestSchedulesExecuteCorrectlyWide(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range progs[4:] {
		fn := prog.Funcs[0].Clone()
		prof, err := interp.Profile(fn, 43, 25, interp.Config{MaxSteps: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		c := eval.Config{
			Kind: eval.TreegionTD, Heuristic: core.GlobalWeight, Machine: machine.EightU,
			Rename: true, DominatorParallelism: true, TD: core.DefaultTDConfig(),
		}
		differential(t, prog.Name+"/8U", fn, prof, c, 6)
	}
}

// TestSimulatedLatencies checks the pending-write machinery directly: a
// value read in the same cycle as its write sees the old contents.
func TestSimulatedLatencies(t *testing.T) {
	st := newState()
	st.regs[ir.GPR(0)] = 7
	st.pending = append(st.pending, write{ir.GPR(0), 99, 3})
	if got := st.read(ir.GPR(0), 2); got != 7 {
		t.Fatalf("read before visibility = %d, want 7", got)
	}
	if got := st.read(ir.GPR(0), 3); got != 99 {
		t.Fatalf("read at visibility = %d, want 99", got)
	}
	// flush applies the latest-visible write last.
	st2 := newState()
	st2.pending = append(st2.pending,
		write{ir.GPR(1), 1, 5},
		write{ir.GPR(1), 2, 4},
	)
	st2.flush()
	if st2.regs[ir.GPR(1)] != 1 {
		t.Fatalf("flush kept %d, want the later-visible 1", st2.regs[ir.GPR(1)])
	}
}
