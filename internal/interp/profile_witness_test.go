package interp_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"treegion/internal/eval"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/progen"
)

// profileCase is one Profile call the witness makes on both profilers.
type profileCase struct {
	where string
	fn    *ir.Function
	seed  uint64
	trips int
}

// witnessSteps are the step bounds every case runs under: the default, two
// that cut trips short, mostly in the middle of a block, and the bound the
// suite profiles with.
var witnessSteps = []int{0, 50, 5_000, 2_000_000}

// TestProfileMatchesReference is the differential witness for the
// skeleton-walking profiler: every case must produce the map-based
// reference's exact profile (reflect.DeepEqual), the same AppendKey bytes,
// and the same error text. The generated cases are every function of the
// suite at its published seeds and at one other seed, of stress, stress2,
// callhot and calldeep, each profiled as eval.ProfileProgram does, and
// every suite function compiled under tree-td(2.0) with dominator
// parallelism (Figure 13's configuration, whose tail duplicates share
// their original branch's Orig), profiled as eval.ProfileCompiled does;
// each under every one of witnessSteps. The hand-built cases pin the
// corners generated code does not reach, each under every step bound
// from 1 to 40 as well as the default, so a bound is crossed exactly at a
// RET and at a taken branch.
func TestProfileMatchesReference(t *testing.T) {
	t.Run("hand-built", testProfileHandBuilt)
	var cases []profileCase
	var presets []progen.Preset
	for _, seed := range []uint64{0, 29} {
		for i, p := range progen.Presets() {
			if seed != 0 {
				p.Seed = seed*100 + uint64(i)
			}
			presets = append(presets, p)
		}
	}
	suite := len(presets)
	for _, name := range []string{"stress", "stress2", "callhot", "calldeep"} {
		p, ok := progen.PresetByName(name)
		if !ok {
			t.Fatalf("no preset %s", name)
		}
		presets = append(presets, p)
	}
	td := eval.DefaultConfig()
	td.Kind = eval.TreegionTD
	td.DominatorParallelism = true
	for pi, preset := range presets {
		p, err := progen.Generate(preset)
		if err != nil {
			t.Fatal(err)
		}
		for i, fn := range p.Funcs {
			cases = append(cases, profileCase{fmt.Sprintf("%s@%d/%s", p.Name, preset.Seed, fn.Name), fn, preset.Seed*1000 + uint64(i), preset.ProfileTrips})
		}
		if pi >= suite {
			continue
		}
		profs, err := eval.ProfileProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eval.CompileProgram(p, profs, td)
		if err != nil {
			t.Fatal(err)
		}
		for fi, fr := range res.Funcs {
			cases = append(cases, profileCase{fmt.Sprintf("%s@%d/%s tree-td", p.Name, preset.Seed, fr.Fn.Name), fr.Fn, preset.Seed*7777 + uint64(fi), preset.ProfileTrips})
		}
	}
	failed := 0
	for _, c := range cases {
		for _, maxSteps := range witnessSteps {
			if checkProfile(t, c, maxSteps) != nil {
				failed++
			}
		}
	}
	// The short bounds must cut some profiles off and the long ones let
	// most through, so both the counts and the error path are compared.
	if n := len(cases) * len(witnessSteps); failed == 0 || failed > n/2 {
		t.Fatalf("%d of %d profiles failed; want some, at most half", failed, n)
	}
	t.Logf("%d functions × %d step bounds, %d profiles ending in an error", len(cases), len(witnessSteps), failed)
}

// checkProfile profiles c under maxSteps with both profilers, fails the
// test on any difference, and returns the reference's error.
func checkProfile(t *testing.T, c profileCase, maxSteps int) error {
	t.Helper()
	cfg := interp.Config{MaxSteps: maxSteps}
	got, gotErr := interp.Profile(c.fn, c.seed, c.trips, cfg)
	want, wantErr := interp.RefProfile(c.fn, c.seed, c.trips, cfg)
	where := fmt.Sprintf("%s seed=%d trips=%d maxSteps=%d", c.where, c.seed, c.trips, maxSteps)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, want %v", where, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: profile diverges from the reference:\n got %v\nwant %v", where, got, want)
	}
	if got != nil && !bytes.Equal(got.AppendKey(nil), want.AppendKey(nil)) {
		t.Fatalf("%s: AppendKey bytes differ", where)
	}
	return wantErr
}

func testProfileHandBuilt(t *testing.T) {
	cases := []profileCase{
		{"taken branch with ops after it", takenBranchThenOps(), 1, 20},
		{"branch after ret", branchAfterRet(), 1, 20},
		{"guarded branch", guardedBranch(), 3, 20},
		{"one Orig twice in a block", sharedOrigOneBlock(), 5, 40},
		{"one Orig across blocks", sharedOrigAcrossBlocks(), 5, 40},
		{"negative and inlined Origs", foreignOrigs(), 7, 40},
		{"branch to NoBlock", branchToNoBlock(), 2, 20},
		{"no successor and no ret", noSuccessor(), 1, 5},
		{"zero trips", sharedOrigAcrossBlocks(), 1, 0},
		{"op-less self loop", oplessSelfLoop(), 1, 5},
		{"op-less cycle after ops", oplessCycleAfterOps(), 1, 5},
		{"op-less chain to a ret", oplessChainToRet(), 1, 5},
		{"op-less block on a branch loop", oplessOnBranchLoop(), 9, 20},
		{"two op-less chains into one cycle", oplessSharedCycle(), 3, 20},
		{"two op-less chains to one exit", oplessSharedExit(), 3, 20},
	}
	for _, c := range cases {
		for maxSteps := 0; maxSteps <= 40; maxSteps++ {
			checkProfile(t, c, maxSteps)
		}
	}
	// A step bound crossed exactly: a trip of takenBranchThenOps runs
	// bb0's branch (1 step) and bb2's RET (1 step), whatever follows the
	// branch in bb0.
	if _, err := interp.Profile(takenBranchThenOps(), 1, 1, interp.Config{MaxSteps: 2}); err != nil {
		t.Fatalf("a 2-step trip failed under MaxSteps 2: %v", err)
	}
	if _, err := interp.Profile(takenBranchThenOps(), 1, 1, interp.Config{MaxSteps: 1}); err == nil {
		t.Fatal("a 2-step trip passed under MaxSteps 1")
	}
	d, err := interp.Profile(sharedOrigAcrossBlocks(), 1, 0, interp.Config{})
	if err != nil || len(d.Block) != 0 || len(d.Edge) != 0 {
		t.Fatalf("zero trips: profile %v, error %v; want an empty profile", d, err)
	}
	// An op-less cycle fails under every bound; op-less blocks that lead to
	// a RET, or that lie on a loop with a branch, do not.
	const want = "interp: oplesscycle: bb1 falls into a cycle of blocks without ops"
	if _, err := interp.Profile(oplessCycleAfterOps(), 1, 5, interp.Config{}); fmt.Sprint(err) != want {
		t.Fatalf("op-less cycle: error %v, want %q", err, want)
	}
	for _, f := range []*ir.Function{oplessChainToRet(), oplessOnBranchLoop(), oplessSharedExit()} {
		if _, err := interp.Profile(f, 1, 20, interp.Config{}); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
}

// oplessSelfLoop: bb0 has no ops and falls through to itself.
func oplessSelfLoop() *ir.Function {
	f, _, _ := handFn("oplessself", 1)
	f.Block(0).FallThrough = 0
	return f
}

// oplessCycleAfterOps: bb0 runs an op, bb1 falls through to a cycle of
// op-less bb2 and bb3, and bb4 returns but is never reached.
func oplessCycleAfterOps() *ir.Function {
	f, _, _ := handFn("oplesscycle", 5)
	f.EmitMovI(f.Block(0), f.NewReg(ir.ClassGPR), 1)
	f.Block(3).FallThrough = 2
	f.EmitRet(f.Block(4))
	return f
}

// oplessChainToRet: four op-less blocks in a row, one fewer than the
// function's blocks, fall through to a RET.
func oplessChainToRet() *ir.Function {
	f, _, _ := handFn("oplesschain", 5)
	f.EmitRet(f.Block(4))
	return f
}

// oplessSharedCycle: bb0's branch leads to op-less bb3 or bb1, and both
// fall into the op-less cycle of bb1 and bb2.
func oplessSharedCycle() *ir.Function {
	f, p, btr := handFn("oplesssharedcycle", 5)
	b0 := f.Block(0)
	f.EmitMovI(b0, f.NewReg(ir.ClassGPR), 1)
	f.EmitBrct(b0, btr, p, 3, 0.5)
	f.Block(2).FallThrough = 1
	f.Block(3).FallThrough = 2
	f.EmitRet(f.Block(4))
	return f
}

// oplessSharedExit: bb0's branch leads to op-less bb2 or bb1, and both
// fall through op-less bb3 to bb4's RET.
func oplessSharedExit() *ir.Function {
	f, p, btr := handFn("oplesssharedexit", 5)
	b0 := f.Block(0)
	f.EmitMovI(b0, f.NewReg(ir.ClassGPR), 1)
	f.EmitBrct(b0, btr, p, 2, 0.5)
	f.Block(1).FallThrough = 3
	f.EmitRet(f.Block(4))
	return f
}

// oplessOnBranchLoop: bb1's branch loops back through op-less bb2 and
// bb3, so every pass round the loop runs an op.
func oplessOnBranchLoop() *ir.Function {
	f, p, btr := handFn("oplessloop", 5)
	f.EmitMovI(f.Block(0), f.NewReg(ir.ClassGPR), 1)
	f.EmitBrct(f.Block(1), btr, p, 4, 0.3)
	f.Block(3).FallThrough = 1
	f.EmitRet(f.Block(4))
	return f
}

// handFn starts a hand-built function with n blocks, each falling through
// to the next, and a predicate and branch-target register for its
// branches.
func handFn(name string, n int) (f *ir.Function, p, btr ir.Reg) {
	f = ir.NewFunction(name)
	for i := 0; i < n; i++ {
		b := f.NewBlock()
		if i+1 < n {
			b.FallThrough = b.ID + 1
		}
	}
	return f, f.NewReg(ir.ClassPred), f.NewReg(ir.ClassBTR)
}

// takenBranchThenOps: bb0's always-taken branch is followed by three ops
// that never run, so a trip is 2 steps, not 5.
func takenBranchThenOps() *ir.Function {
	f, p, btr := handFn("taken", 3)
	b0 := f.Block(0)
	f.EmitBrct(b0, btr, p, 2, 1)
	for i := 0; i < 3; i++ {
		f.EmitMovI(b0, f.NewReg(ir.ClassGPR), int64(i))
	}
	f.EmitRet(f.Block(1))
	f.EmitRet(f.Block(2))
	return f
}

// branchAfterRet: a conditional branch after bb0's RET never runs; it
// shares its Orig with the branch before the RET, which does.
func branchAfterRet() *ir.Function {
	f, p, btr := handFn("afterret", 3)
	b0, b1 := f.Block(0), f.Block(1)
	br := f.EmitBrct(b0, btr, p, 1, 0.5)
	f.EmitMovI(b0, f.NewReg(ir.ClassGPR), 1)
	f.EmitRet(b0)
	dead := f.EmitBrct(b0, btr, p, 2, 1)
	dead.Orig = br.Orig
	b0.FallThrough = 1
	f.EmitRet(b1)
	f.EmitRet(f.Block(2))
	return f
}

// guardedBranch: a loop whose back branch is guarded by a predicate
// nothing sets; profiling ignores guards and lets the oracle decide.
func guardedBranch() *ir.Function {
	f, p, btr := handFn("guarded", 3)
	f.EmitMovI(f.Block(0), f.NewReg(ir.ClassGPR), 1)
	b1 := f.Block(1)
	f.EmitMovI(b1, f.NewReg(ir.ClassGPR), 2)
	br := f.EmitBrct(b1, btr, p, 1, 0.8)
	br.Guard = f.NewReg(ir.ClassPred)
	f.EmitRet(f.Block(2))
	return f
}

// sharedOrigOneBlock: a loop block with two conditional branches of one
// Orig, as tail duplication can leave them, to different targets.
func sharedOrigOneBlock() *ir.Function {
	f, p, btr := handFn("oneblock", 4)
	b1 := f.Block(1)
	f.EmitMovI(b1, f.NewReg(ir.ClassGPR), 1)
	a := f.EmitBrct(b1, btr, p, 1, 0.6)
	b := f.EmitBrct(b1, btr, p, 3, 0.5)
	b.Orig = a.Orig
	f.EmitRet(f.Block(2))
	f.EmitRet(f.Block(3))
	return f
}

// sharedOrigAcrossBlocks: two loop blocks whose back branches share an
// Orig, and a forward branch and the fallthrough to one target.
func sharedOrigAcrossBlocks() *ir.Function {
	f, p, btr := handFn("across", 5)
	b0, b1, b2 := f.Block(0), f.Block(1), f.Block(2)
	f.EmitBrct(b0, btr, p, 1, 0.5) // taken or not, bb1 is next
	a := f.EmitBrct(b1, btr, p, 2, 0.7)
	f.EmitMovI(b1, f.NewReg(ir.ClassGPR), 1)
	b1.FallThrough = 3
	b := f.EmitBrct(b2, btr, p, 1, 0.6)
	b.Orig = a.Orig
	f.EmitBru(f.Block(3), btr, 4)
	f.Block(3).FallThrough = ir.NoBlock
	f.EmitRet(f.Block(4))
	return f
}

// foreignOrigs: branches keyed by a negative Orig and by an Orig in an
// inlined callee's namespace, far above the function's op IDs.
func foreignOrigs() *ir.Function {
	f, p, btr := handFn("foreign", 3)
	b1 := f.Block(1)
	neg := f.EmitBrct(b1, btr, p, 1, 0.5)
	neg.Orig = -7
	inl := f.EmitBrct(b1, btr, p, 0, 0.3)
	inl.Orig = 2*ir.OrigStride + 11
	f.EmitRet(f.Block(2))
	return f
}

// branchToNoBlock: a loop whose exit branch is taken to no block.
func branchToNoBlock() *ir.Function {
	f, p, btr := handFn("noblock", 2)
	b0 := f.Block(0)
	f.EmitMovI(b0, f.NewReg(ir.ClassGPR), 1)
	f.EmitBrct(b0, btr, p, ir.NoBlock, 0.2)
	b0.FallThrough = 0
	f.EmitRet(f.Block(1))
	return f
}

// noSuccessor: bb1 neither returns nor has a successor.
func noSuccessor() *ir.Function {
	f, _, _ := handFn("nosucc", 2)
	f.EmitMovI(f.Block(0), f.NewReg(ir.ClassGPR), 1)
	f.EmitMovI(f.Block(1), f.NewReg(ir.ClassGPR), 2)
	return f
}
