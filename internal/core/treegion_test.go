package core

import (
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/progen"
	"treegion/internal/region"
)

// fig1 builds the paper's Figure 1 CFG:
//
//	bb1 -> bb2, bb8; bb2 -> bb3, bb4; bb3 -> bb5; bb4 -> bb5;
//	bb5 -> bb6, bb7; bb6 -> bb9; bb7 -> bb9; bb8 -> bb9; bb9 exit.
//
// (Block numbering here is zero-based: paper bbN == our bb(N-1).)
func fig1(t *testing.T) *ir.Function {
	t.Helper()
	f := ir.NewFunction("fig1")
	b := make([]*ir.Block, 9)
	for i := range b {
		b[i] = f.NewBlock()
	}
	p := f.NewReg(ir.ClassPred)
	emit := func(i int, br int, prob float64, ft int) {
		f.EmitALU(b[i], ir.Add, f.NewReg(ir.ClassGPR), ir.GPR(0), ir.GPR(1))
		if br >= 0 {
			f.EmitBrct(b[i], ir.NoReg, p, ir.BlockID(br), prob)
		}
		if ft >= 0 {
			b[i].FallThrough = ir.BlockID(ft)
		}
	}
	emit(0, 7, 0.35, 1) // bb1 -> bb8 (taken), bb2 (fall)
	emit(1, 3, 0.4, 2)  // bb2 -> bb4, bb3
	emit(2, -1, 0, 4)   // bb3 -> bb5
	emit(3, -1, 0, 4)   // bb4 -> bb5
	emit(4, 6, 0.5, 5)  // bb5 -> bb7, bb6
	emit(5, -1, 0, 8)   // bb6 -> bb9
	emit(6, -1, 0, 8)   // bb7 -> bb9
	emit(7, -1, 0, 8)   // bb8 -> bb9
	f.EmitALU(b[8], ir.Add, f.NewReg(ir.ClassGPR), ir.GPR(0), ir.GPR(1))
	f.EmitRet(b[8])
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFormFig1(t *testing.T) {
	f := fig1(t)
	g := cfg.New(f)
	regions := Form(f, g)
	if err := region.CheckPartition(f, regions); err != nil {
		t.Fatal(err)
	}
	// Expected treegions (paper Fig. 1): {bb1,bb2,bb3,bb4,bb8}, {bb5,bb6,bb7}, {bb9}.
	if len(regions) != 3 {
		t.Fatalf("formed %d treegions, want 3: %v", len(regions), regions)
	}
	byRoot := map[ir.BlockID]*region.Region{}
	for _, r := range regions {
		byRoot[r.Root] = r
	}
	top := byRoot[0]
	if top == nil || len(top.Blocks) != 5 {
		t.Fatalf("top treegion = %v, want 5 blocks", top)
	}
	mid := byRoot[4]
	if mid == nil || len(mid.Blocks) != 3 {
		t.Fatalf("middle treegion = %v, want {bb5,bb6,bb7}", mid)
	}
	last := byRoot[8]
	if last == nil || len(last.Blocks) != 1 {
		t.Fatalf("final treegion = %v, want {bb9}", last)
	}
	if top.PathCount() != 3 {
		t.Errorf("top treegion paths = %d, want 3", top.PathCount())
	}
}

func TestFormInvariantsOnSuite(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range progs {
		for _, fn := range prog.Funcs {
			g := cfg.New(fn)
			regions := Form(fn, g)
			if err := region.CheckPartition(fn, regions); err != nil {
				t.Fatalf("%s/%s: %v", prog.Name, fn.Name, err)
			}
			for _, r := range regions {
				if err := r.Validate(); err != nil {
					t.Fatalf("%s/%s: %v", prog.Name, fn.Name, err)
				}
				// No merge point other than the root.
				for _, b := range r.Blocks[1:] {
					if g.IsMergePoint(b) {
						t.Fatalf("%s/%s: merge point bb%d inside treegion", prog.Name, fn.Name, b)
					}
				}
			}
		}
	}
}

func TestFormIsProfileIndependent(t *testing.T) {
	// Form takes no profile at all; forming twice must give identical trees.
	f := fig1(t)
	a := Form(f, cfg.New(f))
	b := Form(f, cfg.New(f))
	if len(a) != len(b) {
		t.Fatal("nondeterministic formation")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("region %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

func TestTreegionStatsExceedBasicBlocks(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range progs {
		var parts []region.Stats
		for _, fn := range prog.Funcs {
			parts = append(parts, region.ComputeStats(Form(fn, cfg.New(fn)), nil))
		}
		s := region.Merge(parts)
		if s.AvgBlocks <= 1.2 {
			t.Errorf("%s: avg treegion blocks = %.2f; treegions should exceed basic blocks", prog.Name, s.AvgBlocks)
		}
	}
}

// --- treeform-td ---

func TestFormTDFig1MergesPaths(t *testing.T) {
	f := fig1(t)
	prof, err := interp.Profile(f, 1, 500, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	regions := FormTD(f, prof, TDConfig{ExpansionLimit: 4.0, PathLimit: 20, MergeLimit: 4})
	if err := region.CheckPartition(f, regions); err != nil {
		t.Fatal(err)
	}
	// With a generous limit the whole CFG collapses into one treegion, as
	// the paper describes ("one large treegion where each execution path ...
	// has been converted into a unique path").
	if len(regions) != 1 {
		t.Fatalf("formed %d regions, want 1 fully duplicated tree: %v", len(regions), regions)
	}
	r := regions[0]
	// Fig. 1 has 4 root-to-exit paths: 1-2-3-5-6-9, 1-2-3-5-7-9, 1-2-4-5'...,
	// plus the 1-8-9 path; after full duplication the tree has one leaf per
	// execution path.
	if r.PathCount() < 4 {
		t.Errorf("paths = %d, want at least the 4 distinct execution paths", r.PathCount())
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFormTDRespectsExpansionLimit(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	prog := progs[0] // compress
	for _, fn := range prog.Funcs[:2] {
		before := fn.NumOps()
		prof, err := interp.Profile(fn, 3, 50, interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		regions := FormTD(fn, prof, TDConfig{ExpansionLimit: 2.0, PathLimit: 20, MergeLimit: 4})
		after := fn.NumOps()
		// Whole-function growth must stay within the per-region limit
		// (every region holds cur <= limit * base, and bases partition
		// distinct original code, with slack for absorb-after-dup overshoot).
		if float64(after) > 2.6*float64(before) {
			t.Errorf("%s: expansion %.2f exceeds limit with slack", fn.Name, float64(after)/float64(before))
		}
		if err := region.CheckPartition(fn, regions); err != nil {
			t.Fatal(err)
		}
		for _, r := range regions {
			if err := r.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestFormTDPreservesSemantics(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range progs[:4] {
		for _, fn := range prog.Funcs[:2] {
			orig := fn.Clone()
			prof, err := interp.Profile(fn, 9, 40, interp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			FormTD(fn, prof, DefaultTDConfig())
			if err := fn.Validate(); err != nil {
				t.Fatalf("%s: invalid after treeform-td: %v", fn.Name, err)
			}
			for seed := uint64(0); seed < 10; seed++ {
				var run interp.Runner
				run.Reset(nil, new(ir.Numbering))
				a, b := new(interp.Trace), new(interp.Trace)
				errA := run.RunTrace(orig, interp.NewOracle(seed), interp.Config{MaxSteps: 2_000_000}, a)
				errB := run.RunTrace(fn, interp.NewOracle(seed), interp.Config{MaxSteps: 2_000_000}, b)
				if errA != nil || errB != nil {
					t.Fatalf("%s: run errors: %v / %v", fn.Name, errA, errB)
				}
				if !equalTraces(a, b) {
					t.Fatalf("%s seed %d: traces diverge after tail duplication", fn.Name, seed)
				}
			}
		}
	}
}

func equalTraces(a, b *interp.Trace) bool {
	if len(a.Blocks) != len(b.Blocks) || len(a.Stores) != len(b.Stores) {
		return false
	}
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			return false
		}
	}
	for i := range a.Stores {
		if a.Stores[i] != b.Stores[i] {
			return false
		}
	}
	return true
}

func TestFormTDConservesProfileMass(t *testing.T) {
	f := fig1(t)
	prof, err := interp.Profile(f, 2, 300, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := prof.Total()
	FormTD(f, prof, TDConfig{ExpansionLimit: 4.0, PathLimit: 20, MergeLimit: 4})
	after := prof.Total()
	if diff := after - before; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("profile mass changed: %v -> %v", before, after)
	}
}

func TestFormTDPathLimit(t *testing.T) {
	f := fig1(t)
	prof, err := interp.Profile(f, 2, 300, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	regions := FormTD(f, prof, TDConfig{ExpansionLimit: 10, PathLimit: 2, MergeLimit: 4})
	for _, r := range regions {
		// One sapling absorption may add at most a handful of paths past
		// the limit before the loop stops; it must not run away.
		if r.PathCount() > 6 {
			t.Errorf("region paths = %d despite limit 2", r.PathCount())
		}
	}
}

func TestFormTDMergeLimit(t *testing.T) {
	// A merge point with 5 predecessors and successors must not be
	// duplicated under MergeLimit 4.
	f := ir.NewFunction("wide")
	entry := f.NewBlock()
	p := f.NewReg(ir.ClassPred)
	arms := make([]*ir.Block, 5)
	merge := f.NewBlock()
	exit := f.NewBlock()
	f.EmitALU(merge, ir.Add, f.NewReg(ir.ClassGPR), ir.GPR(0), ir.GPR(1))
	merge.FallThrough = exit.ID
	f.EmitRet(exit)
	for i := range arms {
		arms[i] = f.NewBlock()
		f.EmitALU(arms[i], ir.Add, f.NewReg(ir.ClassGPR), ir.GPR(0), ir.GPR(1))
		arms[i].FallThrough = merge.ID
	}
	for i := 0; i < 4; i++ {
		f.EmitBrct(entry, ir.NoReg, p, arms[i].ID, 0.2)
	}
	entry.FallThrough = arms[4].ID
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	prof, err := interp.Profile(f, 4, 200, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nBlocks := len(f.Blocks)
	regions := FormTD(f, prof, TDConfig{ExpansionLimit: 10, PathLimit: 20, MergeLimit: 4})
	if len(f.Blocks) != nBlocks {
		t.Fatalf("merge point duplicated despite merge count 5 > limit 4 (blocks %d -> %d)", nBlocks, len(f.Blocks))
	}
	if err := region.CheckPartition(f, regions); err != nil {
		t.Fatal(err)
	}
}

func TestFormTDExitMergeWaiver(t *testing.T) {
	// A successor-less merge point (function exit) with merge count over the
	// limit IS duplicated (the paper's waiver).
	f := ir.NewFunction("exits")
	entry := f.NewBlock()
	p := f.NewReg(ir.ClassPred)
	arms := make([]*ir.Block, 5)
	exit := f.NewBlock()
	f.EmitRet(exit)
	for i := range arms {
		arms[i] = f.NewBlock()
		f.EmitALU(arms[i], ir.Add, f.NewReg(ir.ClassGPR), ir.GPR(0), ir.GPR(1))
		arms[i].FallThrough = exit.ID
	}
	for i := 0; i < 4; i++ {
		f.EmitBrct(entry, ir.NoReg, p, arms[i].ID, 0.2)
	}
	entry.FallThrough = arms[4].ID
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	prof, err := interp.Profile(f, 4, 200, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	regions := FormTD(f, prof, TDConfig{ExpansionLimit: 10, PathLimit: 20, MergeLimit: 4})
	if len(regions) != 1 {
		t.Fatalf("got %d regions, want 1 (exit duplicated into every path)", len(regions))
	}
	if err := region.CheckPartition(f, regions); err != nil {
		t.Fatal(err)
	}
}
