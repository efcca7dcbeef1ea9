package linear

import (
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/progen"
	"treegion/internal/region"
)

func TestBasicBlocks(t *testing.T) {
	f := ir.NewFunction("t")
	b0, b1 := f.NewBlock(), f.NewBlock()
	b0.FallThrough = b1.ID
	f.EmitRet(b1)
	regions := BasicBlocks(f)
	if len(regions) != 2 {
		t.Fatalf("got %d regions, want 2", len(regions))
	}
	if err := region.CheckPartition(f, regions); err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		if len(r.Blocks) != 1 {
			t.Fatal("basic-block regions must be singletons")
		}
	}
}

// branchMerge builds: bb0 -> bb1 (0.7) / bb2; both -> bb3; bb3 -> ret
func branchMerge(t *testing.T) (*ir.Function, *profile.Data) {
	t.Helper()
	f := ir.NewFunction("bm")
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	p := f.NewReg(ir.ClassPred)
	f.EmitALU(b0, ir.Add, f.NewReg(ir.ClassGPR), ir.GPR(0), ir.GPR(1))
	f.EmitBrct(b0, ir.NoReg, p, b1.ID, 0.7)
	b0.FallThrough = b2.ID
	f.EmitALU(b1, ir.Add, f.NewReg(ir.ClassGPR), ir.GPR(0), ir.GPR(1))
	b1.FallThrough = b3.ID
	f.EmitALU(b2, ir.Sub, f.NewReg(ir.ClassGPR), ir.GPR(0), ir.GPR(1))
	b2.FallThrough = b3.ID
	f.EmitALU(b3, ir.Xor, f.NewReg(ir.ClassGPR), ir.GPR(0), ir.GPR(1))
	f.EmitRet(b3)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	prof, err := interp.Profile(f, 11, 1000, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return f, prof
}

func TestSLRsFollowHotPath(t *testing.T) {
	f, prof := branchMerge(t)
	g := cfg.New(f)
	regions := SLRs(f, g, prof)
	if err := region.CheckPartition(f, regions); err != nil {
		t.Fatal(err)
	}
	// bb0+bb1 is the hot SLR; bb2 and bb3 (merge) stand alone.
	var root0 *region.Region
	for _, r := range regions {
		if r.Root == 0 {
			root0 = r
		}
	}
	if root0 == nil || len(root0.Blocks) != 2 || root0.Blocks[1] != 1 {
		t.Fatalf("hot SLR = %v, want [bb0 bb1]", root0)
	}
	// SLRs are linear: every block has at most one child.
	for _, r := range regions {
		for _, b := range r.Blocks {
			if len(r.Children(b)) > 1 {
				t.Fatalf("SLR %v is not linear", r)
			}
		}
	}
}

func TestSLRsOnSuite(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range progs {
		for _, fn := range prog.Funcs {
			g := cfg.New(fn)
			prof, err := interp.Profile(fn, 5, 30, interp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			regions := SLRs(fn, g, prof)
			if err := region.CheckPartition(fn, regions); err != nil {
				t.Fatalf("%s/%s: %v", prog.Name, fn.Name, err)
			}
			for _, r := range regions {
				if err := r.Validate(); err != nil {
					t.Fatal(err)
				}
				for _, b := range r.Blocks {
					if len(r.Children(b)) > 1 {
						t.Fatalf("%s: SLR has branching tree", prog.Name)
					}
				}
			}
		}
	}
}

func TestSuperblocksRemoveSideEntrances(t *testing.T) {
	f, prof := branchMerge(t)
	regions := Superblocks(f, prof, DefaultSuperblockConfig())
	if err := region.CheckPartition(f, regions); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// The hot trace bb0-bb1-bb3 must be single-entry: bb3's copy handles the
	// bb2 entrance. So bb3 must now have exactly one predecessor.
	preds := cfg.New(f).Preds
	for _, r := range regions {
		if !r.FromTrace {
			continue
		}
		for i, b := range r.Blocks {
			if i == 0 {
				continue
			}
			if len(preds[b]) != 1 {
				t.Fatalf("superblock member bb%d has %d preds", b, len(preds[b]))
			}
		}
	}
	// A duplicate of bb3 must exist.
	foundDup := false
	for _, b := range f.Blocks {
		if b.Orig == 3 && b.ID != 3 {
			foundDup = true
		}
	}
	if !foundDup {
		t.Fatal("no tail duplicate of the merge block")
	}
}

func TestSuperblocksPreserveSemantics(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range progs[:4] {
		for _, fn := range prog.Funcs[:2] {
			orig := fn.Clone()
			prof, err := interp.Profile(fn, 13, 40, interp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			Superblocks(fn, prof, DefaultSuperblockConfig())
			if err := fn.Validate(); err != nil {
				t.Fatalf("%s: invalid after superblock formation: %v", fn.Name, err)
			}
			for seed := uint64(0); seed < 10; seed++ {
				var run interp.Runner
				run.Reset(nil, new(interp.Numbering))
				a, b := new(interp.Trace), new(interp.Trace)
				errA := run.RunTrace(orig, interp.NewOracle(seed), interp.Config{MaxSteps: 2_000_000}, a)
				errB := run.RunTrace(fn, interp.NewOracle(seed), interp.Config{MaxSteps: 2_000_000}, b)
				if errA != nil || errB != nil {
					t.Fatalf("%s: run errors: %v / %v", fn.Name, errA, errB)
				}
				if len(a.Blocks) != len(b.Blocks) || len(a.Stores) != len(b.Stores) {
					t.Fatalf("%s seed %d: traces diverge after superblock formation", fn.Name, seed)
				}
				for i := range a.Blocks {
					if a.Blocks[i] != b.Blocks[i] {
						t.Fatalf("%s seed %d: path diverges at step %d", fn.Name, seed, i)
					}
				}
				for i := range a.Stores {
					if a.Stores[i] != b.Stores[i] {
						t.Fatalf("%s seed %d: store %d diverges", fn.Name, seed, i)
					}
				}
			}
		}
	}
}

func TestSuperblocksSingleEntryInvariant(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range progs {
		for _, fn := range prog.Funcs[:1] {
			prof, err := interp.Profile(fn, 17, 30, interp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			regions := Superblocks(fn, prof, DefaultSuperblockConfig())
			if err := region.CheckPartition(fn, regions); err != nil {
				t.Fatalf("%s: %v", prog.Name, err)
			}
			preds := cfg.New(fn).Preds
			for _, r := range regions {
				if !r.FromTrace {
					continue
				}
				for i, b := range r.Blocks {
					if i == 0 {
						continue
					}
					if len(preds[b]) != 1 {
						t.Fatalf("%s/%s: trace block bb%d has %d preds (side entrance left)",
							prog.Name, fn.Name, b, len(preds[b]))
					}
				}
			}
		}
	}
}

func TestSuperblockProfileConserved(t *testing.T) {
	f, prof := branchMerge(t)
	before := prof.Total()
	Superblocks(f, prof, DefaultSuperblockConfig())
	after := prof.Total()
	if diff := after - before; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("profile mass changed: %v -> %v", before, after)
	}
}

func TestFirstInternalTarget(t *testing.T) {
	f := ir.NewFunction("t")
	b := make([]*ir.Block, 4)
	for i := range b {
		b[i] = f.NewBlock()
	}
	p := f.NewReg(ir.ClassPred)
	b[0].FallThrough = b[1].ID
	b[1].FallThrough = b[2].ID
	f.EmitBrct(b[2], ir.NoReg, p, b[1].ID, 0.5) // back edge into trace middle
	b[2].FallThrough = b[3].ID
	f.EmitRet(b[3])
	trace := []ir.BlockID{0, 1, 2, 3}
	if got := firstInternalTarget(f, trace); got != 1 {
		t.Fatalf("firstInternalTarget = %d, want 1", got)
	}
	// A back edge to the head is fine.
	f2 := ir.NewFunction("t2")
	c := make([]*ir.Block, 3)
	for i := range c {
		c[i] = f2.NewBlock()
	}
	q := f2.NewReg(ir.ClassPred)
	c[0].FallThrough = c[1].ID
	f2.EmitBrct(c[1], ir.NoReg, q, c[0].ID, 0.5)
	c[1].FallThrough = c[2].ID
	f2.EmitRet(c[2])
	if got := firstInternalTarget(f2, []ir.BlockID{0, 1, 2}); got != -1 {
		t.Fatalf("head back edge flagged: %d", got)
	}
}
