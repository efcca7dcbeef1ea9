package eval

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/core"
	"treegion/internal/ddg"
	"treegion/internal/ir"
	"treegion/internal/machine"
	"treegion/internal/profile"
	"treegion/internal/progen"
	"treegion/internal/region"
	"treegion/internal/sched"
	"treegion/internal/telemetry"
)

// paddedFunction returns a function whose entry treegion {bb0, bb1, bb2} is
// the same whatever pad is: bb0 branches to two arms that both define v
// (so renaming mints a register and a copy) and both compute the same x+y
// (a dominator-parallelism candidate), a load and a store order memory, and
// both arms fall into the merge block bb3. pad further blocks follow bb3,
// each defining fresh registers, so op IDs, register numbers and the block
// count all grow with pad while the region does not.
func paddedFunction(pad int) *ir.Function {
	f := ir.NewFunction(fmt.Sprintf("padded%d", pad))
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	reg := func() ir.Reg { return f.NewReg(ir.ClassGPR) }
	base, x, y, v := reg(), reg(), reg(), reg()
	p := f.NewReg(ir.ClassPred)
	f.EmitMovI(b0, x, 3)
	f.EmitLd(b0, y, base, 8)
	f.EmitCmpp(b0, p, ir.NoReg, ir.CondLT, x, y)
	f.EmitBrct(b0, ir.NoReg, p, b2.ID, 0.5)
	b0.FallThrough = b1.ID
	same := f.EmitALU(b1, ir.Add, reg(), x, y)
	b2.Ops = append(b2.Ops, f.CloneOp(same))
	f.EmitALU(b1, ir.Mul, v, x, x)
	f.EmitALU(b2, ir.Sub, v, y, x)
	f.EmitSt(b2, base, 0, v)
	b1.FallThrough = b3.ID
	b2.FallThrough = b3.ID
	prev := b3
	acc := reg()
	f.EmitALU(b3, ir.Add, acc, v, x)
	for i := 0; i < pad; i++ {
		nb := f.NewBlock()
		prev.FallThrough = nb.ID
		t := reg()
		f.EmitALU(nb, ir.Add, t, acc, v)
		acc = reg()
		f.EmitALU(nb, ir.Xor, acc, t, x)
		prev = nb
	}
	f.EmitRet(prev)
	return f
}

// entryRegion is paddedFunction's entry treegion.
func entryRegion(t *testing.T, fn *ir.Function) *region.Region {
	t.Helper()
	r := region.New(fn, region.KindTreegion, 0)
	r.Add(1, 0)
	r.Add(2, 0)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return r
}

// entryProfile weights the entry region's blocks and exits.
func entryProfile() *profile.Data {
	d := profile.New()
	d.AddBlock(0, 100)
	d.AddBlock(1, 60)
	d.AddBlock(2, 40)
	d.AddEdge(0, 1, 60)
	d.AddEdge(0, 2, 40)
	d.AddEdge(1, 3, 60)
	d.AddEdge(2, 3, 40)
	return d
}

// regionBytes builds, schedules and measures paddedFunction(pad)'s entry
// region on a warm arena and returns the bytes that allocated (see
// regionAllocs).
func regionBytes(t *testing.T, pad int) uint64 {
	bytes, _ := regionAllocs(t, pad)
	return bytes
}

// regionAllocs builds, schedules, measures and takes the statistics of
// paddedFunction(pad)'s entry region on a warm arena, as the compile path
// does, and returns the bytes and objects that allocated: the minimum of
// each over a few fresh clones, so a stray runtime allocation cannot
// inflate them.
func regionAllocs(t *testing.T, pad int) (bytes, objects uint64) {
	t.Helper()
	orig := paddedFunction(pad)
	if err := orig.Validate(); err != nil {
		t.Fatal(err)
	}
	ar := NewArena()
	var ms runtime.MemStats
	run := func() (uint64, uint64) {
		fn := orig.Clone()
		r := entryRegion(t, fn)
		lv := cfg.ComputeLiveness(cfg.New(fn))
		prof := entryProfile()
		opts := ddg.Options{Rename: true, DominatorParallelism: true, Liveness: lv, Profile: prof}
		runtime.ReadMemStats(&ms)
		bytes, objects := ms.TotalAlloc, ms.Mallocs
		g, err := ddg.BuildScratch(fn, r, opts, &ar.ddg)
		if err != nil {
			t.Fatal(err)
		}
		s := sched.ListScheduleScratch(g, machine.FourU, core.GlobalWeight.Keys, nil, &ar.sched)
		rt := ar.MeasureRegion(s, prof, lv)
		st := s.Stats()
		runtime.ReadMemStats(&ms)
		if g.NumRenamed == 0 || g.NumMerged == 0 || rt.Time == 0 || st.Ops != len(g.Nodes) {
			t.Fatalf("pad %d: the fixed region must merge, rename and measure (merged %d, renamed %d, time %v)",
				pad, g.NumMerged, g.NumRenamed, rt.Time)
		}
		return ms.TotalAlloc - bytes, ms.Mallocs - objects
	}
	run() // warm the arena
	bytes, objects = run()
	for i := 0; i < 4; i++ {
		b, o := run()
		bytes, objects = min(bytes, b), min(objects, o)
	}
	return bytes, objects
}

// TestRegionCostIndependentOfFunctionSize pins the O(region) cost of a
// region's DDG build, schedule and measurement with a count that does not
// depend on timing: the same region inside a function padded to N and to
// 16N blocks must allocate exactly the same bytes on a warm arena. Any
// table sized to the function — or a scan that allocates per block, op or
// register of it — shows up as a difference.
func TestRegionCostIndependentOfFunctionSize(t *testing.T) {
	const n = 64
	small, big := regionBytes(t, n), regionBytes(t, 16*n)
	if small != big {
		t.Fatalf("one fixed region allocates %d bytes in a %d-block function but %d bytes in a %d-block one",
			small, n+4, big, 16*n+4)
	}
}

// TestRegionAllocatesWhatItKeeps pins that building, scheduling, measuring
// and taking the statistics of paddedFunction's entry region (one merge,
// two renames) on a warm arena allocates little beyond what the result
// keeps: the graph and its node and edge slabs, the schedule and its
// cycles, the copies and registers renaming mints, and the region's child
// lists. Dominator parallelism's groups, the exit counts and measurement's
// views and exit list come from the arena; a map or table per region or
// per candidate set shows up as a count above the limit.
func TestRegionAllocatesWhatItKeeps(t *testing.T) {
	const limit = 24
	_, objects := regionAllocs(t, 64)
	if objects > limit {
		t.Fatalf("one region allocates %d objects on a warm arena, want at most %d", objects, limit)
	}
	t.Logf("%d objects per region", objects)
}

// replayCompile compiles fn the way the benchmark's traced replay does:
// formation, liveness, then per region ddg.BuildScratch,
// sched.ListScheduleScratch and MeasureRegion on caller-owned scratch that
// outlives the function.
func replayCompile(t *testing.T, fn *ir.Function, prof *profile.Data, c Config, dsc *ddg.Scratch, ssc *sched.Scratch) *FunctionResult {
	t.Helper()
	tr := telemetry.NewTrace(fn.Name)
	res := &FunctionResult{Fn: fn, Prof: prof, OpsBefore: fn.NumOps(), Trace: tr}
	switch c.Kind {
	case Treegion:
		res.Regions = core.FormInline(fn, cfg.New(fn), nil)
	case TreegionTD:
		res.Regions = core.FormTDInlineTraced(fn, prof, c.TD, tr, nil)
	default:
		t.Fatalf("replay: kind %s", c.Kind)
	}
	res.OpsAfter = fn.NumOps()
	if err := region.CheckPartition(fn, res.Regions); err != nil {
		t.Fatal(err)
	}
	lv := cfg.ComputeLiveness(cfg.New(fn))
	for _, r := range res.Regions {
		g, err := ddg.BuildScratch(fn, r, ddg.Options{
			Rename:               c.Rename,
			DominatorParallelism: c.DominatorParallelism,
			Liveness:             lv,
			Profile:              prof,
		}, dsc)
		if err != nil {
			t.Fatal(err)
		}
		s := sched.ListScheduleScratch(g, c.Machine, c.Heuristic.Keys, tr, ssc)
		rt := MeasureRegion(s, prof, lv)
		res.Time += rt.Time
		res.Copies += rt.TimeWithCopies
		res.Schedules = append(res.Schedules, s)
		res.NumRenamed += g.NumRenamed
		res.NumCopies += g.NumCopies
		res.NumMerged += g.NumMerged
		res.NumSpeculated += s.Stats().Speculated
	}
	return res
}

// TestArenaReuseMatchesFreshArena is the differential check on scratch
// reuse: compiles that share an eval.Arena, or share one ddg.Scratch across
// a program's functions as the benchmark's replay does, must produce
// exactly the schedules of compiles on a fresh arena each. The sequence big
// → small → a fresh clone of big makes a later compile meet tables an
// earlier, larger one grew, and then meet a function whose op IDs and
// registers are identical to one it already saw. Each compile on the
// shared arena is verified on it too, and must report what a fresh arena's
// verifier does. Both run under tree and under tree-td with dominator
// parallelism. It stays on under -short so the race detector sees it.
func TestArenaReuseMatchesFreshArena(t *testing.T) {
	var progs []*progen.Program
	for _, name := range []string{"compress", "li"} {
		p, ok := progen.PresetByName(name)
		if !ok {
			t.Fatalf("preset %s not registered", name)
		}
		prog, err := progen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	profs := make([]Profiles, len(progs))
	for i, prog := range progs {
		var err error
		if profs[i], err = ProfileProgram(prog); err != nil {
			t.Fatal(err)
		}
	}
	td := Config{
		Kind: TreegionTD, Heuristic: core.GlobalWeight, Machine: machine.EightU, Rename: true,
		DominatorParallelism: true,
		TD:                   core.TDConfig{ExpansionLimit: 2.0, PathLimit: 20, MergeLimit: 4},
	}
	for _, c := range []Config{DefaultConfig(), td} {
		t.Run(c.Kind.String(), func(t *testing.T) {
			type fnRef struct {
				fn   *ir.Function
				prof *profile.Data
			}
			var all []fnRef
			fresh := map[*ir.Function]string{}
			for pi, prog := range progs {
				for fi, fn := range prog.Funcs {
					fr, err := CompileFunctionArena(fn.Clone(), profs[pi][fi].Clone(), c, NewArena())
					if err != nil {
						t.Fatal(err)
					}
					fresh[fn] = scheduleDigest(fr)
					all = append(all, fnRef{fn, profs[pi][fi]})
				}
			}
			big, small := all[0], all[0]
			for _, f := range all {
				if f.fn.NumOps() > big.fn.NumOps() {
					big = f
				}
				if f.fn.NumOps() < small.fn.NumOps() {
					small = f
				}
			}
			ar := NewArena()
			for _, f := range []fnRef{big, small, big} {
				fr, err := CompileFunctionArena(f.fn.Clone(), f.prof.Clone(), c, ar)
				if err != nil {
					t.Fatal(err)
				}
				if got := scheduleDigest(fr); got != fresh[f.fn] {
					t.Errorf("%s on a shared arena: digest %s, fresh arena %s", f.fn.Name, got, fresh[f.fn])
				}
				want := VerifyDiagnostics(f.fn, fr, c, NewArena())
				if got := VerifyDiagnostics(f.fn, fr, c, ar); !reflect.DeepEqual(got, want) {
					t.Errorf("%s verified on a shared arena: %v, fresh arena %v", f.fn.Name, got, want)
				}
			}
			for pi, prog := range progs {
				var dsc ddg.Scratch
				var ssc sched.Scratch
				for fi, fn := range prog.Funcs {
					fr := replayCompile(t, fn.Clone(), profs[pi][fi].Clone(), c, &dsc, &ssc)
					if got := scheduleDigest(fr); got != fresh[fn] {
						t.Errorf("%s on a program-wide ddg.Scratch: digest %s, fresh arena %s", fn.Name, got, fresh[fn])
					}
				}
			}
		})
	}
}
