package interp

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"treegion/internal/ir"
)

// runOnce runs f once on a fresh Runner resolving calls against prog.
func runOnce(prog *ir.Program, f *ir.Function, o Oracle, cfg Config) (*Trace, error) {
	var r Runner
	r.Reset(prog, new(Numbering))
	tr := new(Trace)
	err := r.RunTrace(f, o, cfg, tr)
	return tr, err
}

// branchy builds bb0 -> {bb1 (p=0.8), bb2}; both -> bb3 (ret), with a store
// of a computed value in each arm.
func branchy(t *testing.T) *ir.Function {
	t.Helper()
	f := ir.NewFunction("branchy")
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	r0 := f.NewReg(ir.ClassGPR)
	r1 := f.NewReg(ir.ClassGPR)
	p := f.NewReg(ir.ClassPred)
	f.EmitMovI(b0, r0, 10)
	f.EmitCmpp(b0, p, ir.NoReg, ir.CondGT, r0, r0)
	f.EmitBrct(b0, ir.NoReg, p, b1.ID, 0.8)
	b0.FallThrough = b2.ID
	f.EmitALU(b1, ir.Add, r1, r0, r0) // 20
	f.EmitSt(b1, r0, 0, r1)
	f.EmitBru(b1, ir.NoReg, b3.ID)
	f.EmitALU(b2, ir.Sub, r1, r0, r0) // 0
	f.EmitSt(b2, r0, 4, r1)
	b2.FallThrough = b3.ID
	f.EmitRet(b3)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRunProducesTrace(t *testing.T) {
	f := branchy(t)
	tr, err := runOnce(nil, f, NewOracle(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Blocks) != 3 {
		t.Fatalf("visited %v, want 3 blocks", tr.Blocks)
	}
	if tr.Blocks[0] != 0 || tr.Blocks[2] != 3 {
		t.Fatalf("path %v must start at bb0 and end at bb3", tr.Blocks)
	}
	if len(tr.Stores) != 1 {
		t.Fatalf("stores = %v, want exactly one", tr.Stores)
	}
	switch tr.Blocks[1] {
	case 1:
		if tr.Stores[0] != (StoreEvent{Addr: 10, Value: 20}) {
			t.Fatalf("bb1 store = %+v", tr.Stores[0])
		}
	case 2:
		if tr.Stores[0] != (StoreEvent{Addr: 14, Value: 0}) {
			t.Fatalf("bb2 store = %+v", tr.Stores[0])
		}
	default:
		t.Fatalf("unexpected middle block %v", tr.Blocks[1])
	}
}

func TestRunDeterministic(t *testing.T) {
	f := branchy(t)
	a, err := runOnce(nil, f, NewOracle(42), Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOnce(nil, f, NewOracle(42), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Blocks) != len(b.Blocks) || len(a.Stores) != len(b.Stores) {
		t.Fatal("same seed must replay the same trip")
	}
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			t.Fatal("block sequence differs across identical runs")
		}
	}
}

func TestProfileRespectsBias(t *testing.T) {
	f := branchy(t)
	const trips = 4000
	d, err := Profile(f, 7, trips, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.BlockWeight(0) != trips || d.BlockWeight(3) != trips {
		t.Fatalf("entry/exit weights = %v/%v, want %d", d.BlockWeight(0), d.BlockWeight(3), trips)
	}
	frac := d.BlockWeight(1) / trips
	if math.Abs(frac-0.8) > 0.05 {
		t.Fatalf("taken fraction = %.3f, want ~0.8", frac)
	}
	if d.BlockWeight(1)+d.BlockWeight(2) != trips {
		t.Fatalf("arm weights don't partition: %v + %v != %d",
			d.BlockWeight(1), d.BlockWeight(2), trips)
	}
	// Edge counts must agree with block counts in this merge-free interior.
	if d.EdgeWeight(0, 1) != d.BlockWeight(1) {
		t.Fatal("edge weight (0,1) inconsistent with block weight")
	}
	if d.EdgeWeight(1, 3)+d.EdgeWeight(2, 3) != d.BlockWeight(3) {
		t.Fatal("incoming edges of bb3 don't sum to its weight")
	}
}

func TestLoopTerminatesAndCounts(t *testing.T) {
	f := ir.NewFunction("loop")
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	r := f.NewReg(ir.ClassGPR)
	p := f.NewReg(ir.ClassPred)
	b0.FallThrough = b1.ID
	f.EmitALU(b1, ir.Add, r, r, r)
	f.EmitCmpp(b1, p, ir.NoReg, ir.CondLT, r, r)
	f.EmitBrct(b1, ir.NoReg, p, b1.ID, 0.75) // ~4 iterations on average
	b1.FallThrough = b2.ID
	f.EmitRet(b2)
	const trips = 3000
	d, err := Profile(f, 3, trips, Config{})
	if err != nil {
		t.Fatal(err)
	}
	iters := d.BlockWeight(1) / trips
	if iters < 3.3 || iters > 4.7 {
		t.Fatalf("mean iterations = %.2f, want ~4", iters)
	}
	if d.EdgeWeight(1, 1) != d.BlockWeight(1)-float64(trips) {
		t.Fatal("back-edge count inconsistent")
	}
}

func TestRunawayLoopCaught(t *testing.T) {
	f := ir.NewFunction("forever")
	b0 := f.NewBlock()
	f.EmitALU(b0, ir.Add, ir.GPR(0), ir.GPR(0), ir.GPR(0))
	f.EmitBru(b0, ir.NoReg, b0.ID)
	if _, err := runOnce(nil, f, NewOracle(0), Config{MaxSteps: 100}); err == nil {
		t.Fatal("infinite loop not caught")
	}
	if _, err := Profile(f, 0, 1, Config{MaxSteps: 100}); err == nil {
		t.Fatal("infinite loop not caught during profiling")
	}
}

// TestOplessCycleCaught: a trip that cycles through blocks without ops
// never reaches the step bound, which counts ops, so the Runner and the
// profiler each fail it at the first block of the op-less run.
func TestOplessCycleCaught(t *testing.T) {
	self := ir.NewFunction("self")
	self.NewBlock().FallThrough = 0
	pair := ir.NewFunction("pair")
	b0, b1, b2 := pair.NewBlock(), pair.NewBlock(), pair.NewBlock()
	pair.EmitMovI(b0, pair.NewReg(ir.ClassGPR), 1)
	b0.FallThrough, b1.FallThrough, b2.FallThrough = b1.ID, b2.ID, b1.ID
	for _, tc := range []struct {
		f             *ir.Function
		blocks, steps int // the Runner's trace when it fails
		want          string
	}{
		{self, 1, 0, "interp: self: bb0 falls into a cycle of blocks without ops"},
		{pair, 2, 1, "interp: pair: bb1 falls into a cycle of blocks without ops"},
	} {
		var tr *Trace
		var runErr, profErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			tr, runErr = runOnce(nil, tc.f, NewOracle(0), Config{})
			_, profErr = Profile(tc.f, 0, 3, Config{})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: an op-less cycle still runs after 10 s", tc.f.Name)
		}
		if fmt.Sprint(runErr) != tc.want || fmt.Sprint(profErr) != tc.want {
			t.Errorf("%s: Runner error %v, Profile error %v; want %q from both", tc.f.Name, runErr, profErr, tc.want)
		}
		if len(tr.Blocks) != tc.blocks || tr.Steps != tc.steps {
			t.Errorf("%s: failing trace %v (%d steps)", tc.f.Name, tr.Blocks, tr.Steps)
		}
	}
}

func TestMissingSuccessorCaught(t *testing.T) {
	f := ir.NewFunction("dangling")
	b0 := f.NewBlock()
	f.EmitALU(b0, ir.Add, ir.GPR(0), ir.GPR(0), ir.GPR(0))
	// No Ret, no fallthrough.
	if _, err := runOnce(nil, f, NewOracle(0), Config{}); err == nil {
		t.Fatal("dangling block not caught")
	}
}

func TestOracleStableAcrossOccurrences(t *testing.T) {
	o := NewOracle(5)
	a := o.Take(3, 0, 0.5)
	b := o.Take(3, 0, 0.5)
	if a != b {
		t.Fatal("oracle must be a pure function of (origID, occurrence)")
	}
	// Probability 0 and 1 are absolute.
	for i := 0; i < 50; i++ {
		if o.Take(9, i, 0) {
			t.Fatal("prob 0 must never be taken")
		}
		if !o.Take(9, i, 1) {
			t.Fatal("prob 1 must always be taken")
		}
	}
}

func TestALUSemantics(t *testing.T) {
	cases := []struct {
		opc     ir.Opcode
		a, b, w int64
	}{
		{ir.Add, 3, 4, 7},
		{ir.Sub, 3, 4, -1},
		{ir.Mul, 3, 4, 12},
		{ir.Div, 12, 4, 3},
		{ir.Div, 12, 0, 0}, // guarded
		{ir.And, 6, 3, 2},
		{ir.Or, 6, 3, 7},
		{ir.Xor, 6, 3, 5},
		{ir.Shl, 1, 4, 16},
		{ir.Shr, 16, 4, 1},
	}
	for _, c := range cases {
		if got := ALU(c.opc, c.a, c.b); got != c.w {
			t.Errorf("ALU(%v, %d, %d) = %d, want %d", c.opc, c.a, c.b, got, c.w)
		}
	}
}

func TestCmppComplement(t *testing.T) {
	f := ir.NewFunction("cmpp")
	b := f.NewBlock()
	r0, r1 := f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR)
	p, q := f.NewReg(ir.ClassPred), f.NewReg(ir.ClassPred)
	f.EmitMovI(b, r0, 5)
	f.EmitMovI(b, r1, 3)
	f.EmitCmpp(b, p, q, ir.CondGT, r0, r1)
	f.EmitSt(b, r0, 0, p)
	f.EmitSt(b, r0, 1, q)
	f.EmitRet(b)
	tr, err := runOnce(nil, f, NewOracle(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []StoreEvent{{Addr: 5, Value: 1}, {Addr: 6, Value: 0}}
	if !reflect.DeepEqual(tr.Stores, want) {
		t.Fatalf("stores = %v, want p=1 q=0 %v", tr.Stores, want)
	}
}

func TestSyntheticMemoryDeterministic(t *testing.T) {
	if SyntheticMem(100) != SyntheticMem(100) {
		t.Fatal("synthetic memory must be deterministic")
	}
	// Load then store then load observes the store.
	f := ir.NewFunction("mem")
	b := f.NewBlock()
	base, v, seven := f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR)
	f.EmitMovI(b, base, 100)
	f.EmitLd(b, v, base, 0)
	f.EmitSt(b, base, 8, v)
	f.EmitMovI(b, seven, 77)
	f.EmitSt(b, base, 0, seven)
	f.EmitLd(b, v, base, 0)
	f.EmitSt(b, base, 16, v)
	f.EmitRet(b)
	tr, err := runOnce(nil, f, NewOracle(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Stores) != 3 {
		t.Fatalf("stores = %v, want 3", tr.Stores)
	}
	if got := tr.Stores[0].Value; got != SyntheticMem(100) {
		t.Fatalf("first load read %d, want synthetic memory %d", got, SyntheticMem(100))
	}
	if got := tr.Stores[2].Value; got != 77 {
		t.Fatalf("load after store read %d, want the stored 77", got)
	}
}
