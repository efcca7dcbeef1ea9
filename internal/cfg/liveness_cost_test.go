package cfg

import (
	"fmt"
	"runtime"
	"testing"

	"treegion/internal/ir"
)

// accChain returns a straight line of n blocks. Each block computes 8
// temporaries of its own and folds them into one accumulator, so the
// function has 8n+1 registers of which only the accumulator is ever read
// before it is written.
func accChain(n int) *ir.Function {
	f := ir.NewFunction(fmt.Sprintf("acc%d", n))
	acc := f.NewReg(ir.ClassGPR)
	var prev *ir.Block
	for i := 0; i < n; i++ {
		b := f.NewBlock()
		if prev != nil {
			prev.FallThrough = b.ID
		}
		for j := 0; j < 8; j++ {
			t := f.NewReg(ir.ClassGPR)
			f.EmitMovI(b, t, int64(i+j))
			f.EmitALU(b, ir.Add, acc, acc, t)
		}
		prev = b
	}
	f.EmitRet(prev)
	return f
}

// livenessCost returns the bytes per block and the allocation count of
// cfg.New plus ComputeLiveness over accChain(n): the minimum over a few
// runs, so a stray runtime allocation cannot inflate them.
func livenessCost(t *testing.T, n int) (bytesPerBlock float64, allocs uint64) {
	t.Helper()
	fn := accChain(n)
	if err := fn.Validate(); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	bestBytes, bestAllocs := ^uint64(0), ^uint64(0)
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&ms)
		b0, a0 := ms.TotalAlloc, ms.Mallocs
		lv := ComputeLiveness(New(fn))
		runtime.ReadMemStats(&ms)
		if !lv.LiveIn[fn.Entry].Has(ir.GPR(0)) || lv.LiveIn[fn.Entry].Count() != 1 {
			t.Fatalf("accChain(%d): live-in at entry holds %d registers, want just the accumulator", n, lv.LiveIn[fn.Entry].Count())
		}
		bestBytes, bestAllocs = min(bestBytes, ms.TotalAlloc-b0), min(bestAllocs, ms.Mallocs-a0)
	}
	return float64(bestBytes) / float64(n), bestAllocs
}

// TestLivenessCostLinearInBlocks pins liveness's cost with a count, not a
// time: CFG construction plus liveness over chains of 64 and 1,024 blocks
// must allocate about the same bytes per block, and about the same number
// of times. Sets sized by every register of the function grow the
// per-block figure with the function; a list per block grows the count.
func TestLivenessCostLinearInBlocks(t *testing.T) {
	smallB, smallA := livenessCost(t, 64)
	bigB, bigA := livenessCost(t, 1024)
	if ratio := max(smallB, bigB) / min(smallB, bigB); ratio > 1.5 {
		t.Errorf("liveness allocates %.0f bytes per block at 64 blocks but %.0f at 1,024 (%.1fx)", smallB, bigB, ratio)
	}
	if ratio := float64(max(smallA, bigA)) / float64(min(smallA, bigA)); ratio > 2 {
		t.Errorf("liveness allocates %d times at 64 blocks but %d at 1,024 (%.1fx)", smallA, bigA, ratio)
	}
	t.Logf("bytes per block: %.0f at 64 blocks, %.0f at 1,024; allocations: %d and %d", smallB, bigB, smallA, bigA)
}

// TestGraphAllocsIndependentOfBlocks: New lays successors and predecessors
// out in one slab each, so its allocation count does not grow with the
// block count. A list allocated per block grows it.
func TestGraphAllocsIndependentOfBlocks(t *testing.T) {
	small, big := accChain(64), accChain(1024)
	a := testing.AllocsPerRun(5, func() { New(small) })
	b := testing.AllocsPerRun(5, func() { New(big) })
	if a != b {
		t.Fatalf("cfg.New allocates %.0f times at 64 blocks but %.0f at 1,024", a, b)
	}
}
