package core

import (
	"fmt"
	"runtime"
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/ir"
)

// diamonds returns a chain of n if-diamonds: head i branches to two arms
// that both fall into head i+1, and the last head returns. Every head past
// the first is a merge point, so treeform roots one region at each head:
// the function has 3n+1 blocks and n+1 regions.
func diamonds(n int) *ir.Function {
	f := ir.NewFunction(fmt.Sprintf("diamonds%d", n))
	x, y := f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR)
	p := f.NewReg(ir.ClassPred)
	head := f.NewBlock()
	f.EmitMovI(head, x, 1)
	f.EmitMovI(head, y, 2)
	for i := 0; i < n; i++ {
		left, right, next := f.NewBlock(), f.NewBlock(), f.NewBlock()
		f.EmitCmpp(head, p, ir.NoReg, ir.CondLT, x, y)
		f.EmitBrct(head, ir.NoReg, p, right.ID, 0.5)
		head.FallThrough = left.ID
		f.EmitALU(left, ir.Add, x, x, y)
		f.EmitALU(right, ir.Sub, y, y, x)
		left.FallThrough = next.ID
		right.FallThrough = next.ID
		head = next
	}
	f.EmitRet(head)
	return f
}

// formBytesPerBlock forms treegions over diamonds(n) and returns the bytes
// FormInline allocated per block: the minimum over a few fresh clones, so a
// stray runtime allocation cannot inflate it.
func formBytesPerBlock(t *testing.T, n int) float64 {
	t.Helper()
	orig := diamonds(n)
	if err := orig.Validate(); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	best := ^uint64(0)
	for i := 0; i < 5; i++ {
		fn := orig.Clone()
		g := cfg.New(fn)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		regions := FormInline(fn, g, nil)
		runtime.ReadMemStats(&ms)
		if len(regions) != n+1 {
			t.Fatalf("%d diamonds formed %d regions, want %d", n, len(regions), n+1)
		}
		best = min(best, ms.TotalAlloc-before)
	}
	return float64(best) / float64(len(orig.Blocks))
}

// TestFormCostLinearInBlocks pins formation's O(blocks) cost with a count,
// not a time: treeform over 64 and over 1,024 chained diamonds must
// allocate about the same bytes per block. A table sized to the function
// and kept per region grows the per-block figure with the region count.
func TestFormCostLinearInBlocks(t *testing.T) {
	small, big := formBytesPerBlock(t, 64), formBytesPerBlock(t, 1024)
	if ratio := max(small, big) / min(small, big); ratio > 1.5 {
		t.Fatalf("formation allocates %.0f bytes per block at 193 blocks but %.0f at 3,073 (%.1fx)", small, big, ratio)
	}
	t.Logf("bytes per block: %.0f at 193 blocks, %.0f at 3,073", small, big)
}
