package ir

import "testing"

// TestNumbering pins the numbering's policy: slots in order of first
// sight; table slots for a register above its function's allocator mark
// and for one minted after the numbering began; the overflow map for
// exactly the registers no table can index; -1 for NoReg; nothing left
// after Reset; and no allocation on a second use of the same size.
func TestNumbering(t *testing.T) {
	f := NewFunction("hand")
	low := f.NewReg(ClassGPR)
	high := GPR(5000) // above f's mark, never noted
	p := f.NewReg(ClassPred)
	var n Numbering
	for i, r := range []Reg{low, high, p, low, high} {
		if s, want := n.Slot(r), []int32{0, 1, 2, 0, 1}[i]; s != want {
			t.Fatalf("use %d: Slot(%v) = %d, want %d", i, r, s, want)
		}
	}
	minted := f.NewReg(ClassFPR) // a register renaming mints mid-use
	if s := n.Slot(minted); s != 3 {
		t.Fatalf("Slot(%v) = %d, want 3", minted, s)
	}
	if n.Overflows() != 0 {
		t.Fatalf("%d overflow numberings for registers a table can index", n.Overflows())
	}

	spilled := []Reg{
		{Class: ClassGPR, Num: -3},
		{Class: ClassFPR + 4, Num: 2},
		{Class: ClassBTR, Num: MaxRegNum + 1},
	}
	for i, r := range spilled {
		if s := n.Slot(r); s != int32(4+i) {
			t.Fatalf("Slot(%v) = %d, want %d", r, s, 4+i)
		}
	}
	if n.Overflows() != len(spilled) {
		t.Fatalf("%d overflow numberings, want %d", n.Overflows(), len(spilled))
	}
	if s := n.Slot(GPR(MaxRegNum)); s != 7 || n.Overflows() != len(spilled) {
		t.Fatalf("Slot(r%d) = %d with %d overflows, want a table slot 7", MaxRegNum, s, n.Overflows())
	}
	for s := int32(0); s < int32(n.Len()); s++ {
		if got := n.Lookup(n.Reg(s)); got != s {
			t.Fatalf("Lookup(%v) = %d, want %d", n.Reg(s), got, s)
		}
	}

	if s, l := n.Slot(NoReg), n.Lookup(NoReg); s != -1 || l != -1 || n.Len() != 8 {
		t.Fatalf("NoReg: Slot %d, Lookup %d, %d slots; want -1, -1, 8", s, l, n.Len())
	}

	regs := append([]Reg{NoReg}, n.regs...)
	n.Reset()
	for _, r := range regs {
		if s := n.Lookup(r); s != -1 {
			t.Fatalf("%v keeps slot %d after Reset", r, s)
		}
	}
	if n.Len() != 0 {
		t.Fatalf("%d slots after Reset", n.Len())
	}
	if s := n.Slot(p); s != 0 {
		t.Fatalf("first slot after Reset is %d, want 0", s)
	}
	n.Reset()

	// Once the tables and the log have grown, a use of the same registers
	// allocates nothing, overflow registers included.
	use := func() {
		for _, r := range regs {
			n.Slot(r)
		}
		n.Reset()
	}
	use()
	if a := testing.AllocsPerRun(10, use); a != 0 {
		t.Fatalf("a warm use allocates %v objects, want 0", a)
	}
}
