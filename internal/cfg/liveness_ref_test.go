package cfg

// Differential check of the word-packed bitset liveness against the
// original map-based implementation, kept here as the reference. The two
// must agree register-for-register on every live-in set: of every example
// program, every function of the eight-benchmark suite, the hand-built
// cases below, and (liveness_witness_test.go, through export_test.go) the
// functions the compile path feeds liveness. Numbering only the registers
// some block reads before writing them, and solving with a worklist, are
// representation and schedule changes, never semantic ones.

import (
	"os"
	"path/filepath"
	"testing"

	"treegion/internal/ir"
	"treegion/internal/irtext"
	"treegion/internal/progen"
)

// RegSet is a map-backed set of virtual registers: the representation the
// reference liveness below runs on, and what the tests use where registers
// are inserted incrementally and the universe is not known up front.
type RegSet map[ir.Reg]struct{}

// NewRegSet returns a set holding the given registers.
func NewRegSet(rs ...ir.Reg) RegSet {
	s := make(RegSet, len(rs))
	for _, r := range rs {
		s.Add(r)
	}
	return s
}

// Add inserts r (ignores NoReg).
func (s RegSet) Add(r ir.Reg) {
	if r.IsValid() {
		s[r] = struct{}{}
	}
}

// Has reports membership.
func (s RegSet) Has(r ir.Reg) bool {
	_, ok := s[r]
	return ok
}

// AddAll inserts every register of o and reports whether s grew.
func (s RegSet) AddAll(o RegSet) bool {
	grew := false
	for r := range o {
		if _, ok := s[r]; !ok {
			s[r] = struct{}{}
			grew = true
		}
	}
	return grew
}

// Clone returns an independent copy.
func (s RegSet) Clone() RegSet {
	c := make(RegSet, len(s))
	for r := range s {
		c[r] = struct{}{}
	}
	return c
}

// refLiveIn is the pre-bitset ComputeLiveness: map-based RegSets over every
// register, the same transfer function (guarded defs do not kill), and
// whole-function reverse-RPO sweeps until nothing changes. It returns the
// live-in sets.
func refLiveIn(g *Graph) []RegSet {
	n := len(g.Fn.Blocks)
	use := make([]RegSet, n)
	def := make([]RegSet, n)
	for _, b := range g.Fn.Blocks {
		u, d := NewRegSet(), NewRegSet()
		for _, op := range b.Ops {
			if op.Guarded() && !d.Has(op.Guard) {
				u.Add(op.Guard)
			}
			for _, s := range op.Srcs {
				if !d.Has(s) {
					u.Add(s)
				}
			}
			if !op.Guarded() {
				for _, dst := range op.Dests {
					d.Add(dst)
				}
			}
		}
		use[b.ID], def[b.ID] = u, d
	}
	liveIn := make([]RegSet, n)
	liveOut := make([]RegSet, n)
	for i := 0; i < n; i++ {
		liveIn[i] = NewRegSet()
		liveOut[i] = NewRegSet()
	}
	changed := true
	for changed {
		changed = false
		for i := len(g.RPO) - 1; i >= 0; i-- {
			b := g.RPO[i]
			out := liveOut[b]
			for _, s := range g.Succs[b] {
				if out.AddAll(liveIn[s]) {
					changed = true
				}
			}
			in := liveIn[b]
			if in.AddAll(use[b]) {
				changed = true
			}
			for r := range out {
				if !def[b].Has(r) && !in.Has(r) {
					in.Add(r)
					changed = true
				}
			}
		}
	}
	return liveIn
}

// diffLiveness compares bitset and map liveness on fn, in both directions:
// every register the reference finds live-in must be in the bitset, and the
// bitset's population counts must match so it holds nothing extra. It
// returns the number of blocks compared.
func diffLiveness(t testing.TB, fn *ir.Function) int {
	t.Helper()
	g := New(fn)
	lv := ComputeLiveness(g)
	ref := refLiveIn(g)
	for _, b := range fn.Blocks {
		got, want := lv.LiveIn[b.ID], ref[b.ID]
		for r := range want {
			if !got.Has(r) {
				t.Errorf("%s: bb%d live-in: bitset missing %v", fn.Name, b.ID, r)
			}
		}
		if got.Count() != len(want) {
			t.Errorf("%s: bb%d live-in: bitset has %d regs, reference has %d",
				fn.Name, b.ID, got.Count(), len(want))
		}
	}
	return len(fn.Blocks)
}

func TestLivenessMatchesReferenceExamples(t *testing.T) {
	paths, err := filepath.Glob("../../examples/tir/*.tir")
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, "../../testdata/fig1.tir")
	if len(paths) < 2 {
		t.Fatalf("found only %d example programs", len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// Examples may be multi-function programs; diff every function.
		prog, err := irtext.ParseProgram(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		t.Run(filepath.Base(p), func(t *testing.T) {
			for _, fn := range prog.Funcs {
				diffLiveness(t, fn)
			}
		})
	}
}

func TestLivenessMatchesReferenceSuite(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 8 {
		t.Fatalf("suite has %d programs, want 8", len(progs))
	}
	for _, prog := range progs {
		t.Run(prog.Name, func(t *testing.T) {
			for _, fn := range prog.Funcs {
				diffLiveness(t, fn)
			}
		})
	}
}

// TestLivenessHandBuiltCases pins the edges of the numbering and the
// worklist, each against the reference and by a direct assertion.
func TestLivenessHandBuiltCases(t *testing.T) {
	// An unreachable block that reads registers and falls into the merge:
	// its own set stays empty, and what it reads flows nowhere.
	t.Run("unreachable-reads", func(t *testing.T) {
		f := diamond(t)
		orphan := f.NewBlock()
		f.EmitALU(orphan, ir.Add, ir.GPR(0), ir.GPR(0), ir.GPR(1))
		orphan.FallThrough = 3
		diffLiveness(t, f)
		if lv := ComputeLiveness(New(f)); !lv.LiveIn[orphan.ID].Empty() || lv.LiveIn[orphan.ID].Count() != 0 {
			t.Errorf("unreachable bb%d has %d live-in registers, want none", orphan.ID, lv.LiveIn[orphan.ID].Count())
		}
	})
	// A register read before it is written only in an unreachable block
	// is numbered nowhere and live nowhere.
	t.Run("read-only-when-unreachable", func(t *testing.T) {
		f := diamond(t)
		r := f.NewReg(ir.ClassGPR)
		orphan := f.NewBlock()
		f.EmitSt(orphan, r, 0, r)
		f.EmitRet(orphan)
		diffLiveness(t, f)
		lv := ComputeLiveness(New(f))
		for _, b := range f.Blocks {
			if lv.LiveIn[b.ID].Has(r) {
				t.Errorf("%v read only in unreachable bb%d is live-in at bb%d", r, orphan.ID, b.ID)
			}
		}
	})
	// bb1 loops on itself: r1 is carried around the loop, r2 is written
	// on every trip before the exit reads it, so only the exit needs it.
	t.Run("self-loop", func(t *testing.T) {
		f := ir.NewFunction("selfloop")
		b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
		r0, r1, r2 := f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR)
		p := f.NewReg(ir.ClassPred)
		f.EmitMovI(b0, r0, 1)
		b0.FallThrough = b1.ID
		f.EmitALU(b1, ir.Add, r1, r1, r0)
		f.EmitMovI(b1, r2, 2)
		f.EmitCmpp(b1, p, ir.NoReg, ir.CondLT, r1, r0)
		f.EmitBrct(b1, ir.NoReg, p, b1.ID, 0.9)
		b1.FallThrough = b2.ID
		f.EmitSt(b2, r2, 0, r2)
		f.EmitRet(b2)
		diffLiveness(t, f)
		lv := ComputeLiveness(New(f))
		if !lv.LiveIn[b1.ID].Has(r0) || !lv.LiveIn[b1.ID].Has(r1) || lv.LiveIn[b1.ID].Has(r2) {
			t.Errorf("self-loop live-in has r0 %v, r1 %v, r2 %v; want true, true, false",
				lv.LiveIn[b1.ID].Has(r0), lv.LiveIn[b1.ID].Has(r1), lv.LiveIn[b1.ID].Has(r2))
		}
	})
	// An irreducible loop entered at both bb1 and bb2. Postorder visits
	// bb1 before bb2 has seen the exit's read of r5, so r5 reaches bb1's
	// live-in only when bb2's growth re-queues it.
	t.Run("two-entry-loop", func(t *testing.T) {
		f := ir.NewFunction("twoentry")
		b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
		r0, r1, r5 := f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassGPR)
		p, q := f.NewReg(ir.ClassPred), f.NewReg(ir.ClassPred)
		f.EmitCmpp(b0, p, ir.NoReg, ir.CondLT, r0, r1)
		f.EmitBrct(b0, ir.NoReg, p, b2.ID, 0.5)
		b0.FallThrough = b1.ID
		f.EmitALU(b1, ir.Add, r0, r0, r1)
		b1.FallThrough = b2.ID
		f.EmitALU(b2, ir.Sub, r1, r1, r0)
		f.EmitCmpp(b2, q, ir.NoReg, ir.CondGT, r1, r0)
		f.EmitBrct(b2, ir.NoReg, q, b1.ID, 0.8)
		b2.FallThrough = b3.ID
		f.EmitSt(b3, r5, 0, r1)
		f.EmitRet(b3)
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		diffLiveness(t, f)
		lv := ComputeLiveness(New(f))
		for _, b := range []ir.BlockID{b0.ID, b1.ID, b2.ID, b3.ID} {
			if !lv.LiveIn[b].Has(r5) {
				t.Errorf("r5, read at the loop exit, is not live-in at bb%d", b)
			}
		}
	})
	// Registers numbered above the allocator's high-water mark, never
	// passed to NoteReg, still number and read as live.
	t.Run("above-next-reg", func(t *testing.T) {
		f := ir.NewFunction("hand")
		b0, b1 := f.NewBlock(), f.NewBlock()
		hi, p := ir.GPR(40), ir.Pred(7)
		f.EmitALU(b0, ir.Add, ir.GPR(39), hi, hi)
		b0.FallThrough = b1.ID
		mov := f.EmitMovI(b1, hi, 3)
		mov.Guard = p
		f.EmitSt(b1, hi, 0, ir.GPR(39))
		f.EmitRet(b1)
		if f.NumRegs(ir.ClassGPR) != 0 || f.NumRegs(ir.ClassPred) != 0 {
			t.Fatal("test registers must not be noted")
		}
		diffLiveness(t, f)
		lv := ComputeLiveness(New(f))
		if !lv.LiveIn[b0.ID].Has(hi) || !lv.LiveIn[b0.ID].Has(p) || !lv.LiveIn[b1.ID].Has(hi) {
			t.Error("hand-numbered registers read before written must be live-in")
		}
	})
	// Registers minted after the snapshot read as absent, also when a
	// hand-numbered register grew the table past the minted number.
	t.Run("minted-after-snapshot", func(t *testing.T) {
		f := diamond(t)
		f.EmitSt(f.Blocks[0], ir.GPR(30), 0, ir.GPR(30))
		g := New(f)
		lv := ComputeLiveness(g)
		minted := []ir.Reg{f.NewReg(ir.ClassGPR), f.NewReg(ir.ClassPred), f.NewReg(ir.ClassBTR), f.NewReg(ir.ClassFPR)}
		if minted[0].Num >= 30 {
			t.Fatalf("minted %v, want a number below the hand-numbered r30", minted[0])
		}
		for _, b := range f.Blocks {
			for _, r := range minted {
				if lv.LiveIn[b.ID].Has(r) {
					t.Errorf("%v minted after the snapshot is live-in at bb%d", r, b.ID)
				}
			}
		}
		if !lv.LiveIn[0].Has(ir.GPR(30)) {
			t.Error("hand-numbered r30 must be live-in at entry")
		}
		if lv.LiveIn[0].Has(ir.NoReg) || lv.LiveIn[0].Has(ir.GPR(-1)) || lv.LiveIn[0].Has(ir.Reg{Class: 9}) {
			t.Error("NoReg, negative numbers and unknown classes must read as absent")
		}
	})
}
