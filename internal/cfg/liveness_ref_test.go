package cfg

// Differential check of the word-packed bitset liveness against the
// original map-based implementation, kept here verbatim as the reference.
// The two must agree register-for-register on every block of every example
// program and every function of the eight-benchmark suite; the bitset
// version is only a representation change, never a semantic one.

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

// refLiveness is the pre-bitset ComputeLiveness: map-based RegSets, same
// transfer function (guarded defs do not kill), same reverse-RPO sweep.
func refLiveness(g *Graph) (liveIn, liveOut []RegSet) {
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
	liveIn = make([]RegSet, n)
	liveOut = make([]RegSet, n)
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
	return liveIn, liveOut
}

// diffLiveness compares bitset and map liveness on fn, in both directions:
// every register the reference finds live must be in the bitset, and the
// bitset's population counts must match so it holds nothing extra.
func diffLiveness(t *testing.T, fn *ir.Function) {
	t.Helper()
	g := New(fn)
	lv := ComputeLiveness(g)
	refIn, refOut := refLiveness(g)
	check := func(kind string, bid ir.BlockID, got BitSet, want RegSet) {
		for r := range want {
			if !got.Has(r) {
				t.Errorf("%s: bb%d %s: bitset missing %v", fn.Name, bid, kind, r)
			}
		}
		if got.Count() != len(want) {
			t.Errorf("%s: bb%d %s: bitset has %d regs, reference has %d",
				fn.Name, bid, kind, got.Count(), len(want))
		}
	}
	for _, b := range fn.Blocks {
		check("live-in", b.ID, lv.LiveIn[b.ID], refIn[b.ID])
		check("live-out", b.ID, lv.LiveOut[b.ID], refOut[b.ID])
	}
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
