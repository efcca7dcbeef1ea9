package verify

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/progen"
)

// refRegSet is the map-backed register set refMustDefine runs on.
type refRegSet map[ir.Reg]struct{}

func (s refRegSet) add(r ir.Reg) {
	if r.IsValid() {
		s[r] = struct{}{}
	}
}

func (s refRegSet) has(r ir.Reg) bool {
	_, ok := s[r]
	return ok
}

func (s refRegSet) clone() refRegSet {
	c := make(refRegSet, len(s))
	for r := range s {
		c[r] = struct{}{}
	}
	return c
}

// refMustDefine is the map-based IR009 derivation the bitset dataflow
// replaced, kept as its test oracle: per-edge set clones intersected to a
// fixpoint over every register, data registers included.
func refMustDefine(c *irChecker) {
	fn := c.fn
	g := cfg.New(fn)
	definedIn := make([]refRegSet, len(fn.Blocks))
	definedIn[fn.Entry] = refRegSet{}
	blockDefs := func(b *ir.Block, in refRegSet) refRegSet {
		out := in.clone()
		for _, op := range b.Ops {
			for _, d := range op.Dests {
				out.add(d)
			}
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		for _, bid := range g.RPO {
			in := definedIn[bid]
			if bid != fn.Entry {
				in = nil // "all registers" until a predecessor constrains it
				for _, p := range g.Preds[bid] {
					if definedIn[p] == nil {
						continue // unprocessed pred: no constraint yet
					}
					out := blockDefs(fn.Block(p), definedIn[p])
					if in == nil {
						in = out
					} else {
						in = refIntersect(in, out)
					}
				}
				if in == nil {
					continue
				}
			}
			if definedIn[bid] == nil || len(in) != len(definedIn[bid]) || !refSubset(definedIn[bid], in) {
				definedIn[bid] = in
				changed = true
			}
		}
	}
	for _, b := range fn.Blocks {
		in := definedIn[b.ID]
		if in == nil {
			continue // unreachable: never executes
		}
		defined := in.clone()
		for _, op := range b.Ops {
			for _, s := range op.Srcs {
				if s.IsValid() && !defined.has(s) &&
					(s.Class == ir.ClassPred || s.Class == ir.ClassBTR) {
					c.add("IR009", Error, b.ID, op.ID,
						"%v reads %v, which has no definition on some path from entry", op, s)
				}
			}
			for _, d := range op.Dests {
				defined.add(d)
			}
		}
	}
}

func refIntersect(a, b refRegSet) refRegSet {
	out := refRegSet{}
	for r := range a {
		if b.has(r) {
			out.add(r)
		}
	}
	return out
}

func refSubset(a, b refRegSet) bool {
	for r := range a {
		if !b.has(r) {
			return false
		}
	}
	return true
}

// TestMustDefineMatchesReference is the differential witness for IR009:
// over the suite, callhot and a slice of stress, each function as
// generated and with seeded deletions and moves of predicate and
// branch-target definitions, the bitset dataflow must report exactly the
// reference's diagnostics, in order.
func TestMustDefineMatchesReference(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		fn          *ir.Function
		corruptions []int
	}
	var inputs []input
	for _, preset := range []progen.Preset{progen.CallHot(), progen.Stress()} {
		p, err := progen.Generate(preset)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		for _, fn := range p.Funcs {
			if p.Name == "stress" {
				// The map-based reference takes over a second per
				// 7000-op stress function; one corrupted one suffices.
				inputs = append(inputs, input{fn, []int{3}})
				break
			}
			inputs = append(inputs, input{fn, []int{0, 1, 3}})
		}
	}
	rng := rand.New(rand.NewSource(15))
	cases, reporting := 0, 0
	var shared Scratch
	for _, in := range inputs {
		fn := in.fn
		for _, k := range in.corruptions {
			f := fn.Clone()
			corruptControlDefs(f, k, rng)
			got := &irChecker{fn: f, num: new(interp.Numbering)}
			got.mustDefine(cfg.New(f))
			want := &irChecker{fn: f}
			refMustDefine(want)
			if !reflect.DeepEqual(got.ds, want.ds) {
				t.Fatalf("%s with %d corrupted definitions:\n got %v\nwant %v", f.Name, k, got.ds, want.ds)
			}
			// The same case on the scratch every case shares: its
			// numbering and rows must hold nothing of earlier functions.
			if shared, _ := shared.checkFunction(f, false); !reflect.DeepEqual(shared, want.ds) {
				t.Fatalf("%s with %d corrupted definitions on a shared Scratch:\n got %v\nwant %v", f.Name, k, shared, want.ds)
			}
			cases++
			if len(want.ds) > 0 {
				reporting++
			}
		}
	}
	// The witness must exercise the reporting path, not just agree on
	// silence.
	if reporting*2 < cases {
		t.Fatalf("only %d of %d cases report IR009", reporting, cases)
	}
	t.Logf("%d cases, %d with IR009 findings", cases, reporting)
}

// corruptControlDefs takes k randomly chosen ops that define a predicate
// or branch-target register out of their blocks: half are deleted, half
// moved into a random block ahead of its terminators, so whether a read
// stays defined depends on every path into it — the dataflow itself, not
// just the block-local walk.
func corruptControlDefs(f *ir.Function, k int, rng *rand.Rand) {
	type site struct {
		b  *ir.Block
		op *ir.Op
	}
	var defs []site
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			for _, d := range op.Dests {
				if controlReg(d) {
					defs = append(defs, site{b, op})
					break
				}
			}
		}
	}
	for ; k > 0 && len(defs) > 0; k-- {
		i := rng.Intn(len(defs))
		s := defs[i]
		defs = append(defs[:i], defs[i+1:]...)
		s.b.Ops = slices.DeleteFunc(s.b.Ops, func(op *ir.Op) bool { return op == s.op })
		if rng.Intn(2) == 0 {
			continue
		}
		to := f.Blocks[rng.Intn(len(f.Blocks))]
		at := slices.IndexFunc(to.Ops, func(op *ir.Op) bool { return op.IsBranch() || op.Opcode == ir.Ret })
		if at < 0 {
			at = len(to.Ops)
		}
		to.Ops = slices.Insert(to.Ops, at, s.op)
	}
}
