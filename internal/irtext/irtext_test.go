package irtext

import (
	"strings"
	"testing"

	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/progen"
)

const sample = `
; the paper's Figure 1 fragment, hand-written
func fig1
bb0:
  r0 = movi 1000
  r1 = ld [r0+8]
  p0 = cmpp gt r1, r0
  b0 = pbr @bb2
  brct b0, p0, @bb2 #0.35
  fallthrough @bb1
bb1:
  r2 = add r1, r0
  st [r0+0], r2
  fallthrough @bb3
bb2:
  (p0) r2 = movi 5
  fallthrough @bb3
bb3:
  ret
`

func TestParseSample(t *testing.T) {
	fn, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if fn.Name != "fig1" || len(fn.Blocks) != 4 {
		t.Fatalf("parsed %q with %d blocks", fn.Name, len(fn.Blocks))
	}
	b0 := fn.Block(0)
	if len(b0.Ops) != 5 {
		t.Fatalf("bb0 has %d ops", len(b0.Ops))
	}
	if b0.Ops[1].Opcode != ir.Ld || b0.Ops[1].Imm != 8 {
		t.Fatalf("ld parsed as %v", b0.Ops[1])
	}
	br := b0.Ops[4]
	if br.Opcode != ir.Brct || br.Target != 2 || br.Prob != 0.35 {
		t.Fatalf("branch parsed as %v prob %v", br, br.Prob)
	}
	if b0.FallThrough != 1 {
		t.Fatal("fallthrough wrong")
	}
	guarded := fn.Block(2).Ops[0]
	if !guarded.Guarded() || guarded.Guard != ir.Pred(0) {
		t.Fatalf("guard parsed as %v", guarded.Guard)
	}
	// Registers must be noted so the allocator cannot clash.
	if r := fn.NewReg(ir.ClassGPR); r.Num < 3 {
		t.Fatalf("register allocator clashes: got %v", r)
	}
	// The parsed function runs.
	var run interp.Runner
	run.Reset(nil, new(interp.Numbering))
	if err := run.RunTrace(fn, interp.NewOracle(1), interp.Config{}, new(interp.Trace)); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripSample(t *testing.T) {
	fn, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := Print(fn)
	fn2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if Print(fn2) != text {
		t.Fatalf("round trip not a fixed point:\n%s\nvs\n%s", text, Print(fn2))
	}
}

// Property: Print∘Parse is the identity on Print's image, for every function
// of the whole synthetic suite.
func TestRoundTripSuite(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range progs {
		for _, fn := range prog.Funcs {
			text := Print(fn)
			back, err := Parse(text)
			if err != nil {
				t.Fatalf("%s/%s: %v", prog.Name, fn.Name, err)
			}
			if got := Print(back); got != text {
				// Show the first differing line for debugging.
				a, b := strings.Split(text, "\n"), strings.Split(got, "\n")
				for i := range a {
					if i >= len(b) || a[i] != b[i] {
						t.Fatalf("%s/%s: round trip differs at line %d:\n  %q\n  %q",
							prog.Name, fn.Name, i+1, a[i], b[i])
					}
				}
				t.Fatalf("%s/%s: round trip differs in length", prog.Name, fn.Name)
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", prog.Name, fn.Name, err)
			}
			if back.NumOps() != fn.NumOps() || len(back.Blocks) != len(fn.Blocks) {
				t.Fatalf("%s/%s: op/block counts changed", prog.Name, fn.Name)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"no func", "bb0:\n  ret"},
		{"dup func", "func a\nfunc b"},
		{"dup block", "func a\nbb0:\n  ret\nbb0:\n  ret"},
		{"op outside block", "func a\n  ret"},
		{"undeclared target", "func a\nbb0:\n  bru @bb9"},
		{"bad register", "func a\nbb0:\n  q1 = movi 3\n  ret"},
		{"register above MaxRegNum", "func a\nbb0:\n  r0 = movi 1\n  r1048577 = add r0, r0\n  ret"},
		{"bad opcode", "func a\nbb0:\n  r1 = frobnicate r2, r3\n  ret"},
		{"bad immediate", "func a\nbb0:\n  r1 = movi abc\n  ret"},
		{"bad mem operand", "func a\nbb0:\n  r1 = ld r2+8\n  ret"},
		{"empty mem operand in ld", "func a\nbb0:\n  r1 = ld []\n  ret"},
		{"empty mem operand in st", "func a\nbb0:\n  st [], r1\n  ret"},
		{"bad cond", "func a\nbb0:\n  p0 = cmpp zz r1, r2\n  ret"},
		{"bad prob", "func a\nbb0:\n  p0 = cmpp gt r1, r2\n  brct _, p0, @bb1 #7\n  fallthrough @bb1\nbb1:\n  ret"},
		{"guard not predicate", "func a\nbb0:\n  (r1) r2 = movi 3\n  ret"},
		{"st with dest", "func a\nbb0:\n  r1 = st [r0+0], r2\n  ret"},
		{"branch with dest", "func a\nbb0:\n  r1 = bru @bb0"},
		{"invalid structure", "func a\nbb0:\n  ret\n  fallthrough @bb0"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: error not detected", c.name)
		}
	}
}

func TestParseNegativeOffsets(t *testing.T) {
	fn, err := Parse("func a\nbb0:\n  r1 = ld [r0-16]\n  st [r0+-8], r1\n  ret")
	if err != nil {
		t.Fatal(err)
	}
	if fn.Block(0).Ops[0].Imm != -16 || fn.Block(0).Ops[1].Imm != -8 {
		t.Fatalf("offsets = %d, %d", fn.Block(0).Ops[0].Imm, fn.Block(0).Ops[1].Imm)
	}
}

func TestParseTwoDestCmpp(t *testing.T) {
	fn, err := Parse("func a\nbb0:\n  p0, p1 = cmpp le r1, r2\n  ret")
	if err != nil {
		t.Fatal(err)
	}
	op := fn.Block(0).Ops[0]
	if len(op.Dests) != 2 || op.Dests[1] != ir.Pred(1) || op.Cond != ir.CondLE {
		t.Fatalf("cmpp parsed as %v", op)
	}
}
