package treegion_test

// Adversarial verifier fixtures: each testdata/verify/*.tir program is
// compiled legally, then corrupted in one named, surgical way — a cycle
// moved, a destination retargeted, an immediate tampered with — and the
// static verifier must flag exactly the rule the fixture pins. The
// malformed-IR fixtures skip compilation and are parsed with the unchecked
// parser, since the checked one would reject them at the door.

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"treegion"
	"treegion/internal/ddg"
	"treegion/internal/eval"
	"treegion/internal/inline"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/irtext"
	"treegion/internal/machine"
	"treegion/internal/profile"
	"treegion/internal/region"
	"treegion/internal/sched"
	"treegion/internal/verify"
)

// fixture pins one corruption to one rule ID. A nil corrupt marks a
// malformed-IR fixture that is verified as parsed, without compiling.
type fixture struct {
	name string
	rule string
	kind eval.RegionKind
	// sem includes the differential-semantics pass (needs the original).
	sem bool
	// prog parses the fixture as a multi-function program and verifies
	// function 0 with the program as call-convention context; inline
	// additionally compiles it with demand-driven inlining on, so the
	// splice-integrity rules see real splice records.
	prog    bool
	inline  bool
	corrupt func(t *testing.T, fr *eval.FunctionResult)
}

var fixtures = []fixture{
	{name: "latency", rule: "SC002", kind: eval.BasicBlocks, corrupt: func(t *testing.T, fr *eval.FunctionResult) {
		s, add := findNode(t, fr, func(n *ddg.Node) bool { return n.Op.Opcode == ir.Add })
		_, ld := findNode(t, fr, func(n *ddg.Node) bool { return n.Op.Opcode == ir.Ld })
		s.Cycle[add.Index] = s.Cycle[ld.Index]
	}},
	{name: "width", rule: "SC003", kind: eval.BasicBlocks, corrupt: func(t *testing.T, fr *eval.FunctionResult) {
		s, _ := findNode(t, fr, func(n *ddg.Node) bool { return n.Op.Opcode == ir.MovI })
		for _, n := range s.Graph.Nodes {
			if n.Op.Opcode == ir.MovI {
				s.Cycle[n.Index] = 0
			}
		}
	}},
	{name: "renameclobber", rule: "SC005", kind: eval.Treegion, corrupt: func(t *testing.T, fr *eval.FunctionResult) {
		s, br := findNode(t, fr, func(n *ddg.Node) bool { return n.Op.Opcode == ir.Brct })
		_, spec := findNode(t, fr, func(n *ddg.Node) bool {
			return n.Home == 1 && !n.Term && len(n.Op.Dests) == 1 &&
				s.Graph.NodeOf(n.Op) == n && s.Cycle[n.Index] <= s.Cycle[br.Index]
		})
		spec.Op.Dests[0] = ir.Reg{Class: ir.ClassGPR, Num: 9}
	}},
	{name: "branchorder", rule: "SC006", kind: eval.Treegion, corrupt: func(t *testing.T, fr *eval.FunctionResult) {
		s, br := findNode(t, fr, func(n *ddg.Node) bool { return n.Op.Opcode == ir.Brct })
		_, bru := findNode(t, fr, func(n *ddg.Node) bool { return n.Op.Opcode == ir.Bru && n.Home == br.Home })
		s.Cycle[bru.Index] = s.Cycle[br.Index] - 1
	}},
	{name: "memorder", rule: "SC004", kind: eval.BasicBlocks, corrupt: func(t *testing.T, fr *eval.FunctionResult) {
		s, st1 := findNode(t, fr, func(n *ddg.Node) bool { return n.Op.Opcode == ir.St })
		_, st2 := findNode(t, fr, func(n *ddg.Node) bool { return n.Op.Opcode == ir.St && n.Op.Imm == 4 })
		s.Cycle[st2.Index] = s.Cycle[st1.Index] - 1
	}},
	{name: "sinkstore", rule: "SC007", kind: eval.Treegion, corrupt: func(t *testing.T, fr *eval.FunctionResult) {
		s, st := findNode(t, fr, func(n *ddg.Node) bool { return n.Op.Opcode == ir.St })
		_, br := findNode(t, fr, func(n *ddg.Node) bool { return n.Op.Opcode == ir.Brct })
		s.Cycle[st.Index] = s.Cycle[br.Index]
	}},
	{name: "unsched", rule: "SC001", kind: eval.BasicBlocks, corrupt: func(t *testing.T, fr *eval.FunctionResult) {
		s, st := findNode(t, fr, func(n *ddg.Node) bool { return n.Op.Opcode == ir.St })
		s.Cycle[st.Index] = -1
	}},
	{name: "immtamper", rule: "SEM001", kind: eval.BasicBlocks, sem: true, corrupt: func(t *testing.T, fr *eval.FunctionResult) {
		for _, b := range fr.Fn.Blocks {
			for _, op := range b.Ops {
				if op.Opcode == ir.MovI && op.Imm == 5 {
					op.Imm = 6
					return
				}
			}
		}
		t.Fatal("movi 5 not found")
	}},
	// Interprocedural fixtures: verified with the resolved program (and,
	// for the splice rules, real inliner records) as context.
	{name: "callconv", rule: "CL001", kind: eval.BasicBlocks, prog: true, corrupt: func(t *testing.T, fr *eval.FunctionResult) {
		call := findOp(t, fr, ir.Call)
		fp := findOp(t, fr, ir.MovI)
		for _, b := range fr.Fn.Blocks {
			for _, op := range b.Ops {
				if op.Opcode == ir.MovI && op.Dests[0].Class == ir.ClassFPR {
					fp = op
				}
			}
		}
		if fp.Dests[0].Class != ir.ClassFPR {
			t.Fatal("no FPR definition in fixture")
		}
		call.Srcs[0] = fp.Dests[0]
	}},
	{name: "badsplice", rule: "CL002", kind: eval.Treegion, prog: true, inline: true, corrupt: func(t *testing.T, fr *eval.FunctionResult) {
		if len(fr.Inline.Splices) == 0 {
			t.Fatal("fixture compile spliced nothing")
		}
		fr.Inline.Splices[0].Entry = fr.Inline.Splices[0].Cont
	}},
	{name: "deepsplice", rule: "CL003", kind: eval.Treegion, prog: true, inline: true, corrupt: func(t *testing.T, fr *eval.FunctionResult) {
		if len(fr.Inline.Splices) == 0 {
			t.Fatal("fixture compile spliced nothing")
		}
		fr.Inline.Splices[0].Depth = 99
	}},
	// Malformed-IR fixtures: verified as parsed (unchecked parser).
	{name: "badcfg", rule: "IR004"},
	{name: "retsuccs", rule: "IR005"},
	{name: "useundef", rule: "IR009"},
}

// TestAdversarialFixtures also verifies every fixture, clean and
// corrupted, on one verify.Scratch shared by all of them, with a large
// suite function verified on it between fixtures: the shared scratch must
// report exactly what a fresh one does, so no table carries a fact from
// one function to the next.
func TestAdversarialFixtures(t *testing.T) {
	var shared verify.Scratch
	big := bigSuiteFunction(t)
	onShared := func(t *testing.T, fn *ir.Function, regions []*region.Region, schedules []*sched.Schedule, opts verify.Options) []verify.Diagnostic {
		t.Helper()
		fresh := verify.Compiled(fn, regions, schedules, opts)
		got := verify.CompiledScratch(fn, regions, schedules, opts, &shared)
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("on a shared Scratch:\n got %v\nwant %v", got, fresh)
		}
		if ds := verify.CompiledScratch(big.fr.Fn, big.fr.Regions, big.fr.Schedules, big.opts, &shared); len(ds) != 0 {
			t.Fatalf("%s on the shared Scratch: %v", big.fr.Fn.Name, ds)
		}
		return fresh
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", "verify", fx.name+".tir"))
			if err != nil {
				t.Fatal(err)
			}
			if fx.corrupt == nil {
				fn, err := irtext.ParseUnchecked(string(src))
				if err != nil {
					t.Fatal(err)
				}
				ds := onShared(t, fn, nil, nil, verify.Options{Machine: machine.FourU})
				assertRules(t, ds, fx.rule)
				return
			}
			var (
				orig *ir.Function
				prof *profile.Data
				prg  *ir.Program
			)
			c := eval.DefaultConfig()
			c.Kind = fx.kind
			c.Machine = machine.FourU
			if fx.prog {
				var err error
				prg, err = irtext.ParseProgram(string(src))
				if err != nil {
					t.Fatal(err)
				}
				profs := make([]*profile.Data, len(prg.Funcs))
				for i, fn := range prg.Funcs {
					profs[i], err = interp.Profile(fn, 1, 100, interp.Config{MaxSteps: 1_000_000})
					if err != nil {
						t.Fatal(err)
					}
				}
				if fx.inline {
					c.Inline = inline.DefaultConfig()
					c.InlineEnv = &inline.Env{Prog: prg, Profiles: profs}
				}
				orig, prof = prg.Funcs[0], profs[0]
			} else {
				var err error
				orig, err = irtext.Parse(string(src))
				if err != nil {
					t.Fatal(err)
				}
				prof, err = interp.Profile(orig, 1, 100, interp.Config{MaxSteps: 1_000_000})
				if err != nil {
					t.Fatal(err)
				}
			}
			fr, err := eval.CompileFunction(orig.Clone(), prof.Clone(), c)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			opts := verify.Options{Machine: c.Machine, TD: c.TD, Prog: prg}
			if fx.sem {
				opts.Orig = orig
			}
			if fx.inline {
				opts.Inline = &fr.Inline
			}
			// The uncorrupted compile must be provably legal first — a
			// fixture that trips the verifier on its own proves nothing.
			for _, d := range onShared(t, fr.Fn, fr.Regions, fr.Schedules, opts) {
				t.Errorf("clean compile: %s", d)
			}
			if t.Failed() {
				t.FailNow()
			}
			fx.corrupt(t, fr)
			assertRules(t, onShared(t, fr.Fn, fr.Regions, fr.Schedules, opts), fx.rule)
		})
	}
}

// verifiedFunction is one compiled function and the options that verify
// it.
type verifiedFunction struct {
	fr   *eval.FunctionResult
	opts verify.Options
}

// bigSuiteFunction compiles gcc's largest function under the headline
// configuration, with its original kept for the differential check.
func bigSuiteFunction(t *testing.T) verifiedFunction {
	t.Helper()
	prog, err := treegion.GenerateBenchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := eval.ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	big := 0
	for i, fn := range prog.Funcs {
		if fn.NumOps() > prog.Funcs[big].NumOps() {
			big = i
		}
	}
	c := eval.DefaultConfig()
	orig := prog.Funcs[big]
	fr, err := eval.CompileFunction(orig.Clone(), profs[big].Clone(), c)
	if err != nil {
		t.Fatal(err)
	}
	return verifiedFunction{fr, verify.Options{Machine: c.Machine, Orig: orig}}
}

// assertRules requires at least one diagnostic, every Error-severity rule
// to be exactly want, and no stray advisories.
func assertRules(t *testing.T, ds []verify.Diagnostic, want string) {
	t.Helper()
	if len(ds) == 0 {
		t.Fatalf("corruption went undetected (want %s)", want)
	}
	rules := map[string]bool{}
	for _, d := range ds {
		rules[d.Rule] = true
	}
	var got []string
	for r := range rules {
		got = append(got, r)
	}
	sort.Strings(got)
	if len(got) != 1 || got[0] != want {
		for _, d := range ds {
			t.Logf("  %s", d)
		}
		t.Fatalf("fired rules %v, want exactly [%s]", got, want)
	}
}

// findOp locates the first op with the given opcode in block order.
func findOp(t *testing.T, fr *eval.FunctionResult, opc ir.Opcode) *ir.Op {
	t.Helper()
	for _, b := range fr.Fn.Blocks {
		for _, op := range b.Ops {
			if op.Opcode == opc {
				return op
			}
		}
	}
	t.Fatalf("fixture has no %v op", opc)
	return nil
}

// findNode locates the first node in schedule order matching pred, with
// its schedule.
func findNode(t *testing.T, fr *eval.FunctionResult, pred func(*ddg.Node) bool) (*sched.Schedule, *ddg.Node) {
	t.Helper()
	for _, s := range fr.Schedules {
		for _, n := range s.Graph.Nodes {
			if pred(n) {
				return s, n
			}
		}
	}
	t.Fatal("fixture target node not found")
	return nil, nil
}
