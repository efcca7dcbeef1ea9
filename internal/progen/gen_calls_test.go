package progen

import (
	"strings"
	"testing"

	"treegion/internal/interp"
	"treegion/internal/ir"
)

// callPresets returns the two call-emitting presets, which are reachable
// only by name — they must not join the paper's eight-benchmark suite.
func callPresets(t *testing.T) []Preset {
	t.Helper()
	var out []Preset
	for _, name := range []string{"callhot", "calldeep"} {
		p, ok := PresetByName(name)
		if !ok {
			t.Fatalf("preset %s missing", name)
		}
		if p.Call == nil {
			t.Fatalf("preset %s has no call spec", name)
		}
		out = append(out, p)
	}
	return out
}

func TestCallPresetsOutOfSuite(t *testing.T) {
	for _, p := range Presets() {
		if p.Call != nil {
			t.Fatalf("call-emitting preset %s leaked into the benchmark suite", p.Name)
		}
	}
	callPresets(t)
}

func TestGenerateCallsDeterministic(t *testing.T) {
	for _, p := range callPresets(t) {
		a, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Funcs) != len(b.Funcs) {
			t.Fatalf("%s: function counts differ", p.Name)
		}
		for i := range a.Funcs {
			if a.Funcs[i].String() != b.Funcs[i].String() {
				t.Fatalf("%s: function %d differs between identical generations", p.Name, i)
			}
		}
	}
}

func TestGenerateCallsResolves(t *testing.T) {
	for _, p := range callPresets(t) {
		prog, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		resolved, err := ir.NewProgram(prog.Funcs)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		// Callers precede callees, every caller actually calls, and every
		// callee carries the fixed two-GPR-param one-GPR-ret convention.
		sites := resolved.CallSites()
		if len(sites) == 0 {
			t.Fatalf("%s: no call sites generated", p.Name)
		}
		callers := map[int]bool{}
		for _, cs := range sites {
			callers[cs.Caller] = true
		}
		for i, fn := range prog.Funcs {
			if strings.Contains(fn.Name, "_f") && !callers[i] {
				t.Errorf("%s: caller %s has no call site", p.Name, fn.Name)
			}
			if strings.Contains(fn.Name, "_c") {
				if len(fn.Params) != 2 || len(fn.Rets) != 1 {
					t.Errorf("%s: callee %s convention %d/%d, want 2/1",
						p.Name, fn.Name, len(fn.Params), len(fn.Rets))
				}
			}
		}
		if p.Call.ChainDepth > 0 {
			// Chain preset: callee i calls callee i+1, leaf calls nobody.
			for i := 0; i < p.Call.ChainDepth-1; i++ {
				name := p.Name + "_c" + string(rune('0'+i))
				next := p.Name + "_c" + string(rune('0'+i+1))
				ci := resolved.Index(name)
				if ci < 0 {
					t.Fatalf("%s: chain link %s missing", p.Name, name)
				}
				found := false
				for _, cs := range sites {
					if cs.Caller == ci && prog.Funcs[cs.Callee].Name == next {
						found = true
					}
				}
				if !found {
					t.Errorf("%s: %s does not call %s", p.Name, name, next)
				}
			}
			leaf := resolved.Index(p.Name + "_c" + string(rune('0'+p.Call.ChainDepth-1)))
			if cs := resolved.Callees(leaf); len(cs) != 0 {
				t.Errorf("%s: chain leaf calls %v", p.Name, cs)
			}
		}
	}
}

func TestGenerateCallsTerminates(t *testing.T) {
	for _, p := range callPresets(t) {
		prog, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		resolved, err := ir.NewProgram(prog.Funcs)
		if err != nil {
			t.Fatal(err)
		}
		var run interp.Runner
		run.Reset(resolved, new(interp.Numbering))
		for _, fn := range prog.Funcs {
			if err := run.RunTrace(fn, interp.NewOracle(99), interp.Config{MaxSteps: 2_000_000}, new(interp.Trace)); err != nil {
				t.Errorf("%s/%s: %v", p.Name, fn.Name, err)
			}
		}
	}
}
