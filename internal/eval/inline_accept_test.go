package eval

import (
	"testing"

	"treegion/internal/inline"
	"treegion/internal/ir"
	"treegion/internal/progen"
)

// compileSuite generates a call-emitting preset, profiles it, and compiles it
// under tail-duplicating treegion formation with inlining on and off, plus
// the scalar baseline, returning all three results and the config used for
// the inline-on compile (carrying the resolved InlineEnv for verification).
func compileSuite(t *testing.T, preset string) (on, off, base *ProgramResult, prog *progen.Program, onCfg Config) {
	t.Helper()
	p, ok := progen.PresetByName(preset)
	if !ok {
		t.Fatalf("preset %s not registered", preset)
	}
	prog, err := progen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := ir.NewProgram(prog.Funcs)
	if err != nil {
		t.Fatal(err)
	}

	c := DefaultConfig()
	c.Kind = TreegionTD
	off, err = CompileProgram(prog, profs, c)
	if err != nil {
		t.Fatal(err)
	}
	onCfg = c
	onCfg.Inline = inline.DefaultConfig()
	onCfg.InlineEnv = &inline.Env{Prog: resolved, Profiles: profs}
	on, err = CompileProgram(prog, profs, onCfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err = CompileProgram(prog, profs, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	return on, off, base, prog, onCfg
}

// TestInlineAcceptanceCallhot pins the issue's acceptance bar on the 90/10
// hot-callee preset: inlining must grow treegions past call barriers (mean
// region op count up at least 1.5x), must pay off in simulated speedup, and
// every compiled function must pass the full verifier — including the
// differential semantics check, which executes the original's calls and so
// certifies the inlined code against real interprocedural behavior.
func TestInlineAcceptanceCallhot(t *testing.T) {
	on, off, base, prog, onCfg := compileSuite(t, "callhot")

	if ratio := on.RegionStats.AvgOps / off.RegionStats.AvgOps; ratio < 1.5 {
		t.Errorf("mean treegion ops %.2f -> %.2f (ratio %.3f), want >= 1.5x",
			off.RegionStats.AvgOps, on.RegionStats.AvgOps, ratio)
	}
	sOn, sOff := Speedup(base.Time, on.Time), Speedup(base.Time, off.Time)
	if sOn <= sOff {
		t.Errorf("speedup %.3f with inlining vs %.3f without: inlining must pay off", sOn, sOff)
	}
	if on.Inline.Inlined == 0 {
		t.Error("no call sites inlined on the hot-callee preset")
	}
	if off.Inline.Inlined != 0 || len(off.Inline.Splices) != 0 {
		t.Errorf("inline-off compile recorded splices: %+v", off.Inline)
	}
	ar := NewArena()
	for i, fr := range on.Funcs {
		for _, d := range VerifyDiagnostics(prog.Funcs[i], fr, onCfg, ar) {
			t.Errorf("%s: %s", fr.Fn.Name, d)
		}
	}
}

// TestInlineAcceptanceCalldeep exercises the depth-3 chain preset, where the
// recursion/depth cap and expansion budget must actually decline work — the
// counters prove the budget paths run, not just the happy path.
func TestInlineAcceptanceCalldeep(t *testing.T) {
	on, off, base, prog, onCfg := compileSuite(t, "calldeep")

	if on.Inline.Inlined == 0 {
		t.Error("no call sites inlined on the chain preset")
	}
	if on.Inline.DeclinedDepth+on.Inline.DeclinedBudget == 0 {
		t.Errorf("no depth/budget declines on a depth-3 chain: %+v", on.Inline)
	}
	if sOn, sOff := Speedup(base.Time, on.Time), Speedup(base.Time, off.Time); sOn <= sOff {
		t.Errorf("speedup %.3f with inlining vs %.3f without", sOn, sOff)
	}
	ar := NewArena()
	for i, fr := range on.Funcs {
		for _, d := range VerifyDiagnostics(prog.Funcs[i], fr, onCfg, ar) {
			t.Errorf("%s: %s", fr.Fn.Name, d)
		}
	}
}
