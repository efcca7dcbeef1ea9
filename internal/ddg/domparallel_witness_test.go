package ddg_test

import (
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/core"
	"treegion/internal/ddg"
	"treegion/internal/eval"
	"treegion/internal/inline"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/progen"
	"treegion/internal/region"
)

// TestMergeMatchesReference is the differential witness for dominator
// parallelism on the builder's scratch tables: every region of the suite at
// seed 0 and two others, under tail-duplicated treegions at expansion
// limits 1.5, 2.0 and 3.0, of the stress preset, and of callhot with
// inlining is built once with the production merge and once, on a twin
// clone, with the map-based reference. Merge decisions (NumMerged, homes,
// eliminated and pinned ops, moved representatives) and the graphs must be
// identical. Each side keeps one Scratch across every region.
func TestMergeMatchesReference(t *testing.T) {
	var w ddg.MergeWitness
	td := func(limit float64) core.TDConfig {
		return core.TDConfig{ExpansionLimit: limit, PathLimit: 20, MergeLimit: 4}
	}
	for _, seed := range []uint64{0, 1, 2} {
		for _, p := range progen.Presets() {
			if seed != 0 {
				p.Seed = p.Seed*1000 + seed
			}
			prog, profs := generate(t, p)
			for _, limit := range []float64{1.5, 2.0, 3.0} {
				compareProgram(t, &w, prog, profs, td(limit), inline.Config{})
			}
		}
	}
	if testing.Short() {
		t.Logf("%d regions, %d duplicates merged", w.Regions, w.Merged)
		return
	}
	for _, name := range []string{"stress", "callhot"} {
		p, ok := progen.PresetByName(name)
		if !ok {
			t.Fatalf("preset %s not registered", name)
		}
		var in inline.Config
		if name == "callhot" {
			in = inline.DefaultConfig()
		}
		prog, profs := generate(t, p)
		compareProgram(t, &w, prog, profs, td(2.0), in)
	}
	if w.Merged == 0 {
		t.Fatal("no region merged a duplicate; the witness compares nothing")
	}
	t.Logf("%d regions, %d duplicates merged", w.Regions, w.Merged)
}

// generate generates and profiles p's program.
func generate(t *testing.T, p progen.Preset) (*progen.Program, eval.Profiles) {
	t.Helper()
	prog, err := progen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := eval.ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, profs
}

// compareProgram forms every function of prog twice, on twin clones, and
// compares every region's builds.
func compareProgram(t *testing.T, w *ddg.MergeWitness, prog *progen.Program, profs eval.Profiles, td core.TDConfig, in inline.Config) {
	t.Helper()
	var env *inline.Env
	if in.Enabled {
		p, err := ir.NewProgram(prog.Funcs)
		if err != nil {
			t.Fatal(err)
		}
		env = &inline.Env{Prog: p, Profiles: profs}
	}
	for i, orig := range prog.Funcs {
		fn, rs, opts := formTwin(orig, profs[i], td, in, env)
		twin, trs, twinOpts := formTwin(orig, profs[i], td, in, env)
		if len(rs) != len(trs) {
			t.Fatalf("%s: twins formed %d and %d regions", orig.Name, len(rs), len(trs))
		}
		for k := range rs {
			if err := w.Compare(fn, rs[k], opts, twin, trs[k], twinOpts); err != nil {
				t.Fatalf("%s td %g: %v", prog.Name, td.ExpansionLimit, err)
			}
		}
	}
}

// formTwin clones fn and prof and forms tail-duplicated treegions over the
// clone as the compile path does, inlining when in enables it.
func formTwin(fn *ir.Function, prof *profile.Data, td core.TDConfig, in inline.Config, env *inline.Env) (*ir.Function, []*region.Region, ddg.Options) {
	f, p := fn.Clone(), prof.Clone()
	var rw core.BlockRewriter
	if il := inline.New(in, env, f, p); il != nil {
		rw = il
	}
	rs := core.FormTDInlineTraced(f, p, td, nil, rw)
	lv := cfg.ComputeLiveness(cfg.New(f))
	return f, rs, ddg.Options{Rename: true, DominatorParallelism: true, Liveness: lv, Profile: p}
}
