package treegion

import (
	"context"
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/core"
)

// A single shared suite keeps the experiment tests affordable.
var expSuite *Suite

func getSuite(t *testing.T) *Suite {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment suites are not short")
	}
	if expSuite == nil {
		s, err := NewSuite()
		if err != nil {
			t.Fatal(err)
		}
		expSuite = s
	}
	return expSuite
}

func TestFigure13Shape(t *testing.T) {
	s := getSuite(t)
	rows, _, err := s.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: tail-duplicated treegions beat superblocks on
	// the 8U machine, and the 3.0 limit beats the 2.0 limit.
	sb := GeoMean(rows, "sb/8U")
	t20 := GeoMean(rows, "tree2.0/8U")
	t30 := GeoMean(rows, "tree3.0/8U")
	if t20 <= sb {
		t.Errorf("tree-td(2.0) %v must beat superblocks %v at 8U", t20, sb)
	}
	if t30 <= t20 {
		t.Errorf("tree-td(3.0) %v must beat tree-td(2.0) %v at 8U", t30, t20)
	}
}

func TestFigure8Shape(t *testing.T) {
	s := getSuite(t)
	rows, _, err := s.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	gw := GeoMean(rows, "globalweight/4U")
	dh := GeoMean(rows, "depheight/4U")
	if gw <= dh {
		t.Errorf("global weight %v must beat dep-height %v at 4U (the paper's best heuristic)", gw, dh)
	}
}

func TestFigure6Shape(t *testing.T) {
	s := getSuite(t)
	rows, _, err := s.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	// Everyone beats the baseline, and treegions beat SLRs at 8 issue slots.
	for _, label := range []string{"bb/4U", "slr/4U", "tree/4U", "bb/8U", "slr/8U", "tree/8U"} {
		if g := GeoMean(rows, label); g <= 1 {
			t.Errorf("%s geomean %v not above 1", label, g)
		}
	}
	if GeoMean(rows, "tree/8U") <= GeoMean(rows, "slr/8U") {
		t.Error("treegions must beat SLRs at 8U")
	}
}

func TestResourcesShape(t *testing.T) {
	s := getSuite(t)
	rows, _, err := s.Resources()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Utilization["tree"] <= r.Utilization["bb"] {
			t.Errorf("%s: treegion utilization %.3f not above basic blocks %.3f",
				r.Benchmark, r.Utilization["tree"], r.Utilization["bb"])
		}
		if r.AvgPressure["tree"] <= r.AvgPressure["bb"] {
			t.Errorf("%s: treegion pressure %.2f not above basic blocks %.2f",
				r.Benchmark, r.AvgPressure["tree"], r.AvgPressure["bb"])
		}
	}
}

func TestRegistersShape(t *testing.T) {
	s := getSuite(t)
	rows, sizes, err := s.Registers()
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) < 2 {
		t.Fatal("need a sweep")
	}
	for _, r := range rows {
		// Spill density must not increase with file size.
		for i := 1; i < len(sizes); i++ {
			if r.SpillsPerKOp[sizes[i]] > r.SpillsPerKOp[sizes[i-1]]+1e-9 {
				t.Errorf("%s: spills grew from %d to %d registers", r.Benchmark, sizes[i-1], sizes[i])
			}
		}
	}
}

func TestWideMachinesShape(t *testing.T) {
	s := getSuite(t)
	rows, _, err := s.WideMachines()
	if err != nil {
		t.Fatal(err)
	}
	// The tree-over-SLR margin must grow with issue width (the headroom
	// trend).
	m8 := GeoMean(rows, "tree/8U") / GeoMean(rows, "slr/8U")
	m16 := GeoMean(rows, "tree/16U") / GeoMean(rows, "slr/16U")
	if m16 <= m8 {
		t.Errorf("tree/slr margin shrank with width: %v at 8U, %v at 16U", m8, m16)
	}
}

func TestAblationShape(t *testing.T) {
	s := getSuite(t)
	rows, _, err := s.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if GeoMean(rows, "tree") <= GeoMean(rows, "rename-off") {
		t.Error("renaming must help (the paper's enabling mechanism)")
	}
	if GeoMean(rows, "td-2.0") < GeoMean(rows, "dompar-off") {
		t.Error("dominator parallelism must not hurt")
	}
}

// TestStress2PresetSmoke proves the asymptotic stress tier generates
// deterministically and actually delivers the rank spaces it exists for:
// regions past the bitmap scheduler's 4096-rank level-1 seam, an order of
// magnitude beyond anything stress produces. One sliced function is then
// compiled serially and in parallel to prove cycle-identical results.
func TestStress2PresetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stress2 preset is not short")
	}
	prog, err := GenerateBenchmark("stress2")
	if err != nil {
		t.Fatal(err)
	}
	again, err := GenerateBenchmark("stress2")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != len(again.Funcs) {
		t.Fatalf("stress2 generation not deterministic: %d vs %d functions",
			len(prog.Funcs), len(again.Funcs))
	}
	for i := range prog.Funcs {
		if a, b := prog.Funcs[i].NumOps(), again.Funcs[i].NumOps(); a != b {
			t.Fatalf("stress2 generation not deterministic: func %d has %d vs %d ops", i, a, b)
		}
	}
	// The tier's reason to exist: regions whose rank space crosses the
	// bitmap's level-1 word seam (4096 ranks).
	huge := 0
	for _, fn := range prog.Funcs {
		f := fn.Clone()
		g := cfg.New(f)
		for _, r := range core.Form(f, g) {
			n := 0
			for _, bid := range r.Blocks {
				n += len(f.Blocks[bid].Ops)
			}
			if n > 4096 {
				huge++
			}
		}
	}
	if huge < 10 {
		t.Fatalf("stress2 yields %d regions past 4096 ops, want >= 10", huge)
	}
	prog.Funcs = prog.Funcs[:1]
	prog.Preset.NumFuncs = 1
	profs, err := ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	c := DefaultConfig()
	ctx := context.Background()
	serial, err := Compile(ctx, prog, profs, c, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Compile(ctx, prog, profs, c, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Time != parallel.Time || serial.CodeExpansion != parallel.CodeExpansion {
		t.Fatalf("8-worker compile diverged from serial: time %v vs %v, expansion %v vs %v",
			parallel.Time, serial.Time, parallel.CodeExpansion, serial.CodeExpansion)
	}
}

// TestStressPresetSmoke proves the out-of-suite stress preset (the corpus
// behind BenchmarkCompileStress and treegion-loadgen) generates, profiles
// and compiles cleanly, and that the pipeline at 8 workers is
// cycle-identical to a serial compile on it. A slice of the preset keeps
// the smoke test affordable; the full 24×7000-op program runs under make
// bench.
func TestStressPresetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stress preset is not short")
	}
	prog, err := GenerateBenchmark("stress")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) < 20 {
		t.Fatalf("stress preset has %d functions, want >= 20", len(prog.Funcs))
	}
	ops := 0
	for _, fn := range prog.Funcs {
		ops += fn.NumOps()
	}
	if avg := ops / len(prog.Funcs); avg < 3000 {
		t.Fatalf("stress functions average %d ops, want the 10x-scale corpus", avg)
	}
	prog.Funcs = prog.Funcs[:4]
	prog.Preset.NumFuncs = 4
	profs, err := ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	ctx := context.Background()
	serial, err := Compile(ctx, prog, profs, cfg, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Compile(ctx, prog, profs, cfg, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Time != parallel.Time || serial.CodeExpansion != parallel.CodeExpansion {
		t.Fatalf("8-worker compile diverged from serial: time %v vs %v, expansion %v vs %v",
			parallel.Time, serial.Time, parallel.CodeExpansion, serial.CodeExpansion)
	}
}
