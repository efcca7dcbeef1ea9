package treegion

import (
	"context"
	"os"
	"strings"
	"testing"

	"treegion/internal/region"
	"treegion/internal/telemetry"
)

// TestTraceDeterministicAcrossWorkers locks in the determinism contract of
// the compile trace: the Calls and Ops columns (and every scheduling
// statistic) are integer sums over per-function work, so a program compiled
// with 1 worker and with 8 workers must produce identical counts — only
// wall times may differ.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	prog, err := GenerateBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	r1, err := Compile(ctx, prog, profs, DefaultConfig(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Compile(ctx, prog, profs, DefaultConfig(), WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}

	c1, c8 := r1.Trace.Counts(), r8.Trace.Counts()
	if c1 != c8 {
		t.Errorf("trace counts differ across worker counts:\n1 worker: %v\n8 workers: %v", c1, c8)
	}
	if r1.Sched != r8.Sched {
		t.Errorf("sched stats differ across worker counts:\n1 worker: %+v\n8 workers: %+v", r1.Sched, r8.Sched)
	}
	if r1.Time != r8.Time {
		t.Errorf("times differ: %v vs %v", r1.Time, r8.Time)
	}

	// The trace actually recorded the pipeline's phases.
	tr := r1.Trace
	for _, p := range []Phase{telemetry.PhaseTreeform, telemetry.PhaseDDG, telemetry.PhaseListSched} {
		if tr.Phase[p].Calls == 0 {
			t.Errorf("phase %s has no calls", p)
		}
	}
	if tot := tr.Total(); tot.Nanos <= 0 {
		t.Errorf("total trace time = %d, want > 0", tot.Nanos)
	}

	// The -stats table renders every active phase plus a totals row.
	tbl := tr.Table()
	for _, want := range []string{"phase", "treeform", "list-sched", "total"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("trace table missing %q:\n%s", want, tbl)
		}
	}
}

// TestFig1SchedStats pins the scheduling statistics of the paper's Figure 1
// example CFG under the headline treegion configuration: the three-treegion
// partition schedules all 24 ops, speculates work above the tree branches,
// and the per-function stats agree with the per-schedule sums.
func TestFig1SchedStats(t *testing.T) {
	src, err := os.ReadFile("testdata/fig1.tir")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := ParseFunction(string(src))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileFunction(fn, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	fr, _, err := compileSingle(context.Background(), fn, prof, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	var want SchedStats
	for _, s := range fr.Schedules {
		want = want.Add(s.Stats())
	}
	if fr.Sched != want {
		t.Errorf("FunctionResult.Sched = %+v, want per-schedule sum %+v", fr.Sched, want)
	}
	if fr.Sched.Ops < 24 {
		t.Errorf("Ops = %d, want >= 24 (renaming copies may add more)", fr.Sched.Ops)
	}
	if fr.Sched.Speculated == 0 {
		t.Error("treegion compile of fig1 speculated nothing")
	}
	if fr.Sched.Speculated != fr.NumSpeculated {
		t.Errorf("Sched.Speculated = %d, NumSpeculated = %d", fr.Sched.Speculated, fr.NumSpeculated)
	}
	// fig1 has 5 conditional branches and 3 returns across 3 regions; every
	// region schedules at least one branch-issuing cycle.
	if fr.Sched.Branches < 3 || fr.Sched.BranchCycles < 3 {
		t.Errorf("Branches = %d, BranchCycles = %d, want >= 3 each", fr.Sched.Branches, fr.Sched.BranchCycles)
	}
	if fr.Sched.BranchesPerCycle() < 1.0 {
		t.Errorf("BranchesPerCycle = %v, want >= 1.0", fr.Sched.BranchesPerCycle())
	}

	// Region histograms from the same compile: 3 treegions of {5,3,1}
	// blocks (the golden partition) land in buckets 1, 3-4 and 5-8.
	rs := region.ComputeStats(fr.Regions, fr.Prof)
	if got, want := rs.Blocks.String(), "1:1 3-4:1 5-8:1"; got != want {
		t.Errorf("region block histogram = %q, want %q", got, want)
	}

	// The per-function trace covered the scheduling of every region.
	if got := fr.Trace.Phase[telemetry.PhaseListSched].Calls; got != int64(len(fr.Regions)) {
		t.Errorf("list-sched calls = %d, want one per region (%d)", got, len(fr.Regions))
	}
}

// TestWithTelemetryPublishes checks the functional-options path end to end:
// compiling with WithTelemetry fills the registry with phase histograms and
// scheduling counters.
func TestWithTelemetryPublishes(t *testing.T) {
	prog, err := GenerateBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewTelemetry()
	if _, err := Compile(context.Background(), prog, profs, DefaultConfig(), WithTelemetry(reg)); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`treegion_compile_phase_seconds_bucket{phase="treeform"`,
		`treegion_compile_phase_seconds_bucket{phase="list-sched"`,
		"treegion_sched_speculated_ops_total",
		"treegion_compile_functions_total",
		"# TYPE treegion_region_blocks histogram",
		"# TYPE treegion_code_expansion_ratio histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry missing %q in:\n%s", want, out)
		}
	}
}
