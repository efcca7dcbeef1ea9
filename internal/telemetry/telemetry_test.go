package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestTraceObserve(t *testing.T) {
	tr := NewTrace("f")
	tr.Observe(PhaseTreeform, 5*time.Millisecond, 10)
	tr.Observe(PhaseListSched, 2*time.Millisecond, 7)
	tr.Observe(PhaseListSched, 3*time.Millisecond, 4)

	if tr.Function != "f" {
		t.Errorf("Function = %q, want f", tr.Function)
	}
	if got := tr.Phase[PhaseTreeform]; got.Calls != 1 || got.Ops != 10 || got.Nanos != int64(5*time.Millisecond) {
		t.Errorf("treeform = %+v", got)
	}
	if got := tr.Phase[PhaseListSched]; got.Calls != 2 || got.Ops != 11 || got.Nanos != int64(5*time.Millisecond) {
		t.Errorf("list-sched = %+v", got)
	}
	tot := tr.Total()
	if tot.Calls != 3 || tot.Ops != 21 || tot.Nanos != int64(10*time.Millisecond) {
		t.Errorf("total = %+v", tot)
	}
}

func TestTraceMergeOrderIndependent(t *testing.T) {
	mk := func() (*CompileTrace, *CompileTrace) {
		a, b := NewTrace("a"), NewTrace("b")
		a.Observe(PhaseDDG, time.Millisecond, 3)
		a.Observe(PhaseTreeform, time.Millisecond, 5)
		b.Observe(PhaseDDG, 2*time.Millisecond, 4)
		return a, b
	}
	a1, b1 := mk()
	ab := NewTrace("p")
	ab.Merge(a1)
	ab.Merge(b1)
	a2, b2 := mk()
	ba := NewTrace("p")
	ba.Merge(b2)
	ba.Merge(a2)
	if ab.Counts() != ba.Counts() {
		t.Error("merge order changed counts")
	}
	if got := ab.Phase[PhaseDDG]; got.Calls != 2 || got.Ops != 7 {
		t.Errorf("merged ddg = %+v", got)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *CompileTrace
	tr.Observe(PhaseTreeform, time.Second, 1) // must not panic
	tr.Merge(NewTrace("x"))
	if tr.Total() != (PhaseStat{}) {
		t.Errorf("nil trace total = %+v", tr.Total())
	}
	if tr.Counts() != ([NumPhases][2]int64{}) {
		t.Errorf("nil trace counts = %v", tr.Counts())
	}
	if !strings.Contains(tr.Table(), "total") {
		t.Error("nil trace table missing totals row")
	}
}

func TestTraceTable(t *testing.T) {
	tr := NewTrace("f")
	tr.Observe(PhaseTreeform, time.Millisecond, 24)
	tr.Observe(PhaseListSched, 500*time.Microsecond, 24)
	tbl := tr.Table()
	for _, want := range []string{"phase", "treeform", "list-sched", "total", "24"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	if strings.Contains(tbl, "vlsim") {
		t.Errorf("table lists idle phase:\n%s", tbl)
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "A counter.")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	// Registration is idempotent: same name returns the same instrument.
	if r.Counter("test_total", "A counter.") != c {
		t.Error("re-registration returned a different counter")
	}
	r.GaugeFunc("test_gauge", "A gauge.", func() int64 { return 42 })

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP test_total A counter.",
		"# TYPE test_total counter",
		"test_total 3",
		"# TYPE test_gauge gauge",
		"test_gauge 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryLabeledSeries(t *testing.T) {
	r := NewRegistry()
	r.LabeledCounter("phase_total", Labels{"phase": "treeform"}, "Per-phase.").Add(5)
	r.LabeledCounter("phase_total", Labels{"phase": "list-sched"}, "Per-phase.").Add(7)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if strings.Count(out, "# TYPE phase_total counter") != 1 {
		t.Errorf("TYPE emitted more than once per family:\n%s", out)
	}
	for _, want := range []string{
		`phase_total{phase="treeform"} 5`,
		`phase_total{phase="list-sched"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", nil, "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 5.56; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", nil, "h.", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive per Prometheus convention
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `h_bucket{le="1"} 1`) {
		t.Errorf("boundary value not in its le bucket:\n%s", b.String())
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "x")
	c.Inc() // nil counter must no-op
	if c.Value() != 0 {
		t.Error("nil counter counted")
	}
	h := r.Histogram("y", nil, "y", DefBuckets)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram observed")
	}
	r.GaugeFunc("z", "z", func() int64 { return 1 })
	r.CounterFunc("w", "w", func() int64 { return 1 })
	var b strings.Builder
	r.WritePrometheus(&b) // must not panic
	if b.Len() != 0 {
		t.Error("nil registry rendered output")
	}
}
