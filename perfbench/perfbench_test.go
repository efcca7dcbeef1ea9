package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"treegion"
)

// inputText renders a workload's generated inputs as bytes: every
// function's text and profile for the compile workloads, every request
// body of the first passes for the service stream.
func inputText(t *testing.T, workload string, seed uint64) string {
	t.Helper()
	var b strings.Builder
	switch workload {
	case "service":
		s, err := newSvc(seed)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < svcStoreAge+2; p++ {
			for _, r := range s.pass(p) {
				body, err := s.body(r.key)
				if err != nil {
					t.Fatal(err)
				}
				b.Write(body)
				b.WriteByte('\n')
			}
		}
	default:
		progs, err := compileWorkloads()[workload].inputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range progs {
			for i, fn := range p.fns {
				b.WriteString(treegion.PrintFunction(fn))
				b.WriteString(p.profs[i].Canonical())
			}
		}
	}
	return b.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range []string{"suite", "bigfn", "service"} {
		if a, b := inputText(t, w, 7), inputText(t, w, 7); a != b {
			t.Errorf("%s: seed 7 generated different inputs on two draws", w)
		}
	}
}

// shape summarizes inputs without their content: program count, function
// count per program, and for the stream the tier sequence.
func shape(t *testing.T, workload string, seed uint64) any {
	t.Helper()
	if workload == "service" {
		s, err := newSvc(seed)
		if err != nil {
			t.Fatal(err)
		}
		var tiers []byte
		for p := 0; p < svcStoreAge+2; p++ {
			for _, r := range s.pass(p) {
				tiers = append(tiers, r.tier)
			}
		}
		return []any{len(s.texts), string(tiers)}
	}
	progs, err := compileWorkloads()[workload].inputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	var n []int
	for _, p := range progs {
		n = append(n, len(p.fns))
	}
	return n
}

func TestOtherSeedOtherInputsSameShape(t *testing.T) {
	for _, w := range []string{"suite", "bigfn", "service"} {
		if inputText(t, w, 1) == inputText(t, w, 2) {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", w)
		}
		if a, b := shape(t, w, 1), shape(t, w, 2); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 differ in shape: %v vs %v", w, a, b)
		}
	}
}

func TestSeedZeroIsThePublishedSuite(t *testing.T) {
	progs, err := generateSuite(0)
	if err != nil {
		t.Fatal(err)
	}
	published, err := treegion.GenerateSuite()
	if err != nil {
		t.Fatal(err)
	}
	for i := range progs {
		for j, fn := range progs[i].Funcs {
			if treegion.PrintFunction(fn) != treegion.PrintFunction(published[i].Funcs[j]) {
				t.Fatalf("%s: seed 0 differs from the published program", fn.Name)
			}
		}
	}
}

// TestStreamTiers checks the stream's construction: every M repeats a key
// first requested at least four slots earlier in its pass, and every S
// after the warm-up repeats a key from svcStoreAge or more passes back.
func TestStreamTiers(t *testing.T) {
	s, err := newSvc(3)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3*svcStoreAge; p++ {
		at := make(map[svcKeyID]int)
		for i, r := range s.pass(p) {
			switch r.tier {
			case 'C':
				if r.id.pass != p {
					t.Fatalf("pass %d slot %d: cold key from pass %d", p, i, r.id.pass)
				}
				at[r.id] = i
			case 'M':
				first, ok := at[r.id]
				if !ok || i-first < 4 {
					t.Fatalf("pass %d slot %d: M repeats %v first seen at %d", p, i, r.id, first)
				}
			case 'S':
				if p >= svcStoreAge && p-r.id.pass < svcStoreAge {
					t.Fatalf("pass %d slot %d: S repeats a key from pass %d", p, i, r.id.pass)
				}
			}
		}
	}
}

func TestTailRefusesThinTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := tail(xs, 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 999)
	if _, err := tail(xs, 0.99); err != nil {
		t.Errorf("p99 of 1000 samples has 10 beyond it: %v", err)
	}
	if _, err := tail(xs[:20], 0.5); err != nil {
		t.Errorf("p50 of 20 samples has 10 beyond it: %v", err)
	}
	if _, err := tail(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
}

func TestQuantileMatchesPythonInclusive(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if q := quantile(s, 0.25); q != 1.75 {
		t.Errorf("q1 of 1..4 = %g, want 1.75", q)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %g, want 3", m)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var e2e, layers []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	for _, n := range append(append([]string(nil), e2e...), layers...) {
		if !valid.MatchString(n) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", n)
		}
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", e2e, endToEndNames)
	}
	if got := perLayerNames(); !reflect.DeepEqual(layers, got) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", layers, got)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"suite", "bigfn", "verified", "service"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}

func TestStrataCoverEveryFunction(t *testing.T) {
	s, err := newSvc(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.strata) != svcColdPerPass {
		t.Fatalf("%d strata, want %d", len(s.strata), svcColdPerPass)
	}
	seen := make(map[int]bool)
	for k, st := range s.strata {
		if len(st) == 0 {
			t.Errorf("stratum %d is empty", k)
		}
		for _, f := range st {
			seen[f] = true
		}
		t.Logf("stratum %d: %d functions", k, len(st))
	}
	if len(seen) != len(s.texts) {
		t.Errorf("strata hold %d of %d functions", len(seen), len(s.texts))
	}
}
