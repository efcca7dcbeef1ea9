package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture writes a `go test -json` stream to a temporary file: a header,
// then for each result line a run event and the line split in two output
// events, the name first, as gotest emits running benchmarks.
func capture(t *testing.T, results ...string) string {
	t.Helper()
	var b bytes.Buffer
	emit := func(action, test, output string) {
		ev := map[string]string{"Action": action, "Package": "treegion"}
		if test != "" {
			ev["Test"] = test
		}
		if output != "" {
			ev["Output"] = output
		}
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(append(line, '\n'))
	}
	emit("start", "", "")
	emit("output", "", "goos: linux\n")
	emit("output", "", "cpu: Intel(R) Xeon(R) Processor\n")
	for _, r := range results {
		name, rest, _ := strings.Cut(r, "\t")
		test := strings.TrimSuffix(name, "-2")
		emit("run", test, "")
		emit("output", test, "=== RUN   "+test+"\n")
		emit("output", test, name+"        \t")
		emit("output", test, rest+"\n")
	}
	emit("output", "", "PASS\n")
	path := filepath.Join(t.TempDir(), "cap.json")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func parseFile(t *testing.T, path string) map[string]*runs {
	t.Helper()
	lines, err := benchLines(path)
	if err != nil {
		t.Fatal(err)
	}
	return parse(lines)
}

// TestSingleRunCapture reads captures shaped like BENCH_13: one run per
// benchmark, split output events, custom metrics between the standard
// ones.
func TestSingleRunCapture(t *testing.T) {
	old := parseFile(t, capture(t,
		"BenchmarkColdCompileLiveness-2\t       3\t  11763030 ns/op\t 3778565 B/op\t   19937 allocs/op",
		"BenchmarkColdCompileForm/stress/tree-td-2\t       3\t 123146275 ns/op\t        12.41 us/region\t44959333 B/op\t 1154919 allocs/op",
	))
	new := parseFile(t, capture(t,
		"BenchmarkColdCompileLiveness-2\t       3\t   6267886 ns/op\t 2572768 B/op\t    1008 allocs/op",
		"BenchmarkColdCompileForm/stress/tree-td-2\t       3\t 123146275 ns/op\t        12.41 us/region\t44959333 B/op\t 1154919 allocs/op",
	))
	form := old["BenchmarkColdCompileForm/stress/tree-td"]
	if form == nil || len(form.nsPerOp) != 1 || form.nsPerOp[0] != 123146275 || form.allocsPerOp[0] != 1154919 {
		t.Fatalf("parsed %+v, want one run of 123146275 ns/op and 1154919 allocs/op", form)
	}
	if s := summarize(form.nsPerOp); s.q1 != s.med || s.q3 != s.med || s.n != 1 {
		t.Fatalf("one run summarizes to %+v, want every quartile at the run", s)
	}
	var out bytes.Buffer
	table(&out, old, new)
	for _, want := range []string{
		"BenchmarkColdCompileLiveness", "11.76ms [11.76ms–11.76ms] n=1", "6.268ms [6.268ms–6.268ms] n=1", "-46.7%",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}
	// A single run has no spread: only an unchanged value is noise.
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "BenchmarkColdCompileLiveness") && strings.Contains(line, "~"):
			t.Errorf("a 47%% change between single runs is marked noise: %s", line)
		case strings.HasPrefix(line, "BenchmarkColdCompileForm") && !strings.Contains(line, "+0.0% ~"):
			t.Errorf("an unchanged single run is not marked noise: %s", line)
		}
	}
}

// TestMultiRunCapture: a -count 5 capture keeps all five runs of each
// benchmark, and the noise mark follows the interquartile ranges.
func TestMultiRunCapture(t *testing.T) {
	line := func(name string, ns float64) string {
		return fmt.Sprintf("%s-2\t       3\t %.0f ns/op\t 100 B/op\t 10 allocs/op", name, ns)
	}
	var olds, news []string
	for _, ns := range []float64{100, 104, 101, 103, 102} {
		olds = append(olds, line("BenchmarkA", ns*1e6), line("BenchmarkB", ns*1e6))
	}
	for _, ns := range []float64{90, 91, 89, 92, 88} {
		news = append(news, line("BenchmarkA", ns*1e6))
	}
	for _, ns := range []float64{99, 103, 100, 106, 102} {
		news = append(news, line("BenchmarkB", ns*1e6))
	}
	old, new := parseFile(t, capture(t, olds...)), parseFile(t, capture(t, news...))
	for _, name := range []string{"BenchmarkA", "BenchmarkB"} {
		if len(old[name].nsPerOp) != 5 || len(new[name].nsPerOp) != 5 {
			t.Fatalf("%s kept %d and %d runs, want 5 and 5", name, len(old[name].nsPerOp), len(new[name].nsPerOp))
		}
	}
	if s := summarize(old["BenchmarkA"].nsPerOp); s.q1 != 101e6 || s.med != 102e6 || s.q3 != 103e6 {
		t.Fatalf("old BenchmarkA summarizes to %+v, want 101/102/103 ms", s)
	}
	a := delta(summarize(old["BenchmarkA"].nsPerOp), summarize(new["BenchmarkA"].nsPerOp))
	if a != "-11.8%" {
		t.Errorf("BenchmarkA delta %q, want -11.8%% outside the noise", a)
	}
	b := delta(summarize(old["BenchmarkB"].nsPerOp), summarize(new["BenchmarkB"].nsPerOp))
	if b != "+0.0% ~" {
		t.Errorf("BenchmarkB delta %q, want +0.0%% marked as noise", b)
	}
	var out bytes.Buffer
	table(&out, old, new)
	if want := "102ms [101ms–103ms] n=5"; !strings.Contains(out.String(), want) {
		t.Errorf("table lacks %q:\n%s", want, out.String())
	}
}

// TestPerfbenchPairs summarizes two alternating pairs: medians and
// quartiles per side, wins by each metric's better direction, and the
// failed and attempted totals.
func TestPerfbenchPairs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := write("BENCHMARK.json", `{"end_to_end": [
		{"name": "kops_per_s", "unit": "kops/s", "better": "higher", "bound": 0.25},
		{"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.25}]}`)
	run := func(kops, rss float64, failed int) string {
		return fmt.Sprintf(`{"correct":%v,"attempted":1,"failed":%d,"metrics":{"kops_per_s":{"value":%g,"unit":"kops/s"},"peak_rss_mb":{"value":%g,"unit":"MiB"}}}`,
			failed == 0, failed, kops, rss)
	}
	olds := write("old", run(100, 50, 0)+"\n"+run(110, 52, 0)+"\n")
	news := write("new", run(120, 51, 0)+"\n"+run(105, 49, 1)+"\n")
	metrics, err := readEndToEnd(bench)
	if err != nil {
		t.Fatal(err)
	}
	o, err := readRuns(olds)
	if err != nil {
		t.Fatal(err)
	}
	n, err := readRuns(news)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	abTable(&out, metrics, o, n)
	for _, want := range []string{
		"2 pairs",
		"kops_per_s", "105 [102.5, 107.5]", "112.5 [108.8, 116.2]", "1/2",
		"peak_rss_mb", "51 [50.5, 51.5]", "50 [49.5, 50.5]",
		"failed/attempted: old 0/2, new 1/2",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "peak_rss_mb") && !strings.HasSuffix(line, "1/2") {
			t.Errorf("peak_rss_mb wins: %s, want 1/2 (lower is better)", line)
		}
	}
}
