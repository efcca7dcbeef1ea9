// Command perfbench is the repository's benchmark: one workload at one
// seed, timed for a fixed number of seconds, with its outputs checked.
//
//	perfbench --workload suite|bigfn|verified|service --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays the same work through the layer packages' exported entry points
// with a span around each call and prints the per-layer ledger. Human
// readable lines come first; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics. The exit
// code is non-zero when any output check fails. run.sh builds the program
// and the daemon and is the usual way to run it; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// runOpts are the command-line settings every workload reads.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	daemon   string // treegiond binary, for the service workload
	out      string // directory for span dumps and daemon logs
}

// endToEndNames are the --trace 0 JSON metrics, printed by every workload;
// they must match BENCHMARK.json's end_to_end list (a test checks).
var endToEndNames = []string{"setup_s", "kops_per_s", "cpu_ms_per_kop", "peak_rss_mb", "est_mcycles", "code_expansion"}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// report collects a run's readable lines, metrics and failures.
type report struct {
	metrics   []metric
	attempted int
	failures  []string
}

func (r *report) linef(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
	r.linef("metric %-26s %14.6g %s", name, value, unit)
}

// addTimed adds a metric measured per pass and prints its steadiness: the
// pass count and the interquartile spread of the per-pass values.
func (r *report) addTimed(name string, perPass []float64, unit string) {
	v := median(perPass)
	r.metrics = append(r.metrics, metric{name, v, unit})
	r.linef("metric %-26s %14.6g %-8s passes=%d iqr=%.1f%%", name, v, unit, len(perPass), 100*spread(perPass))
}

func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	r.linef("FAIL %s", msg)
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	var o runOpts
	flag.StringVar(&o.workload, "workload", "", "suite, bigfn, verified or service")
	flag.Uint64Var(&o.seed, "seed", 0, "input seed; 0 is the published suite")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 replays the work with per-layer spans")
	flag.StringVar(&o.daemon, "daemon", "", "treegiond binary (service workload)")
	flag.StringVar(&o.out, "out", ".", "directory for span dumps and daemon logs")
	flag.Parse()
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	host := readHost()
	rep := &report{}
	rep.linef("# workload=%s seed=%d seconds=%g trace=%t", o.workload, o.seed, o.seconds, o.trace)
	if err := resetPeakRSS("self"); err != nil {
		rep.linef("# VmHWM cannot be reset (%v): peak_rss_mb is each pass's high-water mark since the process started", err)
	}
	var err error
	switch o.workload {
	case "suite", "bigfn", "verified":
		err = runCompile(ctx, compileWorkloads()[o.workload], o, rep)
	case "service":
		err = runService(ctx, o, rep)
	default:
		err = fmt.Errorf("unknown workload %q (want suite, bigfn, verified or service)", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.linef("# %s", host.report())
	want := endToEndNames
	if o.trace {
		want = perLayerNames()
	}
	var got []string
	for _, m := range rep.metrics {
		got = append(got, m.name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") && len(rep.failures) == 0 {
		rep.fail("printed metrics %v, want %v", got, want)
	}

	res := result{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    len(rep.failures),
		Metrics:   make(map[string]jsonMetric, len(rep.metrics)),
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			rep.fail("metric %s is not a number", m.name)
			res.Correct = false
			res.Failed = len(rep.failures)
			m.value = 0
		}
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// spanPath names the span dump of one traced run.
func spanPath(o runOpts) string {
	return filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.tsv", o.workload, o.seed))
}
