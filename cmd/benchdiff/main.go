// Command benchdiff compares two benchmark captures produced by
// `go test -json -bench ...` (the BENCH_*.json files `make bench` writes).
// It is the dependency-free fallback behind `make bench-compare`: when
// benchstat is on PATH the Makefile prefers it (feeding it text extracted
// with -extract), and otherwise this tool prints an old/new/delta table for
// every benchmark present in either capture.
//
// A capture taken with -count N holds N runs of each benchmark; every run
// is kept. Each side prints its median and interquartile range, and a
// delta is marked "~" (noise) when either side's median falls inside the
// other side's interquartile range.
//
// With -perfbench it summarizes `make bench-ab` instead: OLD and NEW hold
// one perfbench result line per run, run i of each side forming pair i,
// and every end-to-end metric of BENCHMARK.json (read from the working
// directory, the repository root) gets each side's median and
// interquartile range and the new side's win count.
//
//	benchdiff OLD.json NEW.json     # comparison table
//	benchdiff -extract CAP.json     # plain benchmark lines, benchstat format
//	benchdiff -perfbench OLD NEW    # alternating perfbench pairs
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// runs is one benchmark's measurements, one entry per run in capture
// order.
type runs struct {
	nsPerOp     []float64
	allocsPerOp []float64
}

// event is the subset of the `go test -json` stream benchdiff reads.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchLines extracts the raw benchmark result lines from a capture file.
// Lines arriving split across events (gotest emits the name and the numbers
// as separate output events for running benchmarks) are joined.
func benchLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	carry := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON noise in the capture
		}
		if ev.Action != "output" {
			continue
		}
		chunk := ev.Output
		if !strings.HasSuffix(chunk, "\n") {
			carry += chunk
			continue
		}
		line := strings.TrimRight(carry+chunk, "\n")
		carry = ""
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "Benchmark") && strings.Contains(trimmed, "ns/op") {
			lines = append(lines, trimmed)
		}
	}
	return lines, sc.Err()
}

// parse groups benchmark result lines by name, keeping every run. A line
// reads
//
//	BenchmarkName-8  3  248532221 ns/op  241959616 B/op  365493 allocs/op ...
func parse(lines []string) map[string]*runs {
	out := make(map[string]*runs)
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip -GOMAXPROCS suffix
			}
		}
		ns, allocs := 0.0, 0.0
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				ns = v
			case "allocs/op":
				allocs = v
			}
		}
		if ns <= 0 {
			continue
		}
		r := out[name]
		if r == nil {
			r = &runs{}
			out[name] = r
		}
		r.nsPerOp = append(r.nsPerOp, ns)
		r.allocsPerOp = append(r.allocsPerOp, allocs)
	}
	return out
}

// summary is a sample's median and quartiles.
type summary struct {
	n           int
	q1, med, q3 float64
}

// summarize returns the quartiles of xs, interpolating linearly between
// the closest ranks.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return summary{n: len(s), q1: at(0.25), med: at(0.5), q3: at(0.75)}
}

// noise reports whether either median falls inside the other side's
// interquartile range.
func noise(a, b summary) bool {
	return (a.med >= b.q1 && a.med <= b.q3) || (b.med >= a.q1 && b.med <= a.q3)
}

// delta renders the change of the new median against the old one, marked
// "~" when it is noise.
func delta(old, new summary) string {
	if old.med == 0 {
		return "n/a"
	}
	d := fmt.Sprintf("%+.1f%%", (new.med-old.med)/old.med*100)
	if noise(old, new) {
		d += " ~"
	}
	return d
}

// duration renders nanoseconds with four significant digits in the
// largest unit that keeps the value at least 1.
func duration(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.4gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.4gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.4gus", ns/1e3)
	}
	return fmt.Sprintf("%.4gns", ns)
}

// spread renders a timing summary as "median [q1–q3] n".
func spread(s summary) string {
	return fmt.Sprintf("%s [%s–%s] n=%d", duration(s.med), duration(s.q1), duration(s.q3), s.n)
}

func main() {
	extract := flag.String("extract", "", "print the capture's benchmark lines in benchstat's plain format and exit")
	ab := flag.Bool("perfbench", false, "compare two files of perfbench result lines, one run per line")
	flag.Parse()

	if *ab {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff -perfbench OLD NEW")
			os.Exit(2)
		}
		if err := perfbenchMain(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *extract != "" {
		lines, err := benchLines(*extract)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		return
	}

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD.json NEW.json | benchdiff -extract CAP.json")
		os.Exit(2)
	}
	oldLines, err := benchLines(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", flag.Arg(0), err)
		os.Exit(1)
	}
	newLines, err := benchLines(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", flag.Arg(1), err)
		os.Exit(1)
	}
	table(os.Stdout, parse(oldLines), parse(newLines))
}

// table prints one row per benchmark present in either capture: each
// side's ns/op median and interquartile range, the time delta, each side's
// median allocs/op and the allocation delta. "~" marks a delta inside the
// noise.
func table(w io.Writer, olds, news map[string]*runs) {
	names := make([]string, 0, len(news))
	for n := range olds {
		names = append(names, n)
	}
	for n := range news {
		if olds[n] == nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-44s %34s %34s %10s %13s %13s %10s\n",
		"benchmark", "old ns/op median [IQR]", "new ns/op median [IQR]", "time", "old allocs/op", "new allocs/op", "allocs")
	for _, n := range names {
		o, nw := olds[n], news[n]
		switch {
		case o == nil:
			ns, al := summarize(nw.nsPerOp), summarize(nw.allocsPerOp)
			fmt.Fprintf(w, "%-44s %34s %34s %10s %13s %13.0f %10s\n", n, "-", spread(ns), "new", "-", al.med, "new")
		case nw == nil:
			ns, al := summarize(o.nsPerOp), summarize(o.allocsPerOp)
			fmt.Fprintf(w, "%-44s %34s %34s %10s %13.0f %13s %10s\n", n, spread(ns), "-", "gone", al.med, "-", "gone")
		default:
			ons, nns := summarize(o.nsPerOp), summarize(nw.nsPerOp)
			oal, nal := summarize(o.allocsPerOp), summarize(nw.allocsPerOp)
			fmt.Fprintf(w, "%-44s %34s %34s %10s %13.0f %13.0f %10s\n",
				n, spread(ons), spread(nns), delta(ons, nns), oal.med, nal.med, delta(oal, nal))
		}
	}
}
