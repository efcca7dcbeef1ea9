package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// perfbenchRun is the final JSON line of one perfbench run.
type perfbenchRun struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// endToEnd is one end-to-end metric BENCHMARK.json declares.
type endToEnd struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// readRuns reads one perfbench result line per line of path, in run order.
func readRuns(path string) ([]perfbenchRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []perfbenchRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r perfbenchRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// readEndToEnd reads the end-to-end metrics of a BENCHMARK.json.
func readEndToEnd(path string) ([]endToEnd, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []endToEnd `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return decl.EndToEnd, nil
}

// abTable summarizes alternating old/new perfbench runs: run i of each side
// forms pair i. For every end-to-end metric it prints each side's median
// and interquartile range and how many pairs the new side won, by the
// metric's better direction; then each side's failed and attempted totals.
func abTable(w io.Writer, metrics []endToEnd, olds, news []perfbenchRun) {
	pairs := min(len(olds), len(news))
	fmt.Fprintf(w, "%d pairs\n", pairs)
	fmt.Fprintf(w, "%-16s %-12s %32s %32s %10s\n", "metric", "unit", "old median [IQR]", "new median [IQR]", "new wins")
	for _, m := range metrics {
		var ov, nv []float64
		wins := 0
		for i := 0; i < pairs; i++ {
			o, n := olds[i].Metrics[m.Name].Value, news[i].Metrics[m.Name].Value
			ov, nv = append(ov, o), append(nv, n)
			if (m.Better == "higher" && n > o) || (m.Better == "lower" && n < o) {
				wins++
			}
		}
		if pairs == 0 {
			continue
		}
		fmt.Fprintf(w, "%-16s %-12s %32s %32s %10s\n", m.Name, m.Unit,
			quartiles(summarize(ov)), quartiles(summarize(nv)), fmt.Sprintf("%d/%d", wins, pairs))
	}
	total := func(rs []perfbenchRun) (failed, attempted int) {
		for _, r := range rs {
			failed += r.Failed
			attempted += r.Attempted
		}
		return failed, attempted
	}
	of, oa := total(olds)
	nf, na := total(news)
	fmt.Fprintf(w, "failed/attempted: old %d/%d, new %d/%d\n", of, oa, nf, na)
}

// quartiles renders a summary as "median [q1, q3]".
func quartiles(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.med, s.q1, s.q3)
}

// perfbenchMain runs `benchdiff -perfbench OLD NEW` from the repository root.
func perfbenchMain(oldPath, newPath string) error {
	metrics, err := readEndToEnd("BENCHMARK.json")
	if err != nil {
		return err
	}
	olds, err := readRuns(oldPath)
	if err != nil {
		return err
	}
	news, err := readRuns(newPath)
	if err != nil {
		return err
	}
	abTable(os.Stdout, metrics, olds, news)
	return nil
}
