// The tailduplication example shows Section 4 of the paper in action on one
// benchmark: treegion formation with tail duplication at several code
// expansion limits, versus superblock formation — a single-benchmark slice
// of Table 3 and Figure 13. It also reports how many duplicated ops the
// scheduler's dominator-parallelism pass merged back out of the schedules.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"treegion"
)

func main() {
	bench := flag.String("bench", "ijpeg", "benchmark to compile")
	flag.Parse()

	prog, err := treegion.GenerateBenchmark(*bench)
	if err != nil {
		log.Fatal(err)
	}
	profs, err := treegion.ProfileProgram(prog)
	if err != nil {
		log.Fatal(err)
	}
	base, err := treegion.Compile(context.Background(), prog, profs, treegion.BaselineConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on the 8-issue machine (speedup over 1-issue basic blocks)\n\n", prog.Name)
	fmt.Printf("%-14s %9s %10s %8s %8s\n", "formation", "speedup", "expansion", "paths", "merged")

	// Superblocks: the paper's linear competitor.
	sb := treegion.Config{
		Kind: treegion.Superblock, Heuristic: treegion.GlobalWeight,
		Machine: treegion.EightU, Rename: false,
	}
	res, err := treegion.Compile(context.Background(), prog, profs, sb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %9.3f %10.2f %8s %8s\n", "superblock",
		treegion.Speedup(base.Time, res.Time), res.CodeExpansion, "-", "-")

	// Treegions with tail duplication at increasing expansion limits.
	for _, limit := range []float64{1.0, 2.0, 3.0} {
		td := treegion.DefaultConfig().TD
		td.ExpansionLimit = limit
		cfg := treegion.Config{
			Kind: treegion.TreegionTD, Heuristic: treegion.GlobalWeight,
			Machine: treegion.EightU, Rename: true, DominatorParallelism: true, TD: td,
		}
		res, err := treegion.Compile(context.Background(), prog, profs, cfg)
		if err != nil {
			log.Fatal(err)
		}
		maxPaths, merged := 0, 0
		for _, f := range res.Funcs {
			merged += f.NumMerged
			for _, r := range f.Regions {
				if p := r.PathCount(); p > maxPaths {
					maxPaths = p
				}
			}
		}
		fmt.Printf("tree-td(%.1f)   %9.3f %10.2f %8d %8d\n", limit,
			treegion.Speedup(base.Time, res.Time), res.CodeExpansion, maxPaths, merged)
	}
}
