// The customir example shows the textual IR workflow: write a function by
// hand (here: the paper's Figure 1 CFG from testdata/fig1.tir), parse it
// through the public API, profile and compile it under every region former,
// and print the comparison — a miniature version of the paper's entire
// methodology applied to one user-supplied program.
package main

import (
	"fmt"
	"log"
	"os"

	"treegion"
)

func main() {
	path := "testdata/fig1.tir"
	if len(os.Args) > 1 {
		path = os.Args[1]
	}
	src, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fn, err := treegion.ParseFunction(string(src))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %q: %d blocks, %d ops\n\n", fn.Name, len(fn.Blocks), fn.NumOps())

	prof, err := treegion.ProfileFunction(fn, 1, 1000)
	if err != nil {
		log.Fatal(err)
	}

	compile := func(kind treegion.RegionKind, rename bool) float64 {
		cfg := treegion.Config{
			Kind: kind, Heuristic: treegion.GlobalWeight, Machine: treegion.FourU,
			Rename: rename, DominatorParallelism: kind == treegion.TreegionTD,
			TD: treegion.DefaultConfig().TD,
		}
		res, err := treegion.CompileFunction(fn.Clone(), prof.Clone(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res.Time
	}

	base := compile(treegion.BasicBlocks, true)
	fmt.Printf("%-12s %12s %10s\n", "regions", "cycles", "speedup")
	for _, k := range []treegion.RegionKind{
		treegion.BasicBlocks, treegion.SLR, treegion.Superblock,
		treegion.Treegion, treegion.TreegionTD,
	} {
		tm := compile(k, k != treegion.Superblock)
		fmt.Printf("%-12s %12.0f %9.2fx\n", k, tm, base/tm)
	}
}
