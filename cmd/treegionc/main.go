// Command treegionc is the compiler driver: it generates one synthetic
// benchmark (or reads a single- or multi-function textual-IR file via
// -input), profiles it, compiles it under a chosen region former /
// heuristic / machine, and reports estimated performance. With -inline,
// treegion formation splices eligible callees into the growing regions
// (demand-driven inline-on-absorb); with -dump it prints the schedules of
// the hottest regions.
//
// Usage:
//
//	treegionc [-bench gcc] [-region tree] [-heuristic globalweight]
//	          [-machine 4U] [-limit 2.0] [-dump 3] [-workers 0] [-stats]
//	treegionc -input prog.tir [-inline] [-verify] ...
//
// -stats prints the per-phase compile trace (calls, ops, wall time per
// phase) for the whole program and for each function, plus scheduling
// statistics (speculated ops, branch packing). With -verify it also prints
// how many times the verifier ran on the main compile and its total wall
// time.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"treegion"
	"treegion/internal/api"
	"treegion/internal/telemetry"
)

func main() {
	bench := flag.String("bench", "compress", "benchmark to compile (see -list)")
	workers := flag.Int("workers", 0, "concurrent function compiles (0 = GOMAXPROCS)")
	input := flag.String("input", "", "compile a textual-IR file (single- or multi-function) instead of a benchmark")
	trips := flag.Int("trips", 100, "profiling trips for -input functions")
	inlineFlag := flag.Bool("inline", false, "demand-driven inline-on-absorb: splice eligible callees into growing treegions")
	list := flag.Bool("list", false, "list benchmarks and exit")
	regionKind := flag.String("region", "tree", "region former: bb, slr, tree, sb, tree-td")
	heuristic := flag.String("heuristic", "globalweight", "depheight, exitcount, globalweight, weightedcount")
	machineName := flag.String("machine", "4U", "machine model: 1U, 4U, 8U, 16U")
	limit := flag.Float64("limit", 2.0, "code expansion limit for tree-td")
	noRename := flag.Bool("norename", false, "disable compile-time register renaming")
	ifConvert := flag.Bool("ifconvert", false, "run hyperblock-style if-conversion first")
	dump := flag.Int("dump", 0, "print the N hottest region schedules")
	stats := flag.Bool("stats", false, "print per-phase compile traces and scheduling statistics")
	verifyFlag := flag.Bool("verify", false, "statically verify every emitted schedule; exit non-zero with rule IDs on violations")
	dot := flag.String("dot", "", "write the first function's region-annotated CFG as Graphviz DOT to this file")
	storeDir := flag.String("store-dir", "", "persistent artifact store directory; warm runs skip recompiling (empty = disabled)")
	storeBudget := flag.Int64("store-budget", 4<<30, "artifact store byte budget")
	flag.Parse()

	if *list {
		for _, b := range treegion.Benchmarks() {
			fmt.Println(b)
		}
		return
	}

	rename := !*noRename
	_, cfg, err := api.CompileConfig{
		Region: *regionKind, Heuristic: *heuristic, Machine: *machineName,
		Rename: &rename, ExpansionLimit: *limit, IfConvert: *ifConvert,
	}.Normalize()
	if err != nil {
		log.Fatal(err)
	}

	var prog *treegion.Program
	var profs treegion.Profiles
	if *input != "" {
		src, err := os.ReadFile(*input)
		if err != nil {
			log.Fatal(err)
		}
		irprog, err := treegion.ParseIRProgram(string(src))
		if err != nil {
			log.Fatal(err)
		}
		prog = &treegion.Program{Name: irprog.Funcs[0].Name, Funcs: irprog.Funcs}
		for i, fn := range irprog.Funcs {
			prof, err := treegion.ProfileFunction(fn, uint64(1+i), *trips)
			if err != nil {
				log.Fatal(err)
			}
			profs = append(profs, prof)
		}
	} else {
		var err error
		prog, err = treegion.GenerateBenchmark(*bench)
		if err != nil {
			log.Fatal(err)
		}
		profs, err = treegion.ProfileProgram(prog)
		if err != nil {
			log.Fatal(err)
		}
	}

	ctx := context.Background()
	copts := []treegion.CompileOption{treegion.WithWorkers(*workers)}
	if *verifyFlag {
		copts = append(copts, treegion.WithVerify())
	}
	if *storeDir != "" {
		st, err := treegion.OpenArtifactStore(*storeDir, *storeBudget)
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		cache := treegion.NewCompileCache(0)
		cache.SetL2(st)
		copts = append(copts, treegion.WithCache(cache))
	}
	// The baseline compiles without inlining: the speedup denominator is the
	// untransformed program on the scalar machine.
	mainOpts := append([]treegion.CompileOption(nil), copts...)
	if *inlineFlag {
		mainOpts = append(mainOpts, treegion.WithInline(treegion.DefaultInlineConfig()))
	}
	res, err := treegion.Compile(ctx, prog, profs, cfg, mainOpts...)
	if err != nil {
		fatalCompile(err)
	}
	base, err := treegion.Compile(ctx, prog, profs, treegion.BaselineConfig(), copts...)
	if err != nil {
		fatalCompile(err)
	}
	if *verifyFlag {
		advisories := 0
		for _, fr := range res.Funcs {
			for _, d := range fr.Diagnostics {
				advisories++
				fmt.Fprintf(os.Stderr, "treegionc: %s\n", d)
			}
		}
		fmt.Printf("verify:         %d functions proven legal (%d advisory diagnostics)\n",
			len(res.Funcs), advisories)
	}

	fmt.Printf("benchmark:      %s (%d functions)\n", prog.Name, len(prog.Funcs))
	fmt.Printf("configuration:  %s regions, %s heuristic, %s machine, rename=%v\n",
		cfg.Kind, cfg.Heuristic, cfg.Machine.Name, cfg.Rename)
	fmt.Printf("estimated time: %.0f cycles (baseline %.0f)\n", res.Time, base.Time)
	fmt.Printf("speedup:        %.3fx over 1-issue basic blocks\n", treegion.Speedup(base.Time, res.Time))
	fmt.Printf("code expansion: %.2f\n", res.CodeExpansion)
	fmt.Printf("regions:        %d (avg %.2f blocks, %.2f ops, max %d blocks)\n",
		res.RegionStats.Count, res.RegionStats.AvgBlocks, res.RegionStats.AvgOps, res.RegionStats.MaxBlocks)
	ren, cop, mer, spec := 0, 0, 0, 0
	for _, f := range res.Funcs {
		ren += f.NumRenamed
		cop += f.NumCopies
		mer += f.NumMerged
		spec += f.NumSpeculated
	}
	fmt.Printf("speculated %d ops; renamed %d dests (%d copies); merged %d duplicates\n",
		spec, ren, cop, mer)
	if *inlineFlag {
		il := res.Inline
		fmt.Printf("inlining:       %d calls spliced (%d ops); declined %d (depth %d, size %d, budget %d, guarded %d, shape %d)\n",
			il.Inlined, il.InlinedOps, il.Declined(),
			il.DeclinedDepth, il.DeclinedSize, il.DeclinedBudget, il.DeclinedGuarded, il.DeclinedShape)
	}

	if *stats {
		fmt.Printf("\nscheduling:     %d ops in %d cycles; %d speculated; %.2f branches/cycle (max %d); %d predicated branch cycles\n",
			res.Sched.Ops, res.Sched.Length, res.Sched.Speculated,
			res.Sched.BranchesPerCycle(), res.Sched.MaxBranchesPerCycle, res.Sched.PredicatedCycles)
		fmt.Printf("region blocks:  %s\n", res.RegionStats.Blocks)
		fmt.Printf("region paths:   %s\n", res.RegionStats.Paths)
		if *verifyFlag {
			v := res.Trace.Snapshot().Phase[telemetry.PhaseVerify]
			fmt.Printf("verify time:    %d verifier runs, %.1f ms wall\n", v.Calls, float64(v.Nanos)/1e6)
		}
		fmt.Printf("\n== compile trace: %s\n%s", prog.Name, res.Trace.Snapshot().Table())
		for _, fr := range res.Funcs {
			fmt.Printf("\n== compile trace: %s\n%s", fr.Fn.Name, fr.Trace.Snapshot().Table())
		}
	}

	if *dot != "" {
		if len(res.Funcs) == 0 {
			fmt.Fprintf(os.Stderr, "treegionc: -dot %s: program has no compiled functions to render\n", *dot)
			os.Exit(1)
		}
		fr := res.Funcs[0]
		if err := os.WriteFile(*dot, []byte(treegion.DOT(fr.Fn, fr.Regions, fr.Prof)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "treegionc: writing DOT file: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (render with: dot -Tsvg %s)\n", *dot, *dot)
	}

	if *dump > 0 {
		type hot struct {
			fi, ri int
			w      float64
		}
		var hots []hot
		for fi, fr := range res.Funcs {
			for ri, r := range fr.Regions {
				hots = append(hots, hot{fi, ri, profs[fi].BlockWeight(r.Root)})
			}
		}
		sort.Slice(hots, func(i, j int) bool { return hots[i].w > hots[j].w })
		if len(hots) > *dump {
			hots = hots[:*dump]
		}
		for _, x := range hots {
			fr := res.Funcs[x.fi]
			fmt.Printf("\n== %s %v (root weight %.0f)\n%s",
				fr.Fn.Name, fr.Regions[x.ri], x.w, fr.Schedules[x.ri])
		}
	}
}

// fatalCompile reports a compile failure. Verifier rejections render every
// diagnostic with its rule ID; anything else is reported as-is.
func fatalCompile(err error) {
	var vf *treegion.VerifyFailure
	if errors.As(err, &vf) {
		fmt.Fprintf(os.Stderr, "treegionc: %v\n", err)
		for _, d := range vf.Diagnostics {
			fmt.Fprintf(os.Stderr, "treegionc: %s\n", d)
		}
		os.Exit(1)
	}
	log.Fatal(err)
}
