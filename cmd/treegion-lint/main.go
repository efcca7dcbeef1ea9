// Command treegion-lint statically verifies compiled schedules. It parses
// each textual-IR file (single- or multi-function), compiles it under the
// requested configurations and runs the internal/verify rule set — IR
// well-formedness (IR001-IR009), region invariants (RG001-RG005), schedule
// legality (SC001-SC008, MC001), call/interprocedural rules (CL001-CL003)
// and differential semantics (SEM001-SEM002) — over every result.
//
// Usage:
//
//	treegion-lint [-region all] [-heuristic globalweight] [-machine 4U]
//	              [-limit 2.0] [-seed 1] [-trips 100] [-inline] [-q] file.tir...
//
// -region/-heuristic accept "all" to sweep every former or heuristic.
// -inline additionally compiles with demand-driven inline-on-absorb, so the
// splice-integrity rules check real inliner output. Each diagnostic prints
// as "file [config]: severity RULE fn/bb/op: message". The exit status is
// non-zero iff any Error-severity diagnostic fired.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"treegion"
	"treegion/internal/api"
)

var regionNames = []string{"bb", "slr", "tree", "sb", "tree-td"}
var heuristicNames = []string{"depheight", "exitcount", "globalweight", "weightedcount"}

func main() {
	regionFlag := flag.String("region", "all", "region former to lint: bb, slr, tree, sb, tree-td or all")
	heuristicFlag := flag.String("heuristic", "globalweight", "scheduling heuristic, or all")
	machineName := flag.String("machine", "4U", "machine model: 1U, 4U, 8U, 16U")
	limit := flag.Float64("limit", 2.0, "code expansion limit for tree-td")
	seed := flag.Uint64("seed", 1, "profiling seed")
	trips := flag.Int("trips", 100, "profiling trips")
	inlineFlag := flag.Bool("inline", false, "also splice eligible callees during formation (exercises CL002/CL003 on real splices)")
	quiet := flag.Bool("q", false, "print Error-severity diagnostics only")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "treegion-lint: no input files (usage: treegion-lint [flags] file.tir...)")
		os.Exit(2)
	}
	kinds, err := expand(*regionFlag, regionNames)
	if err != nil {
		fmt.Fprintf(os.Stderr, "treegion-lint: %v\n", err)
		os.Exit(2)
	}
	heuristics, err := expand(*heuristicFlag, heuristicNames)
	if err != nil {
		fmt.Fprintf(os.Stderr, "treegion-lint: %v\n", err)
		os.Exit(2)
	}
	var configs []treegion.Config
	for _, kindName := range kinds {
		for _, hName := range heuristics {
			_, cfg, err := api.CompileConfig{
				Region: kindName, Heuristic: hName, Machine: *machineName, ExpansionLimit: *limit,
			}.Normalize()
			if err != nil {
				fmt.Fprintf(os.Stderr, "treegion-lint: %v\n", err)
				os.Exit(2)
			}
			if *inlineFlag {
				cfg.Inline = treegion.DefaultInlineConfig()
			}
			configs = append(configs, cfg)
		}
	}

	failed := false
	files, linted := 0, 0
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "treegion-lint: %v\n", err)
			failed = true
			continue
		}
		irprog, err := treegion.ParseIRProgram(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: parse: %v\n", path, err)
			failed = true
			continue
		}
		prog := &treegion.Program{Name: path, Funcs: irprog.Funcs}
		var profs treegion.Profiles
		profileOK := true
		for i, fn := range irprog.Funcs {
			prof, err := treegion.ProfileFunction(fn, *seed+uint64(i), *trips)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: profile %s: %v\n", path, fn.Name, err)
				failed = true
				profileOK = false
				break
			}
			profs = append(profs, prof)
		}
		if !profileOK {
			continue
		}
		files++
		for _, cfg := range configs {
			linted++
			if lintOne(path, prog, profs, cfg, *quiet) {
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
	if !*quiet {
		fmt.Printf("treegion-lint: %d file(s) clean across %d configuration(s)\n", files, linted)
	}
}

// lintOne compiles prog under cfg through the verifying pipeline (which
// resolves the file's call graph when inlining is on) and renders every
// diagnostic. It reports whether an Error-severity diagnostic (or a compile
// failure) occurred.
func lintOne(path string, prog *treegion.Program, profs treegion.Profiles, cfg treegion.Config, quiet bool) bool {
	tag := fmt.Sprintf("%s/%s/%s", cfg.Kind, cfg.Heuristic, cfg.Machine.Name)
	if cfg.Inline.Enabled {
		tag += "/inline"
	}
	res, err := treegion.Compile(context.Background(), prog, profs, cfg, treegion.WithVerify())
	if err != nil {
		var vf *treegion.VerifyFailure
		if errors.As(err, &vf) {
			for _, d := range vf.Diagnostics {
				fmt.Fprintf(os.Stderr, "%s [%s]: %s\n", path, tag, d)
			}
		} else {
			fmt.Fprintf(os.Stderr, "%s [%s]: compile: %v\n", path, tag, err)
		}
		return true
	}
	failed := false
	for _, fr := range res.Funcs {
		for _, d := range fr.Diagnostics {
			if d.Severity >= treegion.SeverityError {
				failed = true
			} else if quiet {
				continue
			}
			fmt.Fprintf(os.Stderr, "%s [%s]: %s\n", path, tag, d)
		}
	}
	return failed
}

// expand resolves a flag value that is either "all" or one of valid.
func expand(v string, valid []string) ([]string, error) {
	if v == "all" {
		return valid, nil
	}
	for _, name := range valid {
		if name == v {
			return []string{v}, nil
		}
	}
	return nil, fmt.Errorf("unknown value %q (want all or one of %v)", v, valid)
}
