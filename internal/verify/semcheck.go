package verify

import (
	"fmt"

	"treegion/internal/interp"
	"treegion/internal/ir"
)

// Semantic rules: differential interpretation. The same deterministic
// branch oracle drives one trip through the original function and one
// through the compiled function (the oracle keys decisions off Orig IDs, so
// tail-duplicated branches replay the original decision stream), and the
// observable behaviour must agree.
//
//	SEM001  the store traces diverge (order, address or value)
//	SEM002  the visited original-block sequences diverge
//
// The check is skipped for if-converted code: there control follows
// computed predicates, not the oracle, so the trips are not comparable.

// defaultSeeds drives the differential runs when the caller supplies none.
var defaultSeeds = []uint64{1, 7, 42, 1998}

// CheckSemanticsProgram interprets orig and compiled under identical oracles
// and compares their observable traces. With a program context, resolved
// calls execute the callee bodies on both sides, so the comparison
// certifies inlined compilations — the callee's blocks appear in both
// traces under the callee's Orig namespace, whether executed in a call
// frame (original) or spliced inline (compiled). With a nil prog, calls
// stay opaque no-ops. It runs on a fresh Scratch.
func CheckSemanticsProgram(prog *ir.Program, orig, compiled *ir.Function, seeds []uint64, maxSteps int) []Diagnostic {
	return new(Scratch).checkSemantics(prog, orig, compiled, seeds, maxSteps)
}

// checkSemantics is CheckSemanticsProgram on the scratch's interpreter. One
// Runner serves every seed, so each function is decoded once per call, and
// its frames, counters, memory and the two traces are reused across seeds
// and sides. The Runner forgets its decodes first: a function decoded for
// an earlier call may have been freed and its address reused.
func (sc *Scratch) checkSemantics(prog *ir.Program, orig, compiled *ir.Function, seeds []uint64, maxSteps int) []Diagnostic {
	if len(seeds) == 0 {
		seeds = defaultSeeds
	}
	var ds []Diagnostic
	add := func(rule, format string, args ...interface{}) {
		ds = append(ds, Diagnostic{
			Rule: rule, Severity: Error, Fn: compiled.Name, Block: ir.NoBlock, Op: -1,
			Message: fmt.Sprintf(format, args...),
		})
	}
	cfg := interp.Config{MaxSteps: maxSteps}
	run, want, got := &sc.run, &sc.want, &sc.got
	run.Reset(prog, &sc.regs)
	for _, seed := range seeds {
		if err := run.RunTrace(orig, interp.NewOracle(seed), cfg, want); err != nil {
			// The original function does not execute cleanly under this
			// seed; nothing to compare against.
			continue
		}
		if err := run.RunTrace(compiled, interp.NewOracle(seed), cfg, got); err != nil {
			add("SEM002", "seed %d: compiled function fails to execute: %v", seed, err)
			continue
		}
		if d, ok := diffStores(want.Stores, got.Stores); ok {
			add("SEM001", "seed %d: %s", seed, d)
		}
		if d, ok := diffBlocks(want.Blocks, got.Blocks); ok {
			add("SEM002", "seed %d: %s", seed, d)
		}
	}
	return ds
}

func diffStores(want, got []interp.StoreEvent) (string, bool) {
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("store %d diverges: original writes %d to [%d], compiled writes %d to [%d]",
				i, want[i].Value, want[i].Addr, got[i].Value, got[i].Addr), true
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("store count diverges: original %d, compiled %d", len(want), len(got)), true
	}
	return "", false
}

func diffBlocks(want, got []ir.BlockID) (string, bool) {
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("visit %d diverges: original executes bb%d, compiled executes bb%d (Orig IDs)",
				i, want[i], got[i]), true
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("visited block count diverges: original %d, compiled %d", len(want), len(got)), true
	}
	return "", false
}
