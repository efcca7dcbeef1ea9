package verify

import (
	"treegion/internal/interp"
	"treegion/internal/ir"
)

// Scratch is the verifier's reusable working set: every table and buffer
// that does not escape into the diagnostics. CompiledScratch checks a
// function on one, and a pipeline worker keeps one (in its eval.Arena)
// across every function it verifies, so the per-region and per-trip tables
// are grown once, to the largest function met, instead of being rebuilt for
// every region, decode and seed. Compiled and the per-family Check*
// functions run on a fresh Scratch each call.
//
// Between checks a Scratch holds no facts about the last function:
// register numberings are reset through the log of what each use numbered,
// per-block tables are indexed by preorder position or cleared for each
// function, and the interpreter forgets its decodes at the start of every
// semantic check. A check that panics leaves the scratch mid-use, so a
// Scratch whose check panicked must be discarded. A Scratch must not be
// shared between concurrent checks.
type Scratch struct {
	// regs numbers registers for IR009 (per function), the SC path walk
	// (per region) and the interpreter (per decoded function). Each use
	// resets it before the next begins. It is the verifier's own instance:
	// no table is shared with the compiler's (ddg's numbering, liveness).
	regs ir.Numbering
	// run executes SEM's trips; want and got hold the two sides' traces.
	run       interp.Runner
	want, got interp.Trace
	ir        irChecker
	rg        regionChecker
	sched     schedChecker
}

// grow returns buf resized to n, reallocating only when capacity is short.
// Contents are unspecified; callers that need cleared memory clear it.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// growClear returns buf resized to n with every element zeroed.
func growClear[T any](buf []T, n int) []T {
	buf = grow(buf, n)
	clear(buf)
	return buf
}
