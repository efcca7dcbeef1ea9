// Package interp executes ir.Functions. It plays two roles:
//
//  1. Profiler. Running a function many times with a stochastic branch
//     oracle produces the block/edge counts that stand in for the paper's
//     SPEC training-input profiles.
//  2. Semantics checker. Because the oracle keys every decision off the
//     *original* branch op (duplicates share Orig), the same seed drives the
//     same logical path through a function before and after a
//     CFG-duplicating transformation. Comparing observable traces (stores,
//     visited original blocks) then verifies that region formation preserved
//     program behaviour.
//
// Data values are computed for real (loads read a deterministic synthetic
// memory; ALU ops do 64-bit arithmetic) so store traces carry information,
// but *control* follows the oracle rather than computed predicates — this is
// what lets the generator dial in the branch biases the paper's analysis
// depends on (biased, wide-shallow, and linearized treegions).
package interp

import (
	"fmt"

	"treegion/internal/ir"
	"treegion/internal/profile"
)

// Oracle decides conditional branches. origID is the Orig field of the
// branch op (stable across tail duplication) and occurrence is how many
// times that original branch has executed so far in this trip, so a
// decision stream replays identically across CFG transformations.
type Oracle interface {
	Take(origID, occurrence int, prob float64) bool
}

// hashOracle draws deterministic pseudo-random decisions from a seed.
type hashOracle struct{ seed uint64 }

// NewOracle returns a deterministic Oracle for the given seed.
func NewOracle(seed uint64) Oracle { return &hashOracle{seed: seed} }

func (h *hashOracle) Take(origID, occurrence int, prob float64) bool {
	x := h.seed
	x ^= uint64(origID) * 0x9e3779b97f4a7c15
	x ^= uint64(occurrence) * 0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53)
	return u < prob
}

// StoreEvent is one observable store.
type StoreEvent struct {
	Addr  int64
	Value int64
}

// Trace is the observable behaviour of one trip through a function.
type Trace struct {
	// Blocks is the sequence of *original* block IDs visited, so traces are
	// comparable across tail duplication.
	Blocks []ir.BlockID
	// Stores is the sequence of memory writes.
	Stores []StoreEvent
	// Steps is the number of ops executed.
	Steps int
}

// Config bounds a run.
type Config struct {
	MaxSteps int // per trip; 0 means a generous default
}

const defaultMaxSteps = 200000

// Profile runs fn `trips` times with seeds seed, seed+1, ... and accumulates
// block and edge counts. Each trip's visited path contributes to the
// profile keyed by the *current* block IDs (not originals), since region
// formation operates on the current CFG.
func Profile(fn *ir.Function, seed uint64, trips int, cfg Config) (*profile.Data, error) {
	d := profile.New()
	for t := 0; t < trips; t++ {
		if err := profileTrip(fn, NewOracle(seed+uint64(t)), cfg, d); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func profileTrip(fn *ir.Function, o Oracle, cfg Config, d *profile.Data) error {
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	occ := make(map[int]int)
	cur := fn.Entry
	steps := 0
	for {
		b := fn.Block(cur)
		d.AddBlock(cur, 1)
		next := b.FallThrough
		jumped := false
		done := false
		for _, op := range b.Ops {
			steps++
			if steps > maxSteps {
				return fmt.Errorf("interp: profiling %s exceeded %d steps", fn.Name, maxSteps)
			}
			switch op.Opcode {
			case ir.Brct, ir.Brcf:
				n := occ[op.Orig]
				occ[op.Orig] = n + 1
				if o.Take(op.Orig, n, op.Prob) {
					next = op.Target
					jumped = true
				}
			case ir.Bru:
				next = op.Target
				jumped = true
			case ir.Ret:
				done = true
			}
			if jumped || done {
				break
			}
		}
		if done {
			return nil
		}
		if next == ir.NoBlock {
			return fmt.Errorf("interp: %s: bb%d has no successor and no RET", fn.Name, cur)
		}
		d.AddEdge(cur, next, 1)
		cur = next
	}
}
