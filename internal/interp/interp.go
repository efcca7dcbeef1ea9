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
	"math"

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

// hashOracle draws deterministic pseudo-random decisions from a seed. It is
// a value, so Profile calls it directly, without an interface or an
// allocation per trip.
type hashOracle struct{ seed uint64 }

// NewOracle returns a deterministic Oracle for the given seed.
func NewOracle(seed uint64) Oracle { return hashOracle{seed: seed} }

func (h hashOracle) Take(origID, occurrence int, prob float64) bool {
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

// ProfileMaxSteps is the per-trip step bound every profile of a compile
// input runs under: the library's, the daemon's and the suite's.
const ProfileMaxSteps = 2_000_000

// profileTripBounds bounds a whole profile: its trips together may run at
// most this many per-trip bounds of steps, 64M under ProfileMaxSteps.
const profileTripBounds = 32

// Profile runs fn `trips` times with seeds seed, seed+1, ... and accumulates
// block and edge counts. Each trip's visited path contributes to the
// profile keyed by the *current* block IDs (not originals), since region
// formation operates on the current CFG. A trip fails when it exceeds the
// step bound, falls off a block with no successor, or falls into a cycle
// of blocks without ops (oplessCycles). The profile fails once its trips
// together have run more than profileTripBounds step bounds, so no trip
// count makes it run unbounded.
//
// fn's control flow is decoded once into a skeleton, and the trips count
// into integer slices indexed by block, edge slot and branch occurrence
// slot; the profile's maps are written once, after the last trip. A count
// below 2^53 converts to exactly the float64 that adding 1 per visit
// would build.
func Profile(fn *ir.Function, seed uint64, trips int, cfg Config) (*profile.Data, error) {
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	maxTotal, total := min(maxSteps, math.MaxInt/profileTripBounds)*profileTripBounds, 0
	sk := newSkeleton(fn)
	blockN := make([]int, len(sk.blocks))
	edgeN := make([]int, len(sk.edges))
	occ := make([]int, sk.nocc)
	for t := 0; t < trips; t++ {
		o := hashOracle{seed + uint64(t)}
		clear(occ)
		cur, steps := fn.Entry, 0
		for {
			b := &sk.blocks[cur]
			blockN[cur]++
			n, next, edge, done := b.nops, b.next, b.fall, false
		walk:
			for i := range b.ctls {
				c := &b.ctls[i]
				switch c.opc {
				case ir.Brct, ir.Brcf:
					k := occ[c.occ]
					occ[c.occ] = k + 1
					if !o.Take(c.key, k, c.prob) {
						continue
					}
				case ir.Ret:
					done = true
				}
				n, next, edge = int(c.at)+1, c.target, c.edge
				break walk
			}
			if steps += n; steps > maxSteps {
				return nil, fmt.Errorf("interp: profiling %s exceeded %d steps", fn.Name, maxSteps)
			}
			if done {
				break
			}
			if next == ir.NoBlock {
				return nil, noSuccessor(fn, cur)
			}
			edgeN[edge]++
			cur = next
		}
		if total += steps; total > maxTotal {
			return nil, fmt.Errorf("interp: profiling %s exceeded %d steps in total over its first %d trips", fn.Name, maxTotal, t+1)
		}
	}
	d := profile.New()
	for b, n := range blockN {
		if n > 0 {
			d.AddBlock(ir.BlockID(b), float64(n))
		}
	}
	for e, n := range edgeN {
		if n > 0 {
			d.AddEdge(sk.edges[e].From, sk.edges[e].To, float64(n))
		}
	}
	return d, nil
}

// oplessCycles lists the blocks of fn that a trip never leaves without
// running an op: each has no ops, and its fallthrough chain runs through
// blocks without ops into a cycle. The step bound counts ops, so it would
// never stop such a trip. An op-less block has no branch, so the chain is
// fixed, and a trip that enters a listed block is exactly a trip that
// would enter more op-less blocks in a row than fn has blocks. Profile and
// the Runner decode a listed block with no successor, which keeps the
// check off their per-block walks; noSuccessor then reports the cycle.
// Generated code has op-less blocks, so counting each visit as a step
// instead would move where real trips meet the bound.
func oplessCycles(fn *ir.Function) []ir.BlockID {
	const (
		unseen = iota
		onChain
		ends
		cycles
	)
	var state []uint8 // made at the first op-less block
	for i, blk := range fn.Blocks {
		if len(blk.Ops) != 0 || state != nil && state[i] != unseen {
			continue
		}
		if state == nil {
			state = make([]uint8, len(fn.Blocks))
		}
		b := ir.BlockID(i)
		for b != ir.NoBlock && state[b] == unseen && len(fn.Blocks[b].Ops) == 0 {
			state[b] = onChain
			b = fn.Blocks[b].FallThrough
		}
		verdict := uint8(ends)
		if b != ir.NoBlock && (state[b] == onChain || state[b] == cycles) {
			verdict = cycles
		}
		for b := ir.BlockID(i); b != ir.NoBlock && state[b] == onChain; b = fn.Blocks[b].FallThrough {
			state[b] = verdict
		}
	}
	var out []ir.BlockID
	for i, st := range state {
		if st == cycles {
			out = append(out, ir.BlockID(i))
		}
	}
	return out
}

// noSuccessor is the error of a trip that leaves bb b with nowhere to go.
// An op-less block that has a fallthrough was decoded without one because
// it falls into a cycle of blocks without ops (oplessCycles).
func noSuccessor(fn *ir.Function, b ir.BlockID) error {
	if blk := fn.Blocks[b]; len(blk.Ops) == 0 && blk.FallThrough != ir.NoBlock {
		return fmt.Errorf("interp: %s: bb%d falls into a cycle of blocks without ops", fn.Name, b)
	}
	return fmt.Errorf("interp: %s: bb%d has no successor and no RET", fn.Name, b)
}

// skeleton is the control flow of one function as Profile walks it.
type skeleton struct {
	blocks []skelBlock    // indexed by BlockID
	edges  []profile.Edge // edge slot → endpoints
	nocc   int            // occurrence slots: one per distinct branch Orig
}

type skelBlock struct {
	nops int
	next ir.BlockID // fallthrough successor, or ir.NoBlock
	fall int32      // the fallthrough's edge slot
	ctls []skelOp   // the Brct, Brcf, Bru and Ret ops, in op order
}

// skelOp is one control op. Guards are ignored, as profiling always has.
type skelOp struct {
	opc    ir.Opcode
	at     int32 // op index in its block
	edge   int32 // taken-edge slot; never counted for Ret
	occ    int32 // occurrence slot of a conditional branch
	target ir.BlockID
	key    int // oracle key of a conditional branch: its Orig
	prob   float64
}

func isCtl(op *ir.Op) bool { return op.IsBranch() || op.Opcode == ir.Ret }

// newSkeleton decodes fn, every block's control ops carved from one slab.
// Conditional branches share an occurrence slot when they share an Orig,
// as tail-duplicated copies of one branch do, so the oracle sees one
// occurrence stream per original branch.
func newSkeleton(fn *ir.Function) *skeleton {
	nctl := 0
	for _, b := range fn.Blocks {
		for _, op := range b.Ops {
			if isCtl(op) {
				nctl++
			}
		}
	}
	sk := &skeleton{blocks: make([]skelBlock, len(fn.Blocks)), edges: make([]profile.Edge, 0, len(fn.Blocks)+nctl)}
	ctls := make([]skelOp, 0, nctl)
	occ := make(map[int]int32)
	edge := func(from, to ir.BlockID) int32 {
		sk.edges = append(sk.edges, profile.Edge{From: from, To: to})
		return int32(len(sk.edges) - 1)
	}
	for bi, b := range fn.Blocks {
		id, first := ir.BlockID(bi), len(ctls)
		for i, op := range b.Ops {
			if !isCtl(op) {
				continue
			}
			c := skelOp{opc: op.Opcode, at: int32(i), edge: edge(id, op.Target), target: op.Target, key: op.Orig, prob: op.Prob}
			if op.Opcode.IsConditionalBranch() {
				s, ok := occ[op.Orig]
				if !ok {
					s = int32(len(occ))
					occ[op.Orig] = s
				}
				c.occ = s
			}
			ctls = append(ctls, c)
		}
		sk.blocks[bi] = skelBlock{nops: len(b.Ops), next: b.FallThrough, fall: edge(id, b.FallThrough), ctls: ctls[first:]}
	}
	for _, b := range oplessCycles(fn) {
		sk.blocks[b].next = ir.NoBlock
	}
	sk.nocc = len(occ)
	return sk
}
