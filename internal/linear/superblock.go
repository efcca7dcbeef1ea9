package linear

import (
	"slices"

	"treegion/internal/cfg"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/region"
)

// SuperblockConfig bounds superblock formation.
type SuperblockConfig struct {
	// MaxTraceLen bounds trace growth.
	MaxTraceLen int
	// ExpansionLimit caps the function's static-op growth factor from tail
	// duplication; once exceeded, remaining traces are split at their side
	// entrances instead of duplicating.
	ExpansionLimit float64
}

// DefaultSuperblockConfig mirrors customary IMPACT-style settings.
func DefaultSuperblockConfig() SuperblockConfig {
	return SuperblockConfig{MaxTraceLen: 64, ExpansionLimit: 3.0}
}

// Superblocks forms superblocks over fn: profile-driven trace selection
// (mutual-most-likely growth over executed blocks) followed by tail
// duplication that removes every side entrance, leaving each trace a
// single-entry multiple-exit region. Code the profile never saw is covered
// by leftover regions so the whole function remains partitioned.
//
// Returned regions with FromTrace set are the actual superblocks (what the
// paper's Table 4 counts); the rest are cold-code filler.
func Superblocks(fn *ir.Function, prof *profile.Data, cfgc SuperblockConfig) []*region.Region {
	if cfgc.MaxTraceLen <= 0 {
		cfgc.MaxTraceLen = 64
	}
	if cfgc.ExpansionLimit <= 0 {
		cfgc.ExpansionLimit = 3.0
	}
	origOps := fn.NumOps()

	// --- Trace selection over the unmodified CFG. ---
	seeds := make([]ir.BlockID, 0, len(fn.Blocks))
	for _, b := range fn.Blocks {
		if prof.BlockWeight(b.ID) > 0 {
			seeds = append(seeds, b.ID)
		}
	}
	slices.SortFunc(seeds, func(a, b ir.BlockID) int {
		wa, wb := prof.BlockWeight(a), prof.BlockWeight(b)
		switch {
		case wa > wb:
			return -1
		case wa < wb:
			return 1
		}
		return int(a) - int(b)
	})

	preds := cfg.New(fn).Preds
	claimed := make(map[ir.BlockID]bool)
	var traces [][]ir.BlockID
	for _, seed := range seeds {
		if claimed[seed] {
			continue
		}
		trace := []ir.BlockID{seed}
		claimed[seed] = true
		cur := seed
		for len(trace) < cfgc.MaxTraceLen {
			next, w := prof.BestSucc(fn, cur)
			if next == ir.NoBlock || w <= 0 || claimed[next] {
				break
			}
			// Mutual-most-likely: the edge must also be next's heaviest
			// incoming edge, or the trace stops (Hwu/Chang trace selection).
			if !bestPredIs(prof, preds[next], cur, next) {
				break
			}
			trace = append(trace, next)
			claimed[next] = true
			cur = next
		}
		// An intra-trace edge targeting a non-head position (a back edge
		// into the trace middle, i.e. the trace crossed a loop entry) would
		// defeat side-entrance removal: the duplicate chain would re-create
		// the entrance. Truncate the trace just before the first such
		// target — IMPACT traces do not cross loop boundaries either.
		if cut := firstInternalTarget(fn, trace); cut >= 0 {
			for _, b := range trace[cut:] {
				delete(claimed, b)
			}
			trace = trace[:cut]
		}
		traces = append(traces, trace)
	}

	// --- Tail duplication: remove side entrances from each trace. ---
	part := region.NewPartition(fn)
	var regions []*region.Region
	for _, trace := range traces {
		preds = cfg.New(fn).Preds // earlier traces may have re-routed edges
		first := -1
		sideW := make([]float64, len(trace))
		for j := 1; j < len(trace); j++ {
			for _, p := range preds[trace[j]] {
				if p != trace[j-1] {
					sideW[j] += prof.EdgeWeight(p, trace[j])
					if first < 0 {
						first = j
					}
				}
			}
		}
		if first < 0 {
			// Already single-entry; the whole trace is one superblock.
			regions = append(regions, traceRegion(part, trace))
			continue
		}
		if float64(fn.NumOps()) > cfgc.ExpansionLimit*float64(origOps) {
			// Expansion budget exhausted: split the trace at its first side
			// entrance instead of duplicating.
			regions = append(regions, traceRegion(part, trace[:first]))
			regions = append(regions, traceRegion(part, trace[first:]))
			continue
		}

		// One duplicate chain covers the tail from the first side entrance;
		// every side entrance at position j re-routes into the chain at d_j.
		dups := make([]*ir.Block, len(trace))
		for j := first; j < len(trace); j++ {
			dups[j] = fn.DuplicateBlock(fn.Block(trace[j]))
		}
		inW := 0.0
		for j := first; j < len(trace); j++ {
			inW += sideW[j]
			prof.SplitBlock(fn, trace[j], dups[j].ID, inW)
			if j+1 < len(trace) {
				inW = prof.EdgeWeight(dups[j].ID, trace[j+1])
				prof.MoveEdge(dups[j].ID, trace[j+1], dups[j+1].ID)
				dups[j].ReplaceSucc(trace[j+1], dups[j+1].ID)
			}
			for _, p := range preds[trace[j]] {
				if p == trace[j-1] {
					continue
				}
				prof.MoveEdge(p, trace[j], dups[j].ID)
				fn.Block(p).ReplaceSucc(trace[j], dups[j].ID)
			}
		}
		regions = append(regions, traceRegion(part, trace))
	}

	// --- Cover everything else as plain basic blocks (IMPACT leaves
	// non-trace code unregioned: cold blocks and duplicate chains get no
	// cross-block scheduling scope). ---
	for _, b := range fn.Blocks {
		if part.Owner(b.ID) == nil {
			regions = append(regions, part.NewRegion(region.KindSuperblock, b.ID))
		}
	}
	return regions
}

// traceRegion wraps a chain of blocks as a FromTrace superblock region.
func traceRegion(part *region.Partition, trace []ir.BlockID) *region.Region {
	r := part.NewRegion(region.KindSuperblock, trace[0])
	r.FromTrace = true
	for i := 1; i < len(trace); i++ {
		r.Add(trace[i], trace[i-1])
	}
	return r
}

// firstInternalTarget returns the smallest j >= 1 such that some trace block
// at position >= j has an edge to trace[j] other than the forward link, or
// -1 if the trace is clean.
func firstInternalTarget(fn *ir.Function, trace []ir.BlockID) int {
	pos := make(map[ir.BlockID]int, len(trace))
	for i, b := range trace {
		pos[b] = i
	}
	best := -1
	for k, b := range trace {
		for _, s := range fn.Block(b).Succs() {
			j, ok := pos[s]
			if !ok || j == 0 || j == k+1 {
				continue
			}
			if best < 0 || j < best {
				best = j
			}
		}
	}
	return best
}

// bestPredIs reports whether (cand→next) is next's heaviest incoming edge.
func bestPredIs(prof *profile.Data, preds []ir.BlockID, cand, next ir.BlockID) bool {
	w := prof.EdgeWeight(cand, next)
	for _, p := range preds {
		if pw := prof.EdgeWeight(p, next); pw > w {
			return false
		}
	}
	return true
}
