package sched

// Stats summarizes one schedule for the telemetry layer: how much work it
// placed, how much of it was speculative, and how densely branches pack
// into MultiOps — the quantities behind the paper's Figs. 6–10 discussion
// of why treegions win.
type Stats struct {
	// Ops counts scheduled DDG nodes, renaming copies included.
	Ops int
	// Copies counts renaming copy ops.
	Copies int
	// Branches counts terminator ops (branches and returns).
	Branches int
	// Length is the schedule length in cycles (summed when aggregated).
	Length int
	// Speculated counts ops placed above an ancestor block's branch
	// (Schedule.SpeculatedAbove).
	Speculated int
	// BranchCycles counts cycles issuing at least one branch.
	BranchCycles int
	// PredicatedCycles counts cycles issuing two or more branches — the
	// predicated multi-branch MultiOps of the paper's Section 2 machine.
	PredicatedCycles int
	// MaxBranchesPerCycle is the densest branch packing observed.
	MaxBranchesPerCycle int
}

// Stats measures the schedule. All counts derive only from node placement,
// so they are deterministic in the compile inputs.
func (s *Schedule) Stats() Stats {
	st := Stats{Ops: len(s.Graph.Nodes), Length: s.Length, Speculated: s.SpeculatedAbove()}
	branchesAt := make([]int32, s.Length)
	for _, nd := range s.Graph.Nodes {
		if nd.IsCopy() {
			st.Copies++
		}
		if nd.Term {
			st.Branches++
			branchesAt[s.Cycle[nd.Index]]++
		}
	}
	for _, n := range branchesAt {
		if n == 0 {
			continue
		}
		k := int(n)
		st.BranchCycles++
		if k > 1 {
			st.PredicatedCycles++
		}
		if k > st.MaxBranchesPerCycle {
			st.MaxBranchesPerCycle = k
		}
	}
	return st
}

// Add merges two stats: counts and lengths sum, maxima take the max.
func (s Stats) Add(o Stats) Stats {
	s.Ops += o.Ops
	s.Copies += o.Copies
	s.Branches += o.Branches
	s.Length += o.Length
	s.Speculated += o.Speculated
	s.BranchCycles += o.BranchCycles
	s.PredicatedCycles += o.PredicatedCycles
	if o.MaxBranchesPerCycle > s.MaxBranchesPerCycle {
		s.MaxBranchesPerCycle = o.MaxBranchesPerCycle
	}
	return s
}

// BranchesPerCycle is the average branch density over branch-issuing
// cycles — above 1.0 means the machine's predicated multiway branching is
// actually being used.
func (s Stats) BranchesPerCycle() float64 {
	if s.BranchCycles == 0 {
		return 0
	}
	return float64(s.Branches) / float64(s.BranchCycles)
}
