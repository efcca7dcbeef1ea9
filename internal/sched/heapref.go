package sched

import (
	"treegion/internal/ddg"
	"treegion/internal/machine"
)

// This file retains the pre-bitmap heap scheduler verbatim as a reference
// implementation. It is not a production path: the differential tests in
// sched_ref_test.go assert byte-identical schedules between it and the
// bitmap queues, and BenchmarkColdCompileSched uses it as the heap-era
// baseline for the speedup metric. It keeps its own scratch slices (the
// cur/next/future fields of Scratch) so the comparison measures queue
// mechanics, not allocator noise.

// ListScheduleHeapRef schedules g with the retained rank min-heaps — the
// pre-bitmap implementation. Schedules are byte-identical to ListSchedule;
// see ListScheduleTraced for the sweep semantics both reproduce.
func ListScheduleHeapRef(g *ddg.Graph, m machine.Model, prio PriorityFn) *Schedule {
	return ListScheduleHeapRefScratch(g, m, prio, new(Scratch))
}

// ListScheduleHeapRefScratch is ListScheduleHeapRef scheduling into a
// caller-owned Scratch (benchmarks pass one so the heap-vs-bitmap
// comparison has identical allocation behavior).
func ListScheduleHeapRefScratch(g *ddg.Graph, m machine.Model, prio PriorityFn, sc *Scratch) *Schedule {
	n := len(g.Nodes)
	s := &Schedule{Graph: g, Model: m, Cycle: make([]int, n)}
	if n == 0 {
		return s
	}
	sc.reset(n)
	prioritize(g, prio, sc)

	order := sc.order
	rankOf, preds, earliest := sc.rankOf, sc.preds, sc.earliest
	cur, next, future := sc.cur, sc.next, sc.future
	for _, nd := range g.Nodes {
		preds[nd.Index] = int32(len(nd.Preds))
		if preds[nd.Index] == 0 {
			rankPush(&cur, rankOf[nd.Index])
		}
	}

	remaining := n
	cycle := int32(0)
	for remaining > 0 {
		// A new cycle starts a fresh sweep: everything ready is eligible.
		for _, r := range next {
			rankPush(&cur, r)
		}
		next = next[:0]
		for len(future) > 0 && int32(future[0]>>32) <= cycle {
			rankPush(&cur, int32(futPop(&future)&0xffffffff))
		}
		if len(cur) == 0 {
			// Nothing eligible: jump to the next cycle at which something
			// becomes ready.
			jump := int32(future[0] >> 32)
			if jump <= cycle {
				jump = cycle + 1
			}
			cycle = jump
			continue
		}
		slots := m.IssueWidth
		lastPopped := int32(-1)
		for slots > 0 {
			if len(cur) == 0 {
				if len(next) == 0 {
					break
				}
				// The sweep passed some nodes that became ready behind it;
				// rescan from the top (same cycle, fresh sweep).
				for _, r := range next {
					rankPush(&cur, r)
				}
				next = next[:0]
				lastPopped = -1
				continue
			}
			rank := rankPop(&cur)
			nd := order[rank]
			i := nd.Index
			s.Cycle[i] = int(cycle)
			remaining--
			if !nd.IsCopy() {
				// Renaming copies ride free (see ListScheduleScratch).
				slots--
			}
			lastPopped = rank
			for _, e := range nd.Succs {
				j := e.To.Index
				preds[j]--
				if t := cycle + int32(e.Latency); t > earliest[j] {
					earliest[j] = t
				}
				if preds[j] == 0 {
					switch {
					case earliest[j] > cycle:
						futPush(&future, uint64(earliest[j])<<32|uint64(rankOf[j]))
					case rankOf[j] > lastPopped:
						rankPush(&cur, rankOf[j])
					default:
						next = append(next, rankOf[j])
					}
				}
			}
		}
		cycle++
	}
	sc.cur, sc.next, sc.future = cur, next, future

	for _, nd := range g.Nodes {
		if c := s.Cycle[nd.Index] + 1; c > s.Length {
			s.Length = c
		}
	}
	return s
}

// Rank min-heap over int32 (reference implementation only).
func rankPush(h *[]int32, v int32) {
	a := append(*h, v)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

func rankPop(h *[]int32) int32 {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && a[l] < a[m] {
			m = l
		}
		if r < last && a[r] < a[m] {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	*h = a
	return top
}

// (earliest, rank) min-heap packed into uint64 (reference only).
func futPush(h *[]uint64, v uint64) {
	a := append(*h, v)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

func futPop(h *[]uint64) uint64 {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && a[l] < a[m] {
			m = l
		}
		if r < last && a[r] < a[m] {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	*h = a
	return top
}
