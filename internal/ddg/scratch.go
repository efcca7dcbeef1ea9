package ddg

import "treegion/internal/ir"

// Scratch holds the builder's reusable working set: every table and buffer
// that does NOT escape into the returned Graph. A compile passes one Scratch
// to every BuildScratch call of a function, and a pipeline worker keeps it
// across every function it compiles. The Graph-owned allocations (the Node
// slab, the Succs edge slab) are always fresh: results outlive the scratch.
//
// Each build costs O(region), whatever the size of the function around it
// (DESIGN.md §17). The tables come in two kinds:
//
//   - Function-indexed tables (per-op marks by op ID, region-local register
//     numbers by register class and number) are grown geometrically on
//     first touch and never cleared wholesale. A build logs every entry it
//     sets and zeroes exactly those before it ends, so between builds the
//     tables are all-zero and carry no facts from one region, function or
//     compile to the next.
//   - Everything else is region-sized: per-block tables are indexed by
//     preorder position (region.Region.Pos), and per-register tables by a
//     region-local register numbering assigned on first sight. Registers
//     that renaming mints mid-build are numbered like any other.
//
// A build that panics never reaches the reset, so a Scratch whose call
// panicked must be discarded. A Scratch must not be shared between
// concurrent builds.
type Scratch struct {
	builder
}

// opMark is the builder's per-op state. The zero value means untouched:
// present, unmoved and free to speculate.
type opMark struct {
	home   int32 // 1 + the block a dominator-merged representative is homed at; 0 = unmoved
	gone   bool  // eliminated by dominator parallelism
	pinned bool  // must not speculate above its block
}

// extend returns t grown to at least n elements, preserving its contents
// and zero-filling the rest. Capacity at least doubles, so a table indexed
// by an ever-growing ID space costs amortized O(1) per new entry.
func extend[T any](t []T, n int) []T {
	if n <= len(t) {
		return t
	}
	nt := make([]T, max(n, 2*len(t)))
	copy(nt, t)
	return nt
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

// begin readies the builder for one build of g.
func (b *builder) begin(g *Graph, opts Options) {
	b.g, b.opts = g, opts
	b.moved = b.moved[:0]
	b.recs = b.recs[:0]
	b.defRegs = 0
}

// finish returns the function-indexed tables to all-zero through the logs
// and drops the references into the finished graph.
func (b *builder) finish() {
	for _, id := range b.marked {
		b.marks[id] = opMark{}
	}
	b.marked = b.marked[:0]
	for _, r := range b.regOf {
		b.regNum[r.Class][r.Num] = 0
	}
	b.regOf = b.regOf[:0]
	b.g, b.w.nodes, b.w.lastStore = nil, nil, nil
}

// markOf returns op's mark (zero for ops minted after the build began).
func (b *builder) markOf(op *ir.Op) opMark {
	if op.ID < 0 || op.ID >= len(b.marks) {
		return opMark{}
	}
	return b.marks[op.ID]
}

// mark returns op's mark for update, logging op for finish's reset.
func (b *builder) mark(op *ir.Op) *opMark {
	if op.ID >= len(b.marks) {
		b.marks = extend(b.marks, op.ID+1)
	}
	m := &b.marks[op.ID]
	if *m == (opMark{}) {
		b.marked = append(b.marked, int32(op.ID))
	}
	return m
}

func (b *builder) isGone(op *ir.Op) bool   { return b.markOf(op).gone }
func (b *builder) isPinned(op *ir.Op) bool { return b.markOf(op).pinned }
func (b *builder) setGone(op *ir.Op)       { b.mark(op).gone = true }
func (b *builder) setPinned(op *ir.Op)     { b.mark(op).pinned = true }

// setHome homes a dominator-merged representative at bid.
func (b *builder) setHome(op *ir.Op, bid ir.BlockID) { b.mark(op).home = int32(bid) + 1 }

// homeOf returns the override home of a dominator-merged representative.
func (b *builder) homeOf(op *ir.Op) (ir.BlockID, bool) {
	if h := b.markOf(op).home; h != 0 {
		return ir.BlockID(h - 1), true
	}
	return ir.NoBlock, false
}

// number returns r's region-local register index, assigning the next one on
// first sight; -1 for NoReg.
func (b *builder) number(r ir.Reg) int32 {
	if !r.IsValid() || int(r.Class) >= len(b.regNum) || r.Num < 0 {
		return -1
	}
	t := b.regNum[r.Class]
	if r.Num >= len(t) {
		t = extend(t, r.Num+1)
		b.regNum[r.Class] = t
	}
	if k := t[r.Num]; k != 0 {
		return k - 1
	}
	b.regOf = append(b.regOf, r)
	t[r.Num] = int32(len(b.regOf))
	return int32(len(b.regOf)) - 1
}

// local returns r's region-local register index, or -1 when r has none.
func (b *builder) local(r ir.Reg) int32 {
	if !r.IsValid() || int(r.Class) >= len(b.regNum) || r.Num < 0 {
		return -1
	}
	if t := b.regNum[r.Class]; r.Num < len(t) {
		return t[r.Num] - 1
	}
	return -1
}
