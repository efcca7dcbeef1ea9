// Package ddg builds the data dependence graph the treegion scheduler list
// schedules (step 1 of the paper's Fig. 3 algorithm). Building the graph
// also performs the paper's two enabling transformations:
//
//   - compile-time register renaming, so speculation above branches cannot
//     clobber values live on other paths (Section 3);
//   - dominator-parallelism merging, which replaces a complete set of
//     tail-duplicated identical Ops with one Op homed at their common
//     dominator (Section 4).
//
// Edge latencies encode both data and control legality:
//
//	flow (def→use)          latency of the producer
//	anti (use→def)          0 (write may share the reader's cycle)
//	output (def→def)        1
//	memory ordering         0 (PlayDoh: a store and dependent memory ops may
//	                           share a cycle; loads never bypass stores)
//	op → own block branch   0 (every op issues no later than its exits)
//	parent br → child br    0 (predicated branches may share a cycle)
//	ancestor br → non-spec  1 (stores/copies/calls wait for control)
//	arm i → arm i+1         0 (multiway arms keep their priority order)
//
// Speculatable ops get no control edges at all: the list scheduler is free
// to hoist them to the top of the region, which is exactly the paper's
// speculation mechanism.
//
// The graph is slab-allocated: all Nodes live in one array, all edges in
// another (successor lists only: a consumer that needs in-degrees counts
// them from Succs), and the builder's per-op lookups go through dense op-ID
// tables instead of pointer-keyed maps. Edges are accumulated as flat
// (from, to) records during the build and installed in one counting-sort
// pass that preserves insertion order, which downstream consumers
// (verifier, store serialization) iterate and therefore must be
// deterministic.
package ddg

import (
	"cmp"
	"fmt"
	"slices"

	"treegion/internal/cfg"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/region"
)

// EdgeKind classifies a dependence edge. The scheduler treats every kind
// identically (a minimum issue distance); the verifier uses the kind to map
// a violated edge to the legality rule it encodes.
type EdgeKind uint8

const (
	// EdgeData is a register dependence: flow, anti or output.
	EdgeData EdgeKind = iota
	// EdgeMem is serialized memory ordering (loads never bypass stores).
	EdgeMem
	// EdgeControl orders terminators and pins non-speculatable ops inside
	// their control window (resolver → op, op → own exits, arm order).
	EdgeControl
	// EdgeLive orders a value producer before a region exit whose target
	// still needs the value (downward-code-motion limit).
	EdgeLive
)

// String names the kind as shown in verifier diagnostics.
func (k EdgeKind) String() string {
	switch k {
	case EdgeData:
		return "data"
	case EdgeMem:
		return "mem"
	case EdgeControl:
		return "control"
	case EdgeLive:
		return "live-exit"
	default:
		return "?"
	}
}

// Edge is a dependence with a minimum issue-distance in cycles.
type Edge struct {
	To      *Node
	Latency int
	Kind    EdgeKind
}

// Node is one schedulable op.
type Node struct {
	Index int
	Op    *ir.Op
	// Home is the block whose path the op belongs to. For ops merged by
	// dominator parallelism this is the common dominator, not the block the
	// op physically sits in.
	Home ir.BlockID
	// Term marks terminators: branches and Ret.
	Term bool
	// Spec marks ops the scheduler may hoist above branches.
	Spec bool

	Succs []Edge

	// Static priority inputs (Section 3 heuristics).
	Height    int
	ExitCount int
	Weight    float64
}

// IsCopy reports whether the node is a renaming compensation copy, which
// the paper excludes from speedup accounting.
func (n *Node) IsCopy() bool { return n.Op.Opcode == ir.Copy }

// Graph is the dependence graph of one region.
type Graph struct {
	Fn     *ir.Function
	Region *region.Region
	Nodes  []*Node

	// Transformation statistics.
	NumRenamed int // ops whose destination was renamed
	NumCopies  int // compensation copies inserted
	NumMerged  int // duplicate ops eliminated by dominator parallelism
}

// NodeOf returns the node for op, or nil (eliminated or foreign op). It
// scans Nodes: the compile path never looks a node up by op, and the
// simulator does so once per region exit.
func (g *Graph) NodeOf(op *ir.Op) *Node {
	for _, n := range g.Nodes {
		if n.Op == op {
			return n
		}
	}
	return nil
}

// EdgeRec is one dependence edge by node index. Build records edges flat
// and installEdges turns them into slab-backed adjacency lists; the
// artifact store decodes a saved graph's edges into the same records
// (Scratch.EdgeRecs) for RestoreScratch to install.
type EdgeRec struct {
	From, To int32
	Latency  int32
	Kind     EdgeKind
}

// installEdges materializes recs into per-node Succs slices carved from one
// backing slab. A counting pass sizes each node's list, then a stable fill
// preserves record order within every list — the same order the old
// per-edge appends produced. The counting buffer is the builder's; the edge
// slab is always fresh (it escapes into the nodes).
func (b *builder) installEdges(nodes []*Node, recs []EdgeRec) {
	b.outCnt = growClear(b.outCnt, len(nodes))
	outCnt := b.outCnt
	for _, e := range recs {
		outCnt[e.From]++
	}
	slab := make([]Edge, len(recs))
	off := 0
	for i, nd := range nodes {
		nd.Succs = slab[off : off : off+int(outCnt[i])]
		off += int(outCnt[i])
	}
	for _, e := range recs {
		f := nodes[e.From]
		f.Succs = append(f.Succs, Edge{To: nodes[e.To], Latency: int(e.Latency), Kind: e.Kind})
	}
}

// Options configures Build.
type Options struct {
	// Rename enables compile-time register renaming (paper default: on).
	Rename bool
	// DominatorParallelism enables duplicate merging (Section 4).
	DominatorParallelism bool
	// Liveness must cover the current function; Build requires it.
	Liveness *cfg.Liveness
	// Profile supplies node weights for the profile-driven heuristics; nil
	// means all weights zero.
	Profile *profile.Data
}

// Build constructs the DDG for r. It may mutate the function: renaming
// rewrites destination/source registers inside the region and inserts Copy
// ops. Each region must therefore be built at most once per compiled
// function instance. Build uses a fresh Scratch; callers that build many
// regions pass one to BuildScratch instead.
func Build(fn *ir.Function, r *region.Region, opts Options) (*Graph, error) {
	return BuildScratch(fn, r, opts, new(Scratch))
}

// BuildScratch is Build drawing every non-escaping table and buffer from a
// caller-owned Scratch. Its cost is O(region): nothing it touches is sized
// to, or scanned over, the whole function (see Scratch).
func BuildScratch(fn *ir.Function, r *region.Region, opts Options, sc *Scratch) (*Graph, error) {
	if opts.Liveness == nil {
		return nil, fmt.Errorf("ddg: build requires liveness")
	}
	g := &Graph{Fn: fn, Region: r}
	b := &sc.builder
	b.begin(g, opts)
	if opts.DominatorParallelism {
		b.mergeDominatorParallel()
	}
	b.complete()
	return g, nil
}

// complete runs every step of a build after dominator merging: renaming or
// pinning, the nodes, the edges and their attributes, then finish.
func (b *builder) complete() {
	g := b.g
	b.buildDefBits()
	if b.opts.Rename {
		b.rename()
	} else {
		// Restricted speculation (IMPACT-style superblock scheduling): with
		// no compile-time renaming, an op whose destination is live on some
		// other path must not be hoisted above the diverging branch — pin it.
		b.pinConflicting()
	}
	b.buildEffective()
	b.makeNodes()
	// Presize the edge-record slab from the node count: the suite and both
	// stress tiers measure at most ~2.8 dependence records per node, so 3n
	// capacity absorbs the whole build without a growth chain. A scratch
	// keeps whatever larger capacity earlier builds reached.
	if est := 3 * len(g.Nodes); cap(b.recs) < est {
		b.recs = make([]EdgeRec, 0, est)
	}
	b.dataEdges()
	b.controlEdges()
	b.installEdges(g.Nodes, b.recs)
	b.attributes()
	b.finish()
}

// blkRange locates one block's nodes inside Graph.Nodes: body ops occupy
// [start, term), terminators [term, end). Nodes are created per block in
// effective order, so every block's nodes are contiguous.
type blkRange struct {
	start, term, end int32
}

// builder is the state of one build. It lives inside a Scratch, so its
// buffers carry their capacity from build to build; begin and finish
// bracket each build (see Scratch for the reset discipline).
type builder struct {
	g    *Graph
	opts Options

	// Function-indexed tables, all-zero between builds.
	marks  []opMark // by op.ID; ops minted mid-build stay unmarked
	marked []int32  // op IDs whose mark this build set
	// num numbers the region's registers on first sight: the walker's and
	// the def bitsets' per-register tables are indexed by its slots.
	num ir.Numbering

	// moved lists the merged representatives homed away from their own
	// block, in merge order; buildEffective sorts it by position.
	moved []movedOp
	// dp is dominator parallelism's working set (domparallel.go).
	dp merger

	// Post-transform caches, built by buildEffective/makeNodes and indexed
	// by preorder position.
	effSlab []*ir.Op   // effective op sequences, all blocks back to back
	effOf   []blkRange // effective-op range per block (into effSlab)
	nodeOf  []blkRange // node range per block (into g.Nodes)

	// recs accumulates edges for installEdges, which counts into outCnt.
	recs   []EdgeRec
	outCnt []int32

	// Per-block def bitsets over the first defRegs region-local registers
	// (defNW words per block, blocks by preorder position), used by
	// conflictsOffPath during rename/pinning. Built by buildDefBits after
	// dominator merging; defRegs is 0 until then, because merging's
	// incremental gone-marking would invalidate a prebuilt table (there
	// conflictsOffPath scans ops instead).
	defBits []uint64
	defNW   int
	defRegs int

	// Reusable scratch.
	succBuf    []ir.BlockID
	subtreeBuf []ir.BlockID
	exitsBelow []int

	// w is the dataEdges walker; its stacks are reused across builds.
	w walker
}

// appendEffective writes block bid's effective op sequence — the scheduler's
// view: surviving non-branch ops physically here, then moved, the merged
// representatives homed here, then the block's branch/Ret ops — onto dst,
// returning the extended slice and the body length (ops before the first
// terminator).
func (b *builder) appendEffective(dst []*ir.Op, bid ir.BlockID, moved []movedOp) ([]*ir.Op, int) {
	blk := b.g.Fn.Block(bid)
	base := len(dst)
	for _, op := range blk.Ops {
		if b.isGone(op) {
			continue
		}
		if home, moved := b.homeOf(op); moved && home != bid {
			continue
		}
		if op.IsBranch() || op.Opcode == ir.Ret {
			continue
		}
		dst = append(dst, op)
	}
	for _, m := range moved {
		dst = append(dst, m.op)
	}
	body := len(dst) - base
	for _, op := range blk.Ops {
		if b.isGone(op) {
			continue
		}
		if home, moved := b.homeOf(op); moved && home != bid {
			continue
		}
		if op.IsBranch() || op.Opcode == ir.Ret {
			dst = append(dst, op)
		}
	}
	return dst, body
}

// buildEffective caches every member block's effective op sequence in one
// backing slab. It runs after all transforms (merging, renaming) so the
// sequences are final.
func (b *builder) buildEffective() {
	r := b.g.Region
	total := len(b.moved)
	for _, bid := range r.Blocks {
		total += len(b.g.Fn.Block(bid).Ops)
	}
	// A stable sort keeps each dominator's representatives in merge order.
	slices.SortStableFunc(b.moved, func(x, y movedOp) int { return cmp.Compare(x.pos, y.pos) })
	moved := b.moved
	b.effOf = grow(b.effOf, len(r.Blocks))
	b.effSlab = grow(b.effSlab, total)[:0]
	for i, bid := range r.Blocks {
		k := 0
		for k < len(moved) && moved[k].pos == int32(i) {
			k++
		}
		start := len(b.effSlab)
		var body int
		b.effSlab, body = b.appendEffective(b.effSlab, bid, moved[:k])
		moved = moved[k:]
		b.effOf[i] = blkRange{
			start: int32(start),
			term:  int32(start + body),
			end:   int32(len(b.effSlab)),
		}
	}
}

// bodyNodes and termNodes return member block bid's non-terminator and
// terminator nodes; valid after makeNodes.
func (b *builder) bodyNodes(bid ir.BlockID) []*Node {
	r := b.nodeOf[b.g.Region.Pos(bid)]
	return b.g.Nodes[r.start:r.term]
}

func (b *builder) termNodes(bid ir.BlockID) []*Node {
	r := b.nodeOf[b.g.Region.Pos(bid)]
	return b.g.Nodes[r.term:r.end]
}

func (b *builder) blockNodes(bid ir.BlockID) []*Node {
	r := b.nodeOf[b.g.Region.Pos(bid)]
	return b.g.Nodes[r.start:r.end]
}

// makeNodes creates a node per surviving op, in region preorder, physical
// order within blocks. This order is topological for every edge kind the
// builder creates, which the attribute pass relies on. All nodes live in one
// slab; per-block ranges are recorded for the edge passes.
func (b *builder) makeNodes() {
	g := b.g
	// The Node slab and the Nodes index escape into the Graph; they are
	// always fresh.
	slab := make([]Node, len(b.effSlab))
	g.Nodes = make([]*Node, 0, len(slab))
	b.nodeOf = grow(b.nodeOf, len(g.Region.Blocks))
	for i, bid := range g.Region.Blocks {
		er := b.effOf[i]
		nr := blkRange{
			start: int32(len(g.Nodes)),
			term:  int32(len(g.Nodes)) + (er.term - er.start),
			end:   int32(len(g.Nodes)) + (er.end - er.start),
		}
		for _, op := range b.effSlab[er.start:er.end] {
			n := &slab[len(g.Nodes)]
			n.Index = len(g.Nodes)
			n.Op = op
			n.Home = bid
			n.Term = op.IsBranch() || op.Opcode == ir.Ret
			n.Spec = op.Opcode.Speculatable() && !b.isPinned(op)
			g.Nodes = append(g.Nodes, n)
		}
		b.nodeOf[i] = nr
	}
}

// addEdge records from→to unless it would self-loop; duplicate edges are
// harmless (the scheduler takes the max).
func (b *builder) addEdge(from, to *Node, lat int, kind EdgeKind) {
	if from == nil || to == nil || from == to {
		return
	}
	b.recs = append(b.recs, EdgeRec{
		From:    int32(from.Index),
		To:      int32(to.Index),
		Latency: int32(lat),
		Kind:    kind,
	})
}

// attributes computes height, exit count and weight for every node.
func (b *builder) attributes() {
	g := b.g
	// Heights: nodes are in topological order, so one reverse sweep works.
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		n := g.Nodes[i]
		h := 0
		for _, e := range n.Succs {
			if v := e.Latency + e.To.Height; v > h {
				h = v
			}
		}
		n.Height = h
	}
	b.exitsBelow = g.Region.AppendExitsBelow(b.exitsBelow[:0])
	for _, n := range g.Nodes {
		n.ExitCount = b.exitsBelow[g.Region.Pos(n.Home)]
		if b.opts.Profile != nil {
			n.Weight = b.opts.Profile.BlockWeight(n.Home)
		}
	}
}
