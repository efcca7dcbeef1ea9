package ddg

import (
	"treegion/internal/ir"
	"treegion/internal/machine"
)

// dataEdges walks the region tree and adds register and memory dependence
// edges. Reaching definitions, readers-since-definition, and memory state
// are scoped to the current root-to-leaf path with an undo log, so sibling
// paths never see each other's definitions — only one of them executes, and
// cross-path write conflicts were already resolved by renaming (or are
// non-speculatable ops guarded by disjoint predicates).
//
// The state lives in per-register stacks over the region-local register
// numbering: the reaching definitions of r are the top defLen[r]-defBase[r]
// entries of its definition stack. A killing definition raises the base
// (hiding everything below), a joining one just pushes, and the undo log
// records the previous base/length pair so block exit restores the parent
// path's view by truncation — no maps, no closure captures, and the stack
// memory is reused across builds.
func (b *builder) dataEdges() {
	w := &b.w
	w.b, w.nodes = b, b.g.Nodes
	b.prepWalker()
	w.walk(b.g.Region.Root)
}

// prepWalker numbers every register the region's nodes mention (renamed
// registers included) and sizes every walker stack from the region's ops
// instead of letting appends grow them: one counting pass over the nodes
// bounds each register's def stack by its total destination occurrences,
// its reader stack by its total source occurrences, and the undo log by the
// total event count — a path can only push what the whole region contains,
// so the bounds hold for every root-to-leaf walk. The stacks are then laid
// out back to back in one index slab, so the walk itself never allocates.
// They hold node indices, not pointers, and the per-register tables are
// offsets and lengths: nothing here is visible to the garbage collector.
func (b *builder) prepWalker() {
	w := &b.w
	for _, nd := range b.g.Nodes {
		op := nd.Op
		for _, s := range op.Srcs {
			b.num.Slot(s)
		}
		if op.Guarded() {
			b.num.Slot(op.Guard)
		}
		for _, d := range op.Dests {
			b.num.Slot(d)
		}
	}
	nr := b.num.Len()
	// Count into the length tables, then turn counts into offsets.
	w.defLen = growClear(w.defLen, nr)
	w.rdLen = growClear(w.rdLen, nr)
	undoCap, loadCap := 0, 0
	for _, nd := range b.g.Nodes {
		op := nd.Op
		for _, s := range op.Srcs {
			if r := b.num.Lookup(s); r >= 0 {
				w.rdLen[r]++
				undoCap++
			}
		}
		if op.Guarded() {
			if r := b.num.Lookup(op.Guard); r >= 0 {
				w.rdLen[r]++
				undoCap++
			}
		}
		switch op.Opcode {
		case ir.Ld:
			loadCap++
			undoCap++
		case ir.St, ir.Call:
			undoCap++
		}
		for _, d := range op.Dests {
			if r := b.num.Lookup(d); r >= 0 {
				w.defLen[r]++
				undoCap++
			}
		}
	}
	w.defOff = grow(w.defOff, nr)
	w.rdOff = grow(w.rdOff, nr)
	w.defBase = growClear(w.defBase, nr)
	w.rdBase = growClear(w.rdBase, nr)
	off := int32(0)
	for r := 0; r < nr; r++ {
		w.defOff[r] = off
		off += w.defLen[r]
		w.rdOff[r] = off
		off += w.rdLen[r]
		w.defLen[r], w.rdLen[r] = 0, 0
	}
	w.slab = grow(w.slab, int(off))
	w.undo = grow(w.undo, undoCap)[:0]
	w.loads = grow(w.loads, loadCap)[:0]
	w.loadsBase = 0
	w.lastStore = nil
}

// walker undo-record kinds.
const (
	undoSetDef uint8 = iota // a,b = def base,len; c,d = reader base,len
	undoAddDef              // a = def len
	undoReader              // a = reader len
	undoStore               // a,b = loads base,len; store = previous lastStore
	undoLoad                // a = loads len
)

type undoRec struct {
	kind       uint8
	reg        int32
	a, b, c, d int32
	store      *Node
}

type walker struct {
	b     *builder
	nodes []*Node // g.Nodes — the stacks below hold indices into it

	// Per region-local register: the definition stack is
	// slab[defOff[r]:defOff[r]+defLen[r]], of which entries from defBase[r]
	// on are the reaching definitions; the reader stack likewise, holding
	// the readers since those definitions.
	defOff, defLen, defBase []int32
	rdOff, rdLen, rdBase    []int32
	slab                    []int32

	lastStore *Node
	loads     []int32 // loads since the last store (node indices)
	loadsBase int32

	undo []undoRec
}

func (w *walker) walk(bid ir.BlockID) {
	mark := len(w.undo)
	for _, n := range w.b.blockNodes(bid) {
		w.visit(n)
	}
	for _, c := range w.b.g.Region.Children(bid) {
		w.walk(c)
	}
	// Roll back this block's effects before the caller visits a sibling.
	for len(w.undo) > mark {
		u := w.undo[len(w.undo)-1]
		w.undo = w.undo[:len(w.undo)-1]
		switch u.kind {
		case undoSetDef:
			w.defBase[u.reg] = u.a
			w.defLen[u.reg] = u.b
			w.rdBase[u.reg] = u.c
			w.rdLen[u.reg] = u.d
		case undoAddDef:
			w.defLen[u.reg] = u.a
		case undoReader:
			w.rdLen[u.reg] = u.a
		case undoStore:
			w.loadsBase = u.a
			w.loads = w.loads[:u.b]
			w.lastStore = u.store
		case undoLoad:
			w.loads = w.loads[:u.a]
		}
	}
}

// reaching returns r's reaching definitions; readers returns r's readers
// since them. Both are node indices.
func (w *walker) reaching(r int32) []int32 {
	return w.slab[w.defOff[r]+w.defBase[r] : w.defOff[r]+w.defLen[r]]
}

func (w *walker) readers(r int32) []int32 {
	return w.slab[w.rdOff[r]+w.rdBase[r] : w.rdOff[r]+w.rdLen[r]]
}

// setDef records an unguarded (killing) definition.
func (w *walker) setDef(r int32, n *Node) {
	w.undo = append(w.undo, undoRec{
		kind: undoSetDef, reg: r,
		a: w.defBase[r], b: w.defLen[r],
		c: w.rdBase[r], d: w.rdLen[r],
	})
	w.defBase[r] = w.defLen[r]
	w.pushDef(r, n)
	w.rdBase[r] = w.rdLen[r]
}

// addDef records a guarded (non-killing) definition: previous definitions
// still reach, and their readers stay visible.
func (w *walker) addDef(r int32, n *Node) {
	w.undo = append(w.undo, undoRec{kind: undoAddDef, reg: r, a: w.defLen[r]})
	w.pushDef(r, n)
}

func (w *walker) pushDef(r int32, n *Node) {
	w.slab[w.defOff[r]+w.defLen[r]] = int32(n.Index)
	w.defLen[r]++
}

func (w *walker) addReader(r int32, n *Node) {
	w.undo = append(w.undo, undoRec{kind: undoReader, reg: r, a: w.rdLen[r]})
	w.slab[w.rdOff[r]+w.rdLen[r]] = int32(n.Index)
	w.rdLen[r]++
}

func (w *walker) setStore(n *Node) {
	w.undo = append(w.undo, undoRec{
		kind: undoStore,
		a:    w.loadsBase, b: int32(len(w.loads)),
		store: w.lastStore,
	})
	w.lastStore = n
	w.loadsBase = int32(len(w.loads))
}

func (w *walker) addLoad(n *Node) {
	w.undo = append(w.undo, undoRec{kind: undoLoad, a: int32(len(w.loads))})
	w.loads = append(w.loads, int32(n.Index))
}

// visitSrc adds flow dependences from the reaching definitions of s and
// books n as a reader of s.
func (w *walker) visitSrc(s ir.Reg, n *Node) {
	r := w.b.num.Lookup(s)
	if r < 0 {
		return
	}
	for _, di := range w.reaching(r) {
		def := w.nodes[di]
		w.b.addEdge(def, n, machine.Latency(def.Op.Opcode), EdgeData)
	}
	w.addReader(r, n)
}

func (w *walker) visit(n *Node) {
	op := n.Op
	// Flow dependences and reader bookkeeping; the guard predicate is a
	// source like any other.
	for _, s := range op.Srcs {
		w.visitSrc(s, n)
	}
	if op.Guarded() {
		w.visitSrc(op.Guard, n)
	}
	// Memory ordering: serialized, with PlayDoh same-cycle allowance.
	switch op.Opcode {
	case ir.Ld:
		if w.lastStore != nil {
			w.b.addEdge(w.lastStore, n, 0, EdgeMem)
		}
		w.addLoad(n)
	case ir.St, ir.Call:
		if w.lastStore != nil {
			w.b.addEdge(w.lastStore, n, 0, EdgeMem)
		}
		for _, li := range w.loads[w.loadsBase:] {
			w.b.addEdge(w.nodes[li], n, 0, EdgeMem)
		}
		w.setStore(n)
	}
	// Anti and output dependences, then the new definitions.
	for _, d := range op.Dests {
		r := w.b.num.Lookup(d)
		if r < 0 {
			continue
		}
		for _, ri := range w.readers(r) {
			w.b.addEdge(w.nodes[ri], n, 0, EdgeData)
		}
		for _, di := range w.reaching(r) {
			w.b.addEdge(w.nodes[di], n, 1, EdgeData)
		}
	}
	for _, d := range op.Dests {
		r := w.b.num.Lookup(d)
		if r < 0 {
			continue
		}
		if op.Guarded() {
			w.addDef(r, n)
		} else {
			w.setDef(r, n)
		}
	}
}

// controlEdges adds the edges that encode branch semantics (see the package
// comment's table).
//
// Ops may also sink below branches (downward code motion): an op is ordered
// before an exit branch only when the exit actually needs it — the op is
// non-speculatable (it must execute whenever its block does), or one of its
// destinations is live into the exit's target. Ops dead at an exit float
// past it into the surviving paths.
func (b *builder) controlEdges() {
	r := b.g.Region
	for _, bid := range r.Blocks {
		body, terms := b.bodyNodes(bid), b.termNodes(bid)
		// Non-speculatable ops issue no later than their block's
		// terminators (a store executes before control can leave). A block
		// with no terminators of its own falls through to a single child,
		// so the constraint attaches to the nearest descendant terminators
		// instead. Multiway arms keep their priority order.
		downTerms := terms
		if len(downTerms) == 0 {
			downTerms = b.nearestDescendantTerms(bid)
		}
		for _, n := range body {
			if !n.Spec {
				for _, t := range downTerms {
					b.addEdge(n, t, 0, EdgeControl)
				}
			}
		}
		for i := 0; i+1 < len(terms); i++ {
			b.addEdge(terms[i], terms[i+1], 0, EdgeControl)
		}
		// Control resolution: entering this block is decided by the branch
		// that targets it (for an arm entry, later arms of the parent never
		// execute on this path) or, for a fallthrough entry, by the
		// parent's last branch. Terminators are ordered at it; ops that
		// cannot speculate issue strictly after it.
		if res := b.resolver(bid); res != nil {
			for _, t := range terms {
				b.addEdge(res, t, 0, EdgeControl)
			}
			for _, n := range body {
				if n.Spec {
					continue // speculation: free to hoist
				}
				b.addEdge(res, n, 1, EdgeControl)
			}
		}
	}
	b.liveExitEdges()
}

// resolver returns the branch node whose resolution admits control into
// bid: the parent's branch targeting bid, or for fallthrough entries the
// parent's last branch (climbing past branchless ancestors). It returns
// nil at the region root.
func (b *builder) resolver(bid ir.BlockID) *Node {
	r := b.g.Region
	cur := bid
	for {
		parent := r.Parent(cur)
		if parent == ir.NoBlock {
			return nil
		}
		var last *Node
		for _, n := range b.termNodes(parent) {
			if n.Op.IsBranch() && n.Op.Target == cur {
				return n // arm entry
			}
			last = n
		}
		if last != nil {
			return last // fallthrough entry: every branch checked first
		}
		cur = parent // branchless block: climb
	}
}

// liveExitEdges orders each value-producing op before every region-exit
// branch (in its own block or its subtree) whose target path still needs
// the value.
func (b *builder) liveExitEdges() {
	r := b.g.Region
	lv := b.opts.Liveness
	for _, bid := range r.Blocks {
		b.subtreeBuf = b.g.Region.AppendSubtree(b.subtreeBuf[:0], bid)
		sub := b.subtreeBuf
		for _, n := range b.bodyNodes(bid) {
			op := n.Op
			if len(op.Dests) == 0 {
				continue
			}
			for _, d := range sub {
				for _, t := range b.termNodes(d) {
					br := t.Op
					if !br.IsBranch() {
						continue
					}
					if r.IsTreeEdge(d, br.Target) {
						continue // tree edge, not an exit
					}
					for _, dst := range op.Dests {
						if dst.IsValid() && lv.LiveIn[br.Target].Has(dst) {
							b.addEdge(n, t, 0, EdgeLive)
							break
						}
					}
				}
			}
		}
	}
}

// nearestDescendantTerms descends the fallthrough chain from a
// terminator-less block to the first block that has terminators (a
// terminator-less block has at most one in-region child) and returns them.
func (b *builder) nearestDescendantTerms(bid ir.BlockID) []*Node {
	r := b.g.Region
	cur := bid
	for {
		ch := r.Children(cur)
		if len(ch) != 1 {
			return nil
		}
		cur = ch[0]
		if terms := b.termNodes(cur); len(terms) > 0 {
			return terms
		}
	}
}
