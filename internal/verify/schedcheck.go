package verify

import (
	"fmt"
	"slices"

	"treegion/internal/cfg"
	"treegion/internal/ddg"
	"treegion/internal/ir"
	"treegion/internal/machine"
	"treegion/internal/region"
	"treegion/internal/sched"
)

// Schedule-legality rules. The verifier proves legality twice over: every
// DDG edge the scheduler consumed is checked against the cycle assignment
// (a scheduler bug cannot hide), and the register, memory and control
// constraints are re-derived from the IR and the region tree without
// consulting the graph's edges at all (a graph-builder bug cannot hide
// either).
//
//	SC001  a node is unscheduled, or schedules/regions are mismatched
//	SC002  a register dependence (flow, anti, output) is violated
//	SC003  a cycle issues more ops than the machine's width
//	SC004  serialized memory ordering is violated (a load bypassed a store)
//	SC005  a speculated op clobbers a value observable on an off-path
//	       successor (the paper's renaming obligation, Section 3)
//	SC006  terminators are out of priority order or precede their resolver
//	SC007  a non-speculatable op escapes its control window
//	SC008  a value producer issues after a region exit that needs the value

// CheckSchedule verifies one region's schedule. lv must be liveness over
// the function's current (post-compilation) shape. It runs on a fresh
// Scratch; CompiledScratch checks every region of a function on one.
func CheckSchedule(fn *ir.Function, r *region.Region, s *sched.Schedule, lv *cfg.Liveness) []Diagnostic {
	return new(Scratch).checkSchedule(fn, r, s, lv)
}

// checkSchedule is CheckSchedule on the scratch's tables.
func (sc *Scratch) checkSchedule(fn *ir.Function, r *region.Region, s *sched.Schedule, lv *cfg.Liveness) []Diagnostic {
	c := &sc.sched
	c.num = &sc.regs
	if c.begin(fn, r, s, lv) {
		c.width()
		c.edgeConformance()
		c.pathDependences()
		c.controlWindows()
		c.liveExits()
		c.offPathClobbers()
	}
	ds := c.ds
	c.finish()
	return ds
}

// begin readies c for one region: it groups the schedule's nodes by home
// block, reporting SC001 for unscheduled nodes. It reports false, with the
// SC001 that says why, when the schedule cannot be checked at all.
func (c *schedChecker) begin(fn *ir.Function, r *region.Region, s *sched.Schedule, lv *cfg.Liveness) bool {
	c.fn, c.r, c.s, c.lv, c.ds = fn, r, s, lv, nil
	if len(c.seen) > 0 {
		clear(c.seen)
	}
	if s == nil || s.Graph == nil {
		c.addAt("SC001", Error, ir.NoBlock, -1, "region at bb%d has no schedule", r.Root)
		return false
	}
	c.g = s.Graph
	if c.g.Region != r {
		c.addAt("SC001", Error, ir.NoBlock, -1, "schedule belongs to a different region (root bb%d, want bb%d)",
			c.g.Region.Root, r.Root)
		return false
	}
	if len(s.Cycle) != len(c.g.Nodes) {
		c.addAt("SC001", Error, ir.NoBlock, -1, "%d cycle assignments for %d nodes", len(s.Cycle), len(c.g.Nodes))
		return false
	}
	// A counting sort over home positions, stable in Index order. A node
	// homed outside the region is grouped nowhere: every lookup is by a
	// member block.
	nb := len(r.Blocks)
	pos := func(n *ddg.Node) int {
		if p := r.Pos(n.Home); p < nb {
			return p
		}
		return -1
	}
	c.nodeOff = growClear(c.nodeOff, nb+1)
	c.termOff = growClear(c.termOff, nb+1)
	for _, n := range c.g.Nodes {
		if s.Cycle[n.Index] < 0 {
			c.addNode("SC001", Error, n, "%v is unscheduled", n.Op)
		}
		if p := pos(n); p >= 0 {
			c.nodeOff[p+1]++
			if n.Term {
				c.termOff[p+1]++
			}
		}
	}
	for p := 0; p < nb; p++ {
		c.nodeOff[p+1] += c.nodeOff[p]
		c.termOff[p+1] += c.termOff[p]
	}
	c.nodes = grow(c.nodes, int(c.nodeOff[nb]))
	c.terms = grow(c.terms, int(c.termOff[nb]))
	c.fill = append(c.fill[:0], c.nodeOff[:nb]...)
	c.fill = append(c.fill, c.termOff[:nb]...)
	nextNode, nextTerm := c.fill[:nb], c.fill[nb:]
	for _, n := range c.g.Nodes {
		p := pos(n)
		if p < 0 {
			continue
		}
		c.nodes[nextNode[p]] = n
		nextNode[p]++
		if n.Term {
			c.terms[nextTerm[p]] = n
			nextTerm[p]++
		}
	}
	return true
}

// finish drops the references to the checked region and its schedule.
// The node buffers are overwritten by the next region, not cleared.
func (c *schedChecker) finish() {
	c.fn, c.r, c.s, c.g, c.lv, c.ds = nil, nil, nil, nil, nil, nil
}

// schedChecker is SC's working state, kept in a Scratch and reused across
// every region it checks.
type schedChecker struct {
	fn  *ir.Function
	r   *region.Region
	s   *sched.Schedule
	g   *ddg.Graph
	lv  *cfg.Liveness
	num *ir.Numbering
	// seen holds the addOnce keys reported in this region; it is made when
	// the first finding is.
	seen map[seenKey]bool
	ds   []Diagnostic

	// The nodes homed at r.Blocks[p] are nodes[nodeOff[p]:nodeOff[p+1]], in
	// Index order, which is the effective op order the DDG builder derived
	// (body, merged representatives, then terminators); their terminators
	// are terms[termOff[p]:termOff[p+1]], in the same order.
	nodes, terms     []*ddg.Node
	nodeOff, termOff []int32
	fill             []int32 // the counting sort's cursors
	// The region-exit branches from r.Blocks[p] are exits[exitOff[p]:exitOff[p+1]].
	exits   []exitBr
	exitOff []int32
	// Block lists: one root-to-leaf path, one subtree.
	path, sub []ir.BlockID
	// width's buffer: the scheduled cycles, sorted.
	cycles []int
	loads  []*ddg.Node
	p      pathState
}

// seenKey identifies one reported finding for addOnce: a rule and the two
// IDs it relates.
type seenKey struct {
	rule string
	a, b int
}

// exitBr is a region-exit branch and its target.
type exitBr struct {
	n      *ddg.Node
	target ir.BlockID
}

// byBlock returns the nodes homed at bid, in Index order.
func (c *schedChecker) byBlock(bid ir.BlockID) []*ddg.Node { return c.group(c.nodes, c.nodeOff, bid) }

// termsOf returns bid's terminators, in effective order.
func (c *schedChecker) termsOf(bid ir.BlockID) []*ddg.Node { return c.group(c.terms, c.termOff, bid) }

// group returns bid's range of a slab grouped by preorder position.
func (c *schedChecker) group(slab []*ddg.Node, off []int32, bid ir.BlockID) []*ddg.Node {
	if p := c.r.Pos(bid); p >= 0 && p+1 < len(off) {
		return slab[off[p]:off[p+1]]
	}
	return nil
}

func (c *schedChecker) cyc(n *ddg.Node) int { return c.s.Cycle[n.Index] }

// early reports whether to issues fewer than lat cycles after from. It
// compares the difference of the cycles, which are both scheduled and so
// non-negative: cyc(from)+lat would wrap for a cycle near math.MaxInt.
func (c *schedChecker) early(from, to *ddg.Node, lat int) bool {
	return c.cyc(to)-c.cyc(from) < lat
}

// ok reports that a node is scheduled; unscheduled nodes already carry an
// SC001 and are excluded from every other rule.
func (c *schedChecker) ok(n *ddg.Node) bool { return c.cyc(n) >= 0 }

func (c *schedChecker) addAt(rule string, sev Severity, b ir.BlockID, op int, format string, args ...interface{}) {
	c.ds = append(c.ds, Diagnostic{
		Rule: rule, Severity: sev, Fn: c.fn.Name, Block: b, Op: op,
		Message: fmt.Sprintf(format, args...),
	})
}

func (c *schedChecker) addNode(rule string, sev Severity, n *ddg.Node, format string, args ...interface{}) {
	c.addAt(rule, sev, n.Home, n.Op.ID, format, args...)
}

// firstSight records k and reports whether it is new.
func (c *schedChecker) firstSight(k seenKey) bool {
	if c.seen[k] {
		return false
	}
	if c.seen == nil {
		c.seen = make(map[seenKey]bool)
	}
	c.seen[k] = true
	return true
}

// addOnce suppresses duplicates: path walks revisit shared tree prefixes, so
// the same violated pair shows up once per leaf otherwise.
func (c *schedChecker) addOnce(rule string, from, to *ddg.Node, format string, args ...interface{}) {
	if c.firstSight(seenKey{rule, from.Op.ID, to.Op.ID}) {
		c.addNode(rule, Error, to, format, args...)
	}
}

// width checks SC003: per-cycle issue counts against the model, reported
// in cycle order. Renaming copies are slot-free by the paper's accounting
// and do not count.
func (c *schedChecker) width() {
	if cap(c.cycles) < len(c.g.Nodes) {
		c.cycles = make([]int, 0, len(c.g.Nodes)) // one allocation on a fresh Scratch
	}
	cycles := c.cycles[:0]
	for _, n := range c.g.Nodes {
		if c.ok(n) && !n.IsCopy() {
			cycles = append(cycles, c.cyc(n))
		}
	}
	slices.Sort(cycles)
	for i := 0; i < len(cycles); {
		j := i + 1
		for j < len(cycles) && cycles[j] == cycles[i] {
			j++
		}
		if k := j - i; k > c.s.Model.IssueWidth {
			c.addAt("SC003", Error, ir.NoBlock, -1,
				"cycle %d issues %d ops on a %d-wide machine", cycles[i], k, c.s.Model.IssueWidth)
		}
		i = j
	}
	c.cycles = cycles
}

// edgeConformance checks the cycle assignment against every edge of the DDG
// the scheduler actually consumed, mapping each violated edge to the rule
// its kind encodes.
func (c *schedChecker) edgeConformance() {
	for _, n := range c.g.Nodes {
		if !c.ok(n) {
			continue
		}
		for _, e := range n.Succs {
			if !c.ok(e.To) || !c.early(n, e.To, e.Latency) {
				continue
			}
			rule := "SC002"
			switch e.Kind {
			case ddg.EdgeMem:
				rule = "SC004"
			case ddg.EdgeControl:
				rule = "SC007"
				if n.Term && e.To.Term {
					rule = "SC006"
				}
			case ddg.EdgeLive:
				rule = "SC008"
			}
			c.addOnce(rule, n, e.To,
				"%s edge violated: %v (cycle %d) -> %v (cycle %d) needs latency %d",
				e.Kind, n.Op, c.cyc(n), e.To.Op, c.cyc(e.To), e.Latency)
		}
	}
}

// pathDependences re-derives the register and memory constraints (SC002,
// SC004) along every root-to-leaf path, mirroring the semantics the DDG
// walker encodes but sharing none of its code or edges: reaching
// definitions (guarded definitions join, unguarded ones kill), readers
// since definition, and the serialized memory state.
//
// Registers are numbered once per region, in order of first sight, and
// each node's operands are decoded to those slots up front; the per-leaf
// walks then run over slot-indexed slices, reset between leaves through the
// list of slots the previous walk touched.
func (c *schedChecker) pathDependences() {
	p := c.decodeOperands()
	for _, leaf := range c.r.Blocks {
		if !c.r.IsLeaf(leaf) {
			continue
		}
		p.reset()
		var lastStore *ddg.Node
		loads := c.loads[:0]
		c.path = c.r.AppendPathTo(c.path[:0], leaf)
		for _, bid := range c.path {
			for _, n := range c.byBlock(bid) {
				if !c.ok(n) {
					continue
				}
				op := n.Op
				for _, s := range p.srcs(n) {
					for _, def := range p.defs[s] {
						if lat := machine.Latency(def.Op.Opcode); c.early(def, n, lat) {
							c.addOnce("SC002", def, n,
								"%v (cycle %d) reads %v before %v (cycle %d, latency %d) produces it",
								op, c.cyc(n), c.num.Reg(s), def.Op, c.cyc(def), lat)
						}
					}
					p.touch(s)
					p.readers[s] = append(p.readers[s], n)
				}
				switch op.Opcode {
				case ir.Ld:
					if lastStore != nil && c.cyc(n) < c.cyc(lastStore) {
						c.addOnce("SC004", lastStore, n,
							"%v (cycle %d) bypasses %v (cycle %d)", op, c.cyc(n), lastStore.Op, c.cyc(lastStore))
					}
					loads = append(loads, n)
				case ir.St, ir.Call:
					if lastStore != nil && c.cyc(n) < c.cyc(lastStore) {
						c.addOnce("SC004", lastStore, n,
							"%v (cycle %d) bypasses %v (cycle %d)", op, c.cyc(n), lastStore.Op, c.cyc(lastStore))
					}
					for _, ld := range loads {
						if c.cyc(n) < c.cyc(ld) {
							c.addOnce("SC004", ld, n,
								"%v (cycle %d) overtakes %v (cycle %d)", op, c.cyc(n), ld.Op, c.cyc(ld))
						}
					}
					lastStore = n
					loads = loads[:0]
				}
				dests := p.dests(n)
				for _, d := range dests {
					for _, rd := range p.readers[d] {
						if rd != n && c.cyc(n) < c.cyc(rd) {
							c.addOnce("SC002", rd, n,
								"%v (cycle %d) overwrites %v before reader %v (cycle %d)",
								op, c.cyc(n), c.num.Reg(d), rd.Op, c.cyc(rd))
						}
					}
					for _, def := range p.defs[d] {
						if c.early(def, n, 1) {
							c.addOnce("SC002", def, n,
								"%v (cycle %d) does not issue after prior definition %v (cycle %d)",
								op, c.cyc(n), def.Op, c.cyc(def))
						}
					}
				}
				for _, d := range dests {
					p.touch(d)
					if op.Guarded() {
						p.defs[d] = append(p.defs[d], n)
					} else {
						p.defs[d] = append(p.defs[d][:0], n)
						p.readers[d] = p.readers[d][:0]
					}
				}
			}
		}
		c.loads = loads
	}
	c.num.Reset()
}

// pathState is pathDependences' register state over the region's
// first-sight register numbering (the slot's register is c.num.Reg(slot)).
type pathState struct {
	// opSlots holds each node's valid source slots (the guard last, when
	// guarded) then its valid destination slots, at span[n.Index].
	opSlots []int32
	span    []operandSpan
	nreads  []int32       // per slot: reads in the whole region
	ndefs   []int32       // per slot: definitions in the whole region
	defs    [][]*ddg.Node // reaching definitions per slot
	readers [][]*ddg.Node // reads since the last killing definition
	slab    []*ddg.Node   // backs defs and readers
	dirty   []bool
	touched []int32
}

// operandSpan locates one node's operands in opSlots: sources in
// [lo, mid), destinations in [mid, hi).
type operandSpan struct{ lo, mid, hi int32 }

// decodeOperands numbers the region's registers and decodes every node's
// operands to slots. A path reads or defines a register at most as often
// as the whole region does, so each slot's lists are carved from one
// region-wide slab at those sizes and never grow.
func (c *schedChecker) decodeOperands() *pathState {
	nodes := c.g.Nodes
	p := &c.p
	num := c.num
	p.opSlots = p.opSlots[:0]
	p.span = grow(p.span, len(nodes))
	p.nreads, p.ndefs = p.nreads[:0], p.ndefs[:0]
	add := func(r ir.Reg, def bool) {
		if !r.IsValid() {
			return
		}
		s := num.Slot(r)
		if int(s) == len(p.nreads) {
			p.nreads, p.ndefs = append(p.nreads, 0), append(p.ndefs, 0)
		}
		if def {
			p.ndefs[s]++
		} else {
			p.nreads[s]++
		}
		p.opSlots = append(p.opSlots, s)
	}
	for _, n := range nodes {
		sp := &p.span[n.Index]
		sp.lo = int32(len(p.opSlots))
		for _, r := range n.Op.Srcs {
			add(r, false)
		}
		if n.Op.Guarded() {
			add(n.Op.Guard, false)
		}
		sp.mid = int32(len(p.opSlots))
		for _, r := range n.Op.Dests {
			add(r, true)
		}
		sp.hi = int32(len(p.opSlots))
	}
	nregs := num.Len()
	p.defs = grow(p.defs, nregs)
	p.readers = grow(p.readers, nregs)
	p.dirty = growClear(p.dirty, nregs)
	p.slab = grow(p.slab, len(p.opSlots))
	slab := p.slab
	for s := 0; s < nregs; s++ {
		p.readers[s], slab = slab[:0:p.nreads[s]], slab[p.nreads[s]:]
		p.defs[s], slab = slab[:0:p.ndefs[s]], slab[p.ndefs[s]:]
	}
	p.touched = p.touched[:0]
	return p
}

func (p *pathState) srcs(n *ddg.Node) []int32 {
	sp := p.span[n.Index]
	return p.opSlots[sp.lo:sp.mid]
}

func (p *pathState) dests(n *ddg.Node) []int32 {
	sp := p.span[n.Index]
	return p.opSlots[sp.mid:sp.hi]
}

// touch records that slot s carries state the next reset must clear.
func (p *pathState) touch(s int32) {
	if !p.dirty[s] {
		p.dirty[s] = true
		p.touched = append(p.touched, s)
	}
}

// reset clears the state of every touched slot, keeping the slices'
// storage for the next walk.
func (p *pathState) reset() {
	for _, s := range p.touched {
		p.defs[s] = p.defs[s][:0]
		p.readers[s] = p.readers[s][:0]
		p.dirty[s] = false
	}
	p.touched = p.touched[:0]
}

// resolver re-derives the branch whose resolution admits control into bid:
// the parent's branch targeting bid, or the parent's last branch for a
// fallthrough entry, climbing past branchless ancestors. Nil at the root.
func (c *schedChecker) resolver(bid ir.BlockID) *ddg.Node {
	cur := bid
	for {
		parent := c.r.Parent(cur)
		if parent == ir.NoBlock {
			return nil
		}
		var last *ddg.Node
		for _, t := range c.termsOf(parent) {
			if t.Op.IsBranch() && t.Op.Target == cur {
				return t
			}
			last = t
		}
		if last != nil {
			return last
		}
		cur = parent
	}
}

// downTerms re-derives the terminators that bound bid's non-speculatable
// ops from below: the block's own, or — for terminator-less blocks — the
// nearest descendant terminators along the single fallthrough chain.
func (c *schedChecker) downTerms(bid ir.BlockID) []*ddg.Node {
	if ts := c.termsOf(bid); len(ts) > 0 {
		return ts
	}
	cur := bid
	for {
		ch := c.r.Children(cur)
		if len(ch) != 1 {
			return nil
		}
		cur = ch[0]
		if ts := c.termsOf(cur); len(ts) > 0 {
			return ts
		}
	}
}

// controlWindows re-derives SC006 and SC007. Terminators must issue in
// priority (program) order — a multiway branch's arms are tested in
// sequence, so reordering them rewrites the program's control decisions —
// and no terminator may issue before the branch that admits its block.
// Non-speculatable ops (stores, calls, copies) must execute exactly when
// their home block does: strictly after its resolver, no later than its
// terminators.
func (c *schedChecker) controlWindows() {
	for _, bid := range c.r.Blocks {
		terms := c.termsOf(bid)
		for i := 0; i+1 < len(terms); i++ {
			a, b := terms[i], terms[i+1]
			if c.ok(a) && c.ok(b) && c.cyc(b) < c.cyc(a) {
				c.addOnce("SC006", a, b,
					"terminator %v (cycle %d) issues before prior arm %v (cycle %d)",
					b.Op, c.cyc(b), a.Op, c.cyc(a))
			}
		}
		res := c.resolver(bid)
		if res != nil && c.ok(res) {
			for _, t := range terms {
				if c.ok(t) && c.cyc(t) < c.cyc(res) {
					c.addOnce("SC006", res, t,
						"terminator %v (cycle %d) issues before its resolver %v (cycle %d)",
						t.Op, c.cyc(t), res.Op, c.cyc(res))
				}
			}
		}
		down := c.downTerms(bid)
		for _, n := range c.byBlock(bid) {
			if n.Term || !c.ok(n) || n.Op.Opcode.Speculatable() {
				continue
			}
			if res != nil && c.ok(res) && c.early(res, n, 1) {
				c.addOnce("SC007", res, n,
					"non-speculatable %v (cycle %d) issues before control resolves at %v (cycle %d)",
					n.Op, c.cyc(n), res.Op, c.cyc(res))
			}
			for _, t := range down {
				if c.ok(t) && c.cyc(n) > c.cyc(t) {
					c.addOnce("SC007", n, t,
						"non-speculatable %v (cycle %d) issues after its block's terminator %v (cycle %d)",
						n.Op, c.cyc(n), t.Op, c.cyc(t))
				}
			}
		}
	}
}

// liveExits re-derives SC008 from the current liveness: a producer must
// issue no later than any region-exit branch in its subtree whose target
// still reads one of its destinations. (The DDG builder used the
// pre-renaming liveness; recomputed liveness is never larger at exit
// targets — renaming only removes in-region reads — so this cannot flag a
// schedule the builder's edges allowed.)
func (c *schedChecker) liveExits() {
	nb := len(c.r.Blocks)
	c.exits = c.exits[:0]
	c.exitOff = grow(c.exitOff, nb+1)
	for i, bid := range c.r.Blocks {
		c.exitOff[i] = int32(len(c.exits))
		for _, t := range c.termsOf(bid) {
			if t.Op.IsBranch() && !c.r.IsTreeEdge(bid, t.Op.Target) {
				c.exits = append(c.exits, exitBr{t, t.Op.Target})
			}
		}
	}
	c.exitOff[nb] = int32(len(c.exits))
	if len(c.exits) == 0 {
		return
	}
	exitsAt := func(bid ir.BlockID) []exitBr {
		if p := c.r.Pos(bid); p >= 0 && p < nb {
			return c.exits[c.exitOff[p]:c.exitOff[p+1]]
		}
		return nil
	}
	for _, bid := range c.r.Blocks {
		var sub []ir.BlockID
		for _, n := range c.byBlock(bid) {
			if n.Term || !c.ok(n) || len(n.Op.Dests) == 0 {
				continue
			}
			if sub == nil {
				c.sub = c.r.AppendSubtree(c.sub[:0], bid)
				sub = c.sub
			}
			for _, d := range sub {
				for _, e := range exitsAt(d) {
					if !c.ok(e.n) || c.cyc(n) <= c.cyc(e.n) {
						continue
					}
					for _, dst := range n.Op.Dests {
						if dst.IsValid() && c.lv.LiveIn[e.target].Has(dst) {
							c.addOnce("SC008", n, e.n,
								"%v (cycle %d) produces %v after exit %v (cycle %d) whose target bb%d needs it",
								n.Op, c.cyc(n), dst, e.n.Op, c.cyc(e.n), e.target)
							break
						}
					}
				}
			}
		}
	}
}

// offPathClobbers re-derives SC005, the paper's Section 3 obligation: an op
// speculated above a divergence executes on sibling paths too, so its
// destination must not be observable there — not live into the off-path
// successor, and not racing a definition the off-path subtree relies on.
// Renaming discharges the obligation with fresh destinations; this check
// proves it was discharged.
//
// An op n homed at H executes on an off-path successor s of an ancestor A
// iff it was hoisted into the shared stream above every arm admission on
// the way down to H (for each arm-entered block on the path, n issues no
// later than the branch that admits it) and, when s itself is entered by a
// branch, n issues no later than that branch. Fallthrough edges transfer
// control only after the whole stream executes, so they gate nothing.
func (c *schedChecker) offPathClobbers() {
	for _, n := range c.g.Nodes {
		if n.Term || !c.ok(n) || len(n.Op.Dests) == 0 || n.Op.Guarded() {
			continue
		}
		cur := n.Home
		for {
			parent := c.r.Parent(cur)
			if parent == ir.NoBlock {
				break
			}
			// The gate first: if cur is arm-entered and n issues after the
			// admitting branch, n sits in cur's own stream segment and can
			// execute on no sibling path, here or higher — even one whose
			// branch happens to be scheduled later.
			terms := c.termsOf(parent)
			admitted := true
			for _, t := range terms {
				if t.Op.IsBranch() && t.Op.Target == cur && c.r.IsTreeEdge(parent, cur) {
					if !c.ok(t) || c.cyc(n) > c.cyc(t) {
						admitted = false
					}
				}
			}
			if !admitted {
				break
			}
			for _, t := range terms {
				if !t.Op.IsBranch() {
					continue
				}
				tgt := t.Op.Target
				if tgt == cur && c.r.IsTreeEdge(parent, tgt) {
					continue // the on-path edge
				}
				if c.ok(t) && c.cyc(n) <= c.cyc(t) {
					c.clobber(n, parent, tgt)
				}
			}
			if ft := c.fn.Block(parent).FallThrough; ft != ir.NoBlock && ft != cur {
				c.clobber(n, parent, ft)
			}
			cur = parent
		}
	}
}

// clobber reports n's destinations observable on off-path successor s of
// divergence A: live into s, or colliding with a definition inside s's
// subtree that the schedule lets n overwrite.
func (c *schedChecker) clobber(n *ddg.Node, a, s ir.BlockID) {
	for _, d := range n.Op.Dests {
		if !d.IsValid() {
			continue
		}
		if c.lv.LiveIn[s].Has(d) {
			if c.firstSight(seenKey{"SC005", n.Op.ID, int(s)}) {
				c.addNode("SC005", Error, n,
					"speculated %v (cycle %d) clobbers %v, live into off-path bb%d (missing rename copy?)",
					n.Op, c.cyc(n), d, s)
			}
		}
		if !c.r.IsTreeEdge(a, s) {
			continue
		}
		c.sub = c.r.AppendSubtree(c.sub[:0], s)
		for _, sb := range c.sub {
			for _, m := range c.byBlock(sb) {
				if m.Term || !c.ok(m) || c.cyc(m) > c.cyc(n) {
					continue
				}
				for _, md := range m.Op.Dests {
					if md == d {
						c.addOnce("SC005", m, n,
							"speculated %v (cycle %d) overwrites %v after off-path definition %v (cycle %d) in bb%d",
							n.Op, c.cyc(n), d, m.Op, c.cyc(m), sb)
					}
				}
			}
		}
	}
}
