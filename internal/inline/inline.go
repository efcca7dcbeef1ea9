// Package inline implements demand-driven inlining in the style of Way &
// Pollock: instead of a separate whole-program inlining phase, the treegion
// former asks the inliner about each block the moment the block is absorbed
// into a growing region. If the block contains a resolved call whose callee
// fits under the configured budgets, the callee's body is spliced into the
// caller right there — and formation keeps absorbing straight through the
// spliced blocks, growing treegions across what used to be a call barrier.
// Calls the inliner declines stay in place as opaque scheduling barriers,
// leaving the compilation bit-identical to the single-function pipeline.
//
// A splice is built to be replayable by the differential interpreter:
//
//   - Spliced clones carry namespaced Orig IDs (ir.OrigStride partitions the
//     ID space per callee), so the branch oracle makes the same decisions for
//     an inlined body as for the callee executing in its own call frame.
//   - The host block is split at the call: the prefix keeps the host's
//     identity and binds the arguments with Copy ops; the continuation block
//     keeps the host's Orig, so the trace records the same "control returns
//     to the caller block" event interp.Runner logs when a real call returns.
//   - Callee registers are renamed into fresh host registers, numbered
//     through the Inliner's ir.Numbering, one fresh set per splice, so two
//     inlined instances of the same callee never interfere.
package inline

import (
	"fmt"

	"treegion/internal/ir"
	"treegion/internal/profile"
)

// Config bounds demand-driven inlining. The zero value disables it.
type Config struct {
	// Enabled turns the pass on; all other fields are ignored when false.
	Enabled bool
	// MaxDepth caps splice nesting: a call found inside an already spliced
	// body inlines only while its depth stays within the cap. Recursive
	// call chains terminate against this bound.
	MaxDepth int
	// MaxCalleeOps and MaxCalleeBlocks cap the static size of a callee body
	// eligible for splicing.
	MaxCalleeOps    int
	MaxCalleeBlocks int
	// ExpansionLimit caps the host function's growth: splicing stops once
	// the function would exceed ExpansionLimit × its pre-formation op count.
	ExpansionLimit float64
}

// DefaultConfig returns the enabled configuration used by the experiments:
// depth 3, callee bodies up to 48 ops / 12 blocks, 3× code expansion.
func DefaultConfig() Config {
	return Config{Enabled: true, MaxDepth: 3, MaxCalleeOps: 48, MaxCalleeBlocks: 12, ExpansionLimit: 3.0}
}

// withDefaults mirrors the formers' defaulting so a caller can enable
// inlining without filling in every knob.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxDepth <= 0 {
		c.MaxDepth = d.MaxDepth
	}
	if c.MaxCalleeOps <= 0 {
		c.MaxCalleeOps = d.MaxCalleeOps
	}
	if c.MaxCalleeBlocks <= 0 {
		c.MaxCalleeBlocks = d.MaxCalleeBlocks
	}
	if c.ExpansionLimit < 1 {
		c.ExpansionLimit = d.ExpansionLimit
	}
	return c
}

// Fingerprint renders the budget knobs for configuration fingerprints.
func (c Config) Fingerprint() string {
	c = c.withDefaults()
	return fmt.Sprintf("%d-%d-%d-%g", c.MaxDepth, c.MaxCalleeOps, c.MaxCalleeBlocks, c.ExpansionLimit)
}

// Env is the interprocedural context of one function compile: the resolved
// program and the per-function standalone profiles (parallel to Prog.Funcs).
// Both hold the original, unmutated inputs; splices clone out of them.
type Env struct {
	Prog     *ir.Program
	Profiles []*profile.Data
}

// entryWeight returns how many profiled trips entered function fi — the
// denominator that turns the callee's standalone profile into per-invocation
// weight.
func (e *Env) entryWeight(fi int) float64 {
	if fi < 0 || fi >= len(e.Profiles) || e.Profiles[fi] == nil {
		return 0
	}
	return e.Profiles[fi].BlockWeight(e.Prog.Funcs[fi].Entry)
}

// Splice records one performed inline for the verifier and telemetry.
type Splice struct {
	// Callee names the inlined function; CalleeIndex is its program index.
	Callee      string
	CalleeIndex int
	// Depth is the splice's nesting level (1 = a call in original caller
	// code, 2 = a call found inside a depth-1 splice, ...).
	Depth int
	// Host is the block the call lived in (it keeps its ID as the prefix),
	// Entry the clone of the callee's entry block, Cont the continuation
	// block carrying the host's post-call ops (and the host's Orig).
	Host  ir.BlockID
	Entry ir.BlockID
	Cont  ir.BlockID
	// Blocks lists the spliced clones in callee block order (Cont excluded).
	Blocks []ir.BlockID
	// Ops counts the ops added by this splice (clones plus binding copies).
	Ops int
}

// Stats summarizes one function's inlining for reporting and verification.
// The Config rides along so the verifier can re-check the depth cap (CL003)
// against exactly the budgets the compiler used.
type Stats struct {
	Config Config
	// Inlined counts performed splices; InlinedOps the ops they added.
	Inlined    int
	InlinedOps int
	// Declined* count calls left as barriers, by the first budget they
	// failed.
	DeclinedDepth   int
	DeclinedSize    int
	DeclinedBudget  int
	DeclinedGuarded int
	DeclinedShape   int
	// Splices records every performed splice for the CL verifier rules.
	Splices []Splice
}

// Declined sums the decline counters.
func (s Stats) Declined() int {
	return s.DeclinedDepth + s.DeclinedSize + s.DeclinedBudget + s.DeclinedGuarded + s.DeclinedShape
}

// Add folds o into s (for program-level aggregation). Splice records are
// concatenated in call order.
func (s Stats) Add(o Stats) Stats {
	s.Inlined += o.Inlined
	s.InlinedOps += o.InlinedOps
	s.DeclinedDepth += o.DeclinedDepth
	s.DeclinedSize += o.DeclinedSize
	s.DeclinedBudget += o.DeclinedBudget
	s.DeclinedGuarded += o.DeclinedGuarded
	s.DeclinedShape += o.DeclinedShape
	s.Splices = append(s.Splices, o.Splices...)
	if s.Config == (Config{}) {
		s.Config = o.Config
	}
	return s
}

// Inliner performs demand-driven splices into one working function. It
// implements the region formers' core.BlockRewriter hook.
type Inliner struct {
	cfg  Config
	env  *Env
	fn   *ir.Function
	prof *profile.Data
	// budgetOps is the op-count ceiling: ExpansionLimit × pre-formation size.
	budgetOps int
	// depth tracks the splice nesting of blocks created by splices; absent
	// means original caller code (depth 0).
	depth map[ir.BlockID]int
	stats Stats
	// num numbers a callee's registers and fresh holds the host register
	// minted for each slot; both serve one splice at a time.
	num   ir.Numbering
	fresh []ir.Reg
}

// New builds an inliner over the working function fn and its (mutable)
// profile prof, resolving callees against env. It returns nil when the
// configuration disables inlining or no program context is available, so
// callers can pass the result straight to the formers.
func New(cfg Config, env *Env, fn *ir.Function, prof *profile.Data) *Inliner {
	if !cfg.Enabled || env == nil || env.Prog == nil || prof == nil {
		return nil
	}
	cfg = cfg.withDefaults()
	return &Inliner{
		cfg:       cfg,
		env:       env,
		fn:        fn,
		prof:      prof,
		budgetOps: int(cfg.ExpansionLimit * float64(fn.NumOps())),
		depth:     make(map[ir.BlockID]int),
		stats:     Stats{Config: cfg},
	}
}

// Stats returns the splice/decline record accumulated so far.
func (in *Inliner) Stats() Stats { return in.stats }

// RewriteBlock is the formation hook: it scans block bid for resolved calls
// and splices the first eligible one (everything after the call, including
// any later calls, moves to the continuation block, which formation will
// absorb and hand back to this hook in turn). It reports whether the
// function was mutated — the caller must then refresh its CFG bookkeeping
// for bid's successors and the appended blocks.
func (in *Inliner) RewriteBlock(bid ir.BlockID) bool {
	b := in.fn.Block(bid)
	d := in.depth[bid]
	for i, op := range b.Ops {
		if op.Opcode != ir.Call || op.Callee == "" {
			continue
		}
		ci := in.env.Prog.Index(op.Callee)
		if ci < 0 {
			in.stats.DeclinedShape++
			continue
		}
		if !in.eligible(op, ci, d) {
			continue
		}
		in.splice(b, i, op, ci, d)
		return true
	}
	return false
}

// eligible applies the budgets to one candidate call, counting the first
// failed test. Calls under an if-conversion guard are never spliced — an
// unconditionally spliced body cannot reproduce squash semantics.
func (in *Inliner) eligible(op *ir.Op, ci, depth int) bool {
	if op.Guarded() {
		in.stats.DeclinedGuarded++
		return false
	}
	if depth+1 > in.cfg.MaxDepth {
		in.stats.DeclinedDepth++
		return false
	}
	callee := in.env.Prog.Funcs[ci]
	if callee.NumOps() > in.cfg.MaxCalleeOps || len(callee.Blocks) > in.cfg.MaxCalleeBlocks {
		in.stats.DeclinedSize++
		return false
	}
	// The callee must return (a body with no RET would leave the
	// continuation unreachable) and must have been profiled (the entry
	// weight scales the spliced profile).
	hasRet := false
	for _, cb := range callee.Blocks {
		for _, cop := range cb.Ops {
			if cop.Opcode == ir.Ret {
				hasRet = true
			}
		}
	}
	if !hasRet || in.env.entryWeight(ci) <= 0 {
		in.stats.DeclinedShape++
		return false
	}
	// Binding copies (arguments in the prefix, returns in each RET clone)
	// count against the expansion budget along with the body.
	added := callee.NumOps() + len(op.Srcs) + len(op.Dests)
	if in.fn.NumOps()+added > in.budgetOps {
		in.stats.DeclinedBudget++
		return false
	}
	return true
}

// splice inlines the call at b.Ops[i] (known eligible): it splits b at the
// call, clones the callee body with namespaced Origs and renamed registers,
// and rewires profile weights so downstream measurement sees the inlined
// execution.
func (in *Inliner) splice(b *ir.Block, i int, call *ir.Op, ci, d int) {
	fn := in.fn
	callee := in.env.Prog.Funcs[ci]
	base := in.env.Prog.OrigBase(ci)
	calleeProf := in.env.Profiles[ci]
	w := in.prof.BlockWeight(b.ID)
	scale := w / in.env.entryWeight(ci)

	// The host's outgoing edges (branches after the call plus fallthrough)
	// transfer to the continuation; snapshot them before the split.
	oldSuccs := b.Succs()

	// Continuation: the host's post-call tail. It keeps the host's Orig so
	// the block trace logs the caller resuming, exactly like a real return.
	cont := fn.NewBlock()
	cont.Orig = b.Orig
	cont.FallThrough = b.FallThrough
	cont.Ops = append([]*ir.Op(nil), b.Ops[i+1:]...)

	// Clone the callee's blocks under fresh IDs and namespaced Origs.
	idMap := make([]ir.BlockID, len(callee.Blocks))
	clones := make([]*ir.Block, len(callee.Blocks))
	for j, cb := range callee.Blocks {
		nb := fn.NewBlock()
		nb.Orig = ir.BlockID(base) + cb.Orig
		idMap[j] = nb.ID
		clones[j] = nb
	}

	// One fresh register set per splice, minted in order of first sight:
	// distinct inlined instances of the same callee never share a name, so
	// they cannot clobber each other.
	in.num.Reset()
	in.fresh = in.fresh[:0]
	rename := func(r ir.Reg) ir.Reg {
		if !r.IsValid() {
			return r
		}
		s := in.num.Slot(r)
		if int(s) == len(in.fresh) {
			in.fresh = append(in.fresh, fn.NewReg(r.Class))
		}
		return in.fresh[s]
	}
	renameAll := func(rs []ir.Reg) []ir.Reg {
		if len(rs) == 0 {
			return nil
		}
		out := make([]ir.Reg, len(rs))
		for k, r := range rs {
			out[k] = rename(r)
		}
		return out
	}

	splicedOps := 0
	emit := func(nb *ir.Block, opc ir.Opcode) *ir.Op {
		op := fn.NewOp(opc)
		nb.Ops = append(nb.Ops, op)
		splicedOps++
		return op
	}
	for j, cb := range callee.Blocks {
		nb := clones[j]
		if cb.FallThrough != ir.NoBlock {
			nb.FallThrough = idMap[cb.FallThrough]
		}
		returns := false
		for _, sop := range cb.Ops {
			if sop.Opcode == ir.Ret {
				// The RET becomes a fallthrough to the continuation; any ops
				// after it were unreachable and are dropped with it.
				returns = true
				break
			}
			no := fn.NewOp(sop.Opcode)
			id := no.ID
			*no = *sop
			no.ID = id
			no.Orig = base + sop.Orig
			no.Dests = renameAll(sop.Dests)
			no.Srcs = renameAll(sop.Srcs)
			no.Guard = rename(sop.Guard)
			if no.IsBranch() || no.Opcode == ir.Pbr {
				no.Target = idMap[sop.Target]
			}
			nb.Ops = append(nb.Ops, no)
			splicedOps++
		}
		if returns {
			// Bind the callee's return registers into the call's
			// destinations, then fall through to the caller's continuation.
			for k, dst := range call.Dests {
				cp := emit(nb, ir.Copy)
				cp.Dests = []ir.Reg{dst}
				cp.Srcs = []ir.Reg{rename(callee.Rets[k])}
			}
			nb.FallThrough = cont.ID
		}
	}

	// Split the host: the prefix keeps everything before the call, drops the
	// call itself, binds the arguments to the renamed parameters, and falls
	// through into the spliced entry. The full slice expression pins the
	// prefix's capacity so appending copies cannot scribble over the tail
	// that now lives in cont.
	b.Ops = b.Ops[:i:i]
	for k, p := range callee.Params {
		cp := emit(b, ir.Copy)
		cp.Dests = []ir.Reg{rename(p)}
		cp.Srcs = []ir.Reg{call.Srcs[k]}
	}
	b.FallThrough = idMap[callee.Entry]

	// Profile: the callee's standalone weights scale by invocations-per-trip
	// onto the clones; the host's out-edge weights move to the continuation.
	for j, cb := range callee.Blocks {
		if bw := calleeProf.BlockWeight(cb.ID); bw != 0 {
			in.prof.AddBlock(idMap[j], scale*bw)
		}
		for _, s := range cb.Succs() {
			if ew := calleeProf.EdgeWeight(cb.ID, s); ew != 0 {
				in.prof.AddEdge(idMap[cb.ID], idMap[s], scale*ew)
			}
		}
		if clones[j].FallThrough == cont.ID {
			if bw := calleeProf.BlockWeight(cb.ID); bw != 0 {
				in.prof.AddEdge(idMap[j], cont.ID, scale*bw)
			}
		}
	}
	for _, s := range oldSuccs {
		if ew := in.prof.EdgeWeight(b.ID, s); ew != 0 {
			delete(in.prof.Edge, profile.Edge{From: b.ID, To: s})
			in.prof.AddEdge(cont.ID, s, ew)
		}
	}
	if w != 0 {
		in.prof.AddBlock(cont.ID, w)
		in.prof.AddEdge(b.ID, idMap[callee.Entry], w)
	}

	for _, nb := range clones {
		in.depth[nb.ID] = d + 1
	}
	in.depth[cont.ID] = d

	in.stats.Inlined++
	in.stats.InlinedOps += splicedOps
	in.stats.Splices = append(in.stats.Splices, Splice{
		Callee:      call.Callee,
		CalleeIndex: ci,
		Depth:       d + 1,
		Host:        b.ID,
		Entry:       idMap[callee.Entry],
		Cont:        cont.ID,
		Blocks:      idMap,
		Ops:         splicedOps,
	})
}
