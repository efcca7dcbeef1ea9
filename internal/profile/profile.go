// Package profile holds execution-frequency data for a function: how many
// times each basic block ran and how many times each CFG edge was taken.
// The paper's region formation and three of its four scheduling heuristics
// consume exactly this (IMPACT-style) information; we obtain it from the
// stochastic interpreter in internal/interp instead of SPEC training runs.
package profile

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"treegion/internal/ir"
)

// Edge identifies a CFG edge by its endpoints.
type Edge struct {
	From, To ir.BlockID
}

// Data is a profile: block and edge execution counts.
type Data struct {
	Block map[ir.BlockID]float64
	Edge  map[Edge]float64
}

// New returns an empty profile.
func New() *Data {
	return &Data{
		Block: make(map[ir.BlockID]float64),
		Edge:  make(map[Edge]float64),
	}
}

// Clone returns an independent copy of the profile. Region formers that
// tail duplicate mutate their profile, so each compilation configuration
// works on its own clone.
func (d *Data) Clone() *Data {
	c := New()
	for b, w := range d.Block {
		c.Block[b] = w
	}
	for e, w := range d.Edge {
		c.Edge[e] = w
	}
	return c
}

// BlockWeight returns the execution count of b (0 if never seen).
func (d *Data) BlockWeight(b ir.BlockID) float64 { return d.Block[b] }

// EdgeWeight returns the traversal count of the edge from→to.
func (d *Data) EdgeWeight(from, to ir.BlockID) float64 {
	return d.Edge[Edge{from, to}]
}

// AddBlock accumulates count executions of b.
func (d *Data) AddBlock(b ir.BlockID, count float64) { d.Block[b] += count }

// AddEdge accumulates count traversals of from→to.
func (d *Data) AddEdge(from, to ir.BlockID, count float64) {
	d.Edge[Edge{from, to}] += count
}

// BestSucc returns the successor of b with the greatest edge weight, and
// that weight. It returns ir.NoBlock if b has no successors. Ties break
// toward the earlier successor in arm order, which keeps formation
// deterministic.
func (d *Data) BestSucc(fn *ir.Function, b ir.BlockID) (ir.BlockID, float64) {
	best, bestW := ir.NoBlock, -1.0
	for _, s := range fn.Block(b).Succs() {
		if w := d.EdgeWeight(b, s); w > bestW {
			best, bestW = s, w
		}
	}
	if best == ir.NoBlock {
		return ir.NoBlock, 0
	}
	return best, bestW
}

// MoveEdge transfers the weight of edge (from,oldTo) onto (from,newTo).
// Tail duplication uses it when it retargets a predecessor onto a duplicate
// block.
func (d *Data) MoveEdge(from, oldTo, newTo ir.BlockID) {
	w := d.Edge[Edge{from, oldTo}]
	delete(d.Edge, Edge{from, oldTo})
	d.Edge[Edge{from, newTo}] += w
}

// SplitBlock installs the weight bookkeeping for a duplicate: the duplicate
// dup inherits inWeight (the weight of the edges now entering it), the
// original orig loses that amount, and each outgoing edge's weight is split
// proportionally between orig and dup.
func (d *Data) SplitBlock(fn *ir.Function, orig, dup ir.BlockID, inWeight float64) {
	origW := d.Block[orig]
	d.Block[dup] = inWeight
	d.Block[orig] = origW - inWeight
	if d.Block[orig] < 0 {
		d.Block[orig] = 0
	}
	frac := 0.0
	if origW > 0 {
		frac = inWeight / origW
	}
	for _, s := range fn.Block(orig).Succs() {
		w := d.Edge[Edge{orig, s}]
		moved := w * frac
		d.Edge[Edge{orig, s}] = w - moved
		d.Edge[Edge{dup, s}] += moved
	}
}

// Total returns the sum of all block weights (a rough program size × trip
// count measure, useful for sanity checks).
func (d *Data) Total() float64 {
	t := 0.0
	for _, w := range d.Block {
		t += w
	}
	return t
}

// Canonical returns a deterministic full serialization of the profile —
// block and edge weights, sorted. Two profiles with equal Canonical strings
// drive every profile-guided decision identically. It is the readable form
// tests compare; cache keys hash AppendKey's binary form, which carries the
// same information.
func (d *Data) Canonical() string {
	return string(d.AppendCanonical(nil))
}

// AppendCanonical appends the Canonical serialization to buf and returns
// it.
func (d *Data) AppendCanonical(buf []byte) []byte {
	blocks := make([]int, 0, len(d.Block))
	for b := range d.Block {
		blocks = append(blocks, int(b))
	}
	sort.Ints(blocks)
	edges := make([]Edge, 0, len(d.Edge))
	for e := range d.Edge {
		edges = append(edges, e)
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		if a.From != b.From {
			return int(a.From) - int(b.From)
		}
		return int(a.To) - int(b.To)
	})
	// ~24 bytes per entry covers typical weights; under-estimates just grow.
	buf = slices.Grow(buf, 24*(len(blocks)+len(edges)))
	for _, b := range blocks {
		buf = append(buf, 'b')
		buf = strconv.AppendInt(buf, int64(b), 10)
		buf = append(buf, '=')
		buf = strconv.AppendFloat(buf, d.Block[ir.BlockID(b)], 'g', -1, 64)
		buf = append(buf, ';')
	}
	for _, e := range edges {
		buf = append(buf, 'e')
		buf = strconv.AppendInt(buf, int64(e.From), 10)
		buf = append(buf, '-')
		buf = strconv.AppendInt(buf, int64(e.To), 10)
		buf = append(buf, '=')
		buf = strconv.AppendFloat(buf, d.Edge[e], 'g', -1, 64)
		buf = append(buf, ';')
	}
	return buf
}

// AppendKey appends a compact binary serialization of the profile to buf
// and returns it: count-prefixed, sorted block entries (u32 id, f64 bits)
// followed by edge entries (u32 from, u32 to, f64 bits), little-endian.
// It carries exactly the information Canonical does, so hashing it
// partitions profiles the same way, without the per-entry float formatting.
func (d *Data) AppendKey(buf []byte) []byte {
	blocks := make([]int, 0, len(d.Block))
	for b := range d.Block {
		blocks = append(blocks, int(b))
	}
	sort.Ints(blocks)
	edges := make([]Edge, 0, len(d.Edge))
	for e := range d.Edge {
		edges = append(edges, e)
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		if a.From != b.From {
			return int(a.From) - int(b.From)
		}
		return int(a.To) - int(b.To)
	})
	le := binary.LittleEndian
	buf = slices.Grow(buf, 8+12*len(blocks)+16*len(edges))
	buf = le.AppendUint32(buf, uint32(len(blocks)))
	for _, b := range blocks {
		buf = le.AppendUint32(buf, uint32(b))
		buf = le.AppendUint64(buf, math.Float64bits(d.Block[ir.BlockID(b)]))
	}
	buf = le.AppendUint32(buf, uint32(len(edges)))
	for _, e := range edges {
		buf = le.AppendUint32(buf, uint32(e.From))
		buf = le.AppendUint32(buf, uint32(e.To))
		buf = le.AppendUint64(buf, math.Float64bits(d.Edge[e]))
	}
	return buf
}

// String dumps the profile sorted by block ID, for debugging.
func (d *Data) String() string {
	ids := make([]int, 0, len(d.Block))
	for b := range d.Block {
		ids = append(ids, int(b))
	}
	sort.Ints(ids)
	var sb strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&sb, "bb%d: %.0f\n", id, d.Block[ir.BlockID(id)])
	}
	return sb.String()
}
