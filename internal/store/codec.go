package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"treegion/internal/ddg"
	"treegion/internal/eval"
	"treegion/internal/ir"
	"treegion/internal/machine"
	"treegion/internal/profile"
	"treegion/internal/region"
	"treegion/internal/sched"
	"treegion/internal/telemetry"
	"treegion/internal/verify"
)

// The tgart2 codec: a flat, offset-indexed, little-endian binary layout
// over the compiler's dense ID spaces. The gob codec it replaces spent the
// whole warm-path win re-parsing textual IR and re-linking the result graph
// through reflection; tgart2 instead writes fixed-width records that decode
// straight into the same slabs a cold compile allocates (ir.FuncSnapshot,
// ddg.RestoreScratch, region.Rebuild), with near-zero per-node allocations.
//
// Layout (all integers little-endian; offsets relative to the payload
// start, i.e. after the store's magic line):
//
//	u32 schema
//	u32 sectionCount
//	sectionCount × { u32 id, u32 reserved, u64 offset, u64 length }
//	section bytes, contiguous, in table order
//
// Section IDs (1-5 required, 6-7 optional, ids strictly increasing):
//
//	1 func        binary ir.FuncSnapshot (IDs + allocator counters exact)
//	2 profile     block/edge weights, sorted for byte-stable re-encoding
//	3 regions     preorder (block, parent) lists per region
//	4 schedules   per-schedule DDG node/edge CSR records + issue cycles
//	5 stats       fixed-width scalar result fields
//	6 trace       telemetry.TraceSnapshot (per-phase counters)
//	7 diagnostics verifier diagnostics riding on the result
//
// Decode validates the section table (bounds, contiguity, unknown ids) and
// every index before use: a corrupt entry must surface as an error (which
// the store turns into a quarantined miss), never as a panic in a consumer.
// A different schema number — or a trace/stats section whose field counts
// disagree with this binary's structs — reads as errSchemaSkew: a plain
// miss, because the entry may be perfectly valid for another binary
// version. The function travels as a binary snapshot rather than text so op
// IDs, Orig tags and allocator counters survive exactly (irtext.Parse
// renumbers). The address is hashed from the compile's inputs
// (pipeline.contentKey) or from treegiond's request (DESIGN.md §27), never
// from anything in the payload.
// Schema 4 extended the func section with the interprocedural fields: the
// call-convention Params/Rets register lists, a callee symbol table, and a
// per-op callee symbol index (opRecSize 38 -> 42). Schema 5 dropped the
// ir-text section, which no decode read, renumbered the sections from 1,
// and dropped the per-phase allocation column from the trace section.
// Entries of any other schema decode as a clean miss.
const schemaVersion = 5

// Section IDs.
const (
	secFunc = 1 + iota
	secProfile
	secRegions
	secSchedules
	secStats
	secTrace
	secDiagnostics
)

const (
	secHdrSize   = 24 // u32 id + u32 reserved + u64 offset + u64 length
	maxSections  = 7
	schedStatsN  = 8 // field count of sched.Stats; drift => schema skew
	hyperStatsN  = 3 // field count of hyper.Stats
	resultStatsN = 8 // scalar fields of FunctionResult in the stats section
)

// Fixed-width record sizes. Each constant is the byte width of one record
// in its bulk array; the encode and decode loops for a record are annotated
// //rec:size <const> and treegion-vet statically proves the writer-call sum
// (encode) and the byte-offset tiling (decode) both equal the constant.
// Changing a layout means touching the loop AND the constant — the vet gate
// fails on either half alone.
const (
	blockRecSize = 12 // i32 orig + i32 fallthrough + u32 numOps
	opRecSize    = 42 // i32 id + i32 orig + u8 opcode + u8 cond + bool renamed + u8 guard class + i32 guard num + u8 ndests + u8 nsrcs + i64 imm + i32 target + f64 prob + i32 callee sym
	regRecSize   = 5  // u8 class + i32 num
	nodeRecSize  = 29 // i32 block + i32 op index + i32 home + u8 flags + i32 height + i32 exit count + f64 weight
	edgeRecSize  = 13 // u32 from + u32 to + i32 latency + u8 kind
	cycleRecSize = 4  // i32 issue cycle
	// Region block-list pair records.
	regionBlockRecSize = 8 // i32 block + i32 parent
)

// Minimum byte widths of the variable-width records, used only to bound
// reader.count against the remaining payload (a record can be larger than
// its minimum — strings — but never smaller, so count*min > remaining is
// proof of corruption without decoding).
const (
	profBlockRecSize = 12 // i32 block + f64 weight
	profEdgeRecSize  = 16 // i32 from + i32 to + f64 weight
	symRecMin        = 4  // u32 length prefix per callee symbol
	regionRecMin     = 7  // u8 kind + bool fromTrace + u32 nblocks + blocks
	schedRecMin      = 24 // u32 region + str model + i32 width + 3×i32 + node/edge counts
	diagRecMin       = 15 // 3×str (u32 len each) + u8 severity + i32 block + i32 op, minimum
)

// errSchemaSkew marks an entry written under a different payload schema: a
// clean miss, not corruption.
var errSchemaSkew = fmt.Errorf("store: schema skew")

// writer builds the payload with plain byte appends.
type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// reader consumes the payload with sticky-error bounds checking: any
// out-of-bounds read sets err and yields zeros, so decode logic can run
// straight-line and check once per section.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, a ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("store: "+format, a...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("truncated payload (need %d bytes at %d of %d)", n, r.off, len(r.b))
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) u8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *reader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *reader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *reader) i32() int32   { return int32(r.u32()) }
func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) bool() bool { return r.u8() != 0 }

func (r *reader) str() string {
	n := int(r.u32())
	s := r.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

// count reads an element count and checks it against the bytes remaining
// (elemSize is a lower bound per element), so a corrupt length can never
// drive a giant allocation.
func (r *reader) count(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*elemSize > len(r.b)-r.off {
		r.fail("element count %d exceeds remaining %d bytes", n, len(r.b)-r.off)
		return 0
	}
	return n
}

// done checks the section was fully consumed.
func (r *reader) done(what string) {
	if r.err == nil && r.off != len(r.b) {
		r.fail("%s section has %d trailing bytes", what, len(r.b)-r.off)
	}
}

// encodeEntry writes fr's store entry, the magic line and then the tgart2
// payload, into one buffer sized up front (entrySize).
func encodeEntry(fr *eval.FunctionResult) ([]byte, error) {
	if fr == nil || fr.Fn == nil {
		return nil, fmt.Errorf("store: nil result")
	}
	snap := fr.Fn.Snapshot()
	trace := fr.Trace.Snapshot()

	var idBuf [maxSections]uint32
	ids := append(idBuf[:0], secFunc, secProfile, secRegions, secSchedules, secStats)
	if fr.Trace != nil {
		ids = append(ids, secTrace)
	}
	if len(fr.Diagnostics) > 0 {
		ids = append(ids, secDiagnostics)
	}

	w := &writer{buf: make([]byte, 0, entrySize(fr, snap, &trace, len(ids)))}
	w.buf = append(w.buf, magic...)
	base := len(w.buf) // section offsets count from the payload's start
	w.u32(schemaVersion)
	w.u32(uint32(len(ids)))
	tableOff := len(w.buf)
	var table [maxSections * secHdrSize]byte
	w.buf = append(w.buf, table[:len(ids)*secHdrSize]...)

	for i, id := range ids {
		start := len(w.buf)
		var err error
		switch id {
		case secFunc:
			encodeFunc(w, snap)
		case secProfile:
			encodeProfile(w, fr.Prof)
		case secRegions:
			encodeRegions(w, fr.Regions)
		case secSchedules:
			err = encodeSchedules(w, fr)
		case secStats:
			encodeStats(w, fr)
		case secTrace:
			encodeTrace(w, trace)
		case secDiagnostics:
			encodeDiagnostics(w, fr.Diagnostics)
		}
		if err != nil {
			return nil, err
		}
		hdr := w.buf[tableOff+i*secHdrSize:]
		binary.LittleEndian.PutUint32(hdr[0:], id)
		binary.LittleEndian.PutUint32(hdr[4:], 0)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(start-base))
		binary.LittleEndian.PutUint64(hdr[16:], uint64(len(w.buf)-start))
	}
	return w.buf, nil
}

// entrySize is the exact byte length of fr's store entry with nsec
// sections: the magic, the section table, and each section as its encoder
// writes it, from the record counts and the record sizes above.
func entrySize(fr *eval.FunctionResult, snap *ir.FuncSnapshot, trace *telemetry.TraceSnapshot, nsec int) int {
	str := func(s string) int { return 4 + len(s) }
	n := len(magic) + 8 + nsec*secHdrSize
	// func
	n += str(snap.Name) + 3*4 + 4*len(snap.NextReg) +
		4 + len(snap.Params)*regRecSize + 4 + len(snap.Rets)*regRecSize + 4
	for _, sym := range snap.Syms {
		n += str(sym)
	}
	n += 3*4 + len(snap.Blocks)*blockRecSize + len(snap.Ops)*opRecSize + len(snap.Regs)*regRecSize
	// profile
	n++
	if fr.Prof != nil {
		n += 4 + len(fr.Prof.Block)*profBlockRecSize + 4 + len(fr.Prof.Edge)*profEdgeRecSize
	}
	// regions: kind, fromTrace, block count, block records
	n += 4
	for _, r := range fr.Regions {
		n += 1 + 1 + 4 + len(r.Blocks)*regionBlockRecSize
	}
	// schedules: region, model name, width, renamed/copies/merged, node and
	// edge counts, node and edge records, length, cycles
	n += 4
	for _, s := range fr.Schedules {
		if s.Graph == nil {
			continue // encodeSchedules refuses it
		}
		n += 4 + str(s.Model.Name) + 4 + 3*4 + 4 + 4 + len(s.Graph.Nodes)*(nodeRecSize+cycleRecSize) + 4
		for _, nd := range s.Graph.Nodes {
			n += len(nd.Succs) * edgeRecSize
		}
	}
	// stats: three field counts, each field 8 bytes
	n += 3*4 + (resultStatsN+schedStatsN+hyperStatsN)*8
	if fr.Trace != nil {
		n += str(trace.Function) + 4 + int(telemetry.NumPhases)*3*8
	}
	if len(fr.Diagnostics) > 0 {
		n += 4
		for _, d := range fr.Diagnostics {
			n += str(d.Rule) + 1 + str(d.Fn) + 4 + 4 + str(d.Message)
		}
	}
	return n
}

func encodeFunc(w *writer, s *ir.FuncSnapshot) {
	w.str(s.Name)
	w.i32(int32(s.Entry))
	w.i32(s.NextOp)
	w.i32(s.NextBlock)
	for _, n := range s.NextReg {
		w.i32(n)
	}
	w.u32(uint32(len(s.Params)))
	//rec:size regRecSize
	for _, r := range s.Params {
		w.u8(uint8(r.Class))
		w.i32(int32(r.Num))
	}
	w.u32(uint32(len(s.Rets)))
	//rec:size regRecSize
	for _, r := range s.Rets {
		w.u8(uint8(r.Class))
		w.i32(int32(r.Num))
	}
	w.u32(uint32(len(s.Syms)))
	for _, sym := range s.Syms {
		w.str(sym)
	}
	w.u32(uint32(len(s.Blocks)))
	w.u32(uint32(len(s.Ops)))
	w.u32(uint32(len(s.Regs)))
	//rec:size blockRecSize
	for i := range s.Blocks {
		b := &s.Blocks[i]
		w.i32(int32(b.Orig))
		w.i32(int32(b.FallThrough))
		w.u32(uint32(b.NumOps))
	}
	//rec:size opRecSize
	for i := range s.Ops {
		op := &s.Ops[i]
		w.i32(op.ID)
		w.i32(op.Orig)
		w.u8(uint8(op.Opcode))
		w.u8(uint8(op.Cond))
		w.bool(op.Renamed)
		w.u8(uint8(op.Guard.Class))
		w.i32(int32(op.Guard.Num))
		w.u8(op.NumDests)
		w.u8(op.NumSrcs)
		w.i64(op.Imm)
		w.i32(int32(op.Target))
		w.f64(op.Prob)
		w.i32(op.Callee)
	}
	//rec:size regRecSize
	for _, r := range s.Regs {
		w.u8(uint8(r.Class))
		w.i32(int32(r.Num))
	}
}

// snapPool recycles the transient FuncSnapshot that decodeFunc fills before
// Build copies it into the Function's own slabs. Nothing in the snapshot is
// retained by the built function, so reusing the three record slices removes
// the largest transient allocation on the warm store path.
var snapPool = sync.Pool{New: func() any { return new(ir.FuncSnapshot) }}

// growRecs returns buf resized to n, reallocating only when capacity is
// short; contents are unspecified (every decode loop writes all n records).
func growRecs[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func decodeFunc(data []byte) (*ir.Function, error) {
	r := &reader{b: data}
	s := snapPool.Get().(*ir.FuncSnapshot)
	defer snapPool.Put(s)
	s.Name = r.str()
	s.Entry = ir.BlockID(r.i32())
	s.NextOp = r.i32()
	s.NextBlock = r.i32()
	for c := range s.NextReg {
		s.NextReg[c] = r.i32()
	}
	nparams := r.count(regRecSize)
	s.Params = growRecs(s.Params, nparams)
	for i := 0; i < nparams; i++ {
		class := ir.RegClass(r.u8())
		s.Params[i] = ir.Reg{Class: class, Num: int(r.i32())}
	}
	nrets := r.count(regRecSize)
	s.Rets = growRecs(s.Rets, nrets)
	for i := 0; i < nrets; i++ {
		class := ir.RegClass(r.u8())
		s.Rets[i] = ir.Reg{Class: class, Num: int(r.i32())}
	}
	nsyms := r.count(symRecMin)
	s.Syms = growRecs(s.Syms, nsyms)
	for i := 0; i < nsyms; i++ {
		s.Syms[i] = r.str()
	}
	nblocks := r.count(blockRecSize)
	nops := r.count(opRecSize)
	nregs := r.count(regRecSize)
	// Bulk-take each fixed-width record array: one bounds check per array
	// instead of one per field keeps the op loop branch-free.
	blockRaw := r.take(nblocks * blockRecSize)
	opRaw := r.take(nops * opRecSize)
	regRaw := r.take(nregs * regRecSize)
	r.done("func")
	if r.err != nil {
		return nil, r.err
	}
	le := binary.LittleEndian
	s.Blocks = growRecs(s.Blocks, nblocks)
	//rec:size blockRecSize
	for i := range s.Blocks {
		rec := blockRaw[i*blockRecSize : i*blockRecSize+blockRecSize]
		s.Blocks[i] = ir.BlockSnap{
			Orig:        ir.BlockID(int32(le.Uint32(rec[0:]))),
			FallThrough: ir.BlockID(int32(le.Uint32(rec[4:]))),
			NumOps:      int32(le.Uint32(rec[8:])),
		}
	}
	s.Ops = growRecs(s.Ops, nops)
	//rec:size opRecSize
	for i := range s.Ops {
		rec := opRaw[i*opRecSize : i*opRecSize+opRecSize]
		op := &s.Ops[i]
		op.ID = int32(le.Uint32(rec[0:]))
		op.Orig = int32(le.Uint32(rec[4:]))
		op.Opcode = ir.Opcode(rec[8])
		op.Cond = ir.Cond(rec[9])
		op.Renamed = rec[10] != 0
		op.Guard.Class = ir.RegClass(rec[11])
		op.Guard.Num = int(int32(le.Uint32(rec[12:])))
		op.NumDests = rec[16]
		op.NumSrcs = rec[17]
		op.Imm = int64(le.Uint64(rec[18:]))
		op.Target = ir.BlockID(int32(le.Uint32(rec[26:])))
		op.Prob = math.Float64frombits(le.Uint64(rec[30:]))
		op.Callee = int32(le.Uint32(rec[38:]))
	}
	s.Regs = growRecs(s.Regs, nregs)
	//rec:size regRecSize
	for i := range s.Regs {
		rec := regRaw[i*regRecSize : i*regRecSize+regRecSize]
		s.Regs[i] = ir.Reg{Class: ir.RegClass(rec[0]), Num: int(int32(le.Uint32(rec[1:])))}
	}
	if r.err != nil {
		return nil, r.err
	}
	fn, err := s.Build()
	if err != nil {
		return nil, fmt.Errorf("store: decode function: %w", err)
	}
	// The snapshot structure checks out; now enforce the full IR contract,
	// exactly as the gob-era decode did via irtext.Parse.
	if err := fn.Validate(); err != nil {
		return nil, fmt.Errorf("store: decode function: %w", err)
	}
	return fn, nil
}

func encodeProfile(w *writer, prof *profile.Data) {
	if prof == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	// Map iteration is randomized; sort so re-encoding a decoded result
	// reproduces the original bytes.
	blocks := make([]ir.BlockID, 0, len(prof.Block))
	for b := range prof.Block {
		blocks = append(blocks, b)
	}
	slices.Sort(blocks)
	w.u32(uint32(len(blocks)))
	for _, b := range blocks {
		w.i32(int32(b))
		w.f64(prof.Block[b])
	}
	edges := make([]profile.Edge, 0, len(prof.Edge))
	for e := range prof.Edge {
		edges = append(edges, e)
	}
	slices.SortFunc(edges, func(a, b profile.Edge) int {
		if a.From != b.From {
			return int(a.From) - int(b.From)
		}
		return int(a.To) - int(b.To)
	})
	w.u32(uint32(len(edges)))
	for _, e := range edges {
		w.i32(int32(e.From))
		w.i32(int32(e.To))
		w.f64(prof.Edge[e])
	}
}

func decodeProfile(data []byte) (*profile.Data, error) {
	r := &reader{b: data}
	if !r.bool() {
		r.done("profile")
		return nil, r.err
	}
	nb := r.count(profBlockRecSize)
	prof := &profile.Data{
		Block: make(map[ir.BlockID]float64, nb),
		Edge:  nil, // sized below once the edge count is known
	}
	for i := 0; i < nb && r.err == nil; i++ {
		b := ir.BlockID(r.i32())
		prof.Block[b] = r.f64()
	}
	ne := r.count(profEdgeRecSize)
	prof.Edge = make(map[profile.Edge]float64, ne)
	for i := 0; i < ne && r.err == nil; i++ {
		from := ir.BlockID(r.i32())
		to := ir.BlockID(r.i32())
		prof.Edge[profile.Edge{From: from, To: to}] = r.f64()
	}
	r.done("profile")
	if r.err != nil {
		return nil, r.err
	}
	return prof, nil
}

func encodeRegions(w *writer, regions []*region.Region) {
	w.u32(uint32(len(regions)))
	for _, r := range regions {
		w.u8(uint8(r.Kind))
		w.bool(r.FromTrace)
		w.u32(uint32(len(r.Blocks)))
		//rec:size regionBlockRecSize
		for _, b := range r.Blocks {
			w.i32(int32(b))
			w.i32(int32(r.Parent(b)))
		}
	}
}

func decodeRegions(data []byte, fn *ir.Function) ([]*region.Region, error) {
	r := &reader{b: data}
	n := r.count(regionRecMin)
	out := make([]*region.Region, 0, n)
	part := region.NewPartition(fn)
	// Rebuild copies both lists into the region's own tables, so one pair of
	// buffers serves every region in the entry.
	var blocks, parents []ir.BlockID
	for i := 0; i < n && r.err == nil; i++ {
		kind := region.Kind(r.u8())
		fromTrace := r.bool()
		nb := r.count(regionBlockRecSize)
		raw := r.take(nb * regionBlockRecSize)
		if r.err != nil {
			break
		}
		le := binary.LittleEndian
		blocks = growRecs(blocks, nb)
		parents = growRecs(parents, nb)
		//rec:size regionBlockRecSize
		for j := 0; j < nb; j++ {
			blocks[j] = ir.BlockID(int32(le.Uint32(raw[j*regionBlockRecSize:])))
			parents[j] = ir.BlockID(int32(le.Uint32(raw[j*regionBlockRecSize+4:])))
		}
		reg, err := region.Rebuild(part, kind, blocks, parents, fromTrace)
		if err != nil {
			return nil, err
		}
		out = append(out, reg)
	}
	r.done("regions")
	if r.err != nil {
		return nil, r.err
	}
	// Rebuild refused overlaps; records that leave a block uncovered are
	// corrupt too.
	if err := part.Check(out); err != nil {
		return nil, fmt.Errorf("store: regions: %w", err)
	}
	return out, nil
}

func encodeSchedules(w *writer, fr *eval.FunctionResult) error {
	// Positional op index over the function: (block, index) survives the
	// round trip because blocks and per-block op order are preserved
	// verbatim by the func section. It is indexed by op ID, unique and
	// below NumOpIDs in every valid function; a hand-built op outside that
	// range takes the map.
	fn := fr.Fn
	pos := make([]uint64, fn.NumOpIDs())
	var over map[*ir.Op]uint64
	for _, b := range fn.Blocks {
		for i, op := range b.Ops {
			ref := uint64(b.ID)<<32 | uint64(uint32(i))
			if uint(op.ID) < uint(len(pos)) {
				pos[op.ID] = ref
				continue
			}
			if over == nil {
				over = make(map[*ir.Op]uint64)
			}
			over[op] = ref
		}
	}
	refOf := func(op *ir.Op) (uint64, bool) {
		if uint(op.ID) >= uint(len(pos)) {
			ref, ok := over[op]
			return ref, ok
		}
		ref := pos[op.ID]
		b, i := int(ref>>32), int(uint32(ref))
		return ref, b < len(fn.Blocks) && i < len(fn.Blocks[b].Ops) && fn.Blocks[b].Ops[i] == op
	}
	w.u32(uint32(len(fr.Schedules)))
	for si, s := range fr.Schedules {
		if s.Graph == nil || s.Graph.Region == nil {
			return fmt.Errorf("store: schedule without graph")
		}
		// Schedules are usually in region order.
		ri := si
		if ri >= len(fr.Regions) || fr.Regions[ri] != s.Graph.Region {
			if ri = slices.Index(fr.Regions, s.Graph.Region); ri < 0 {
				return fmt.Errorf("store: schedule region not among result regions")
			}
		}
		w.u32(uint32(ri))
		w.str(s.Model.Name)
		w.i32(int32(s.Model.IssueWidth))
		w.i32(int32(s.Graph.NumRenamed))
		w.i32(int32(s.Graph.NumCopies))
		w.i32(int32(s.Graph.NumMerged))
		nedges := 0
		for _, n := range s.Graph.Nodes {
			nedges += len(n.Succs)
		}
		w.u32(uint32(len(s.Graph.Nodes)))
		w.u32(uint32(nedges))
		//rec:size nodeRecSize
		for _, n := range s.Graph.Nodes {
			ref, ok := refOf(n.Op)
			if !ok {
				return fmt.Errorf("store: node op not found in function body")
			}
			w.i32(int32(ref >> 32))
			w.i32(int32(uint32(ref)))
			w.i32(int32(n.Home))
			var flags uint8
			if n.Term {
				flags |= 1
			}
			if n.Spec {
				flags |= 2
			}
			w.u8(flags)
			w.i32(int32(n.Height))
			w.i32(int32(n.ExitCount))
			w.f64(n.Weight)
		}
		for _, n := range s.Graph.Nodes {
			//rec:size edgeRecSize
			for _, e := range n.Succs {
				w.u32(uint32(n.Index))
				w.u32(uint32(e.To.Index))
				w.i32(int32(e.Latency))
				w.u8(uint8(e.Kind))
			}
		}
		w.i32(int32(s.Length))
		if len(s.Cycle) != len(s.Graph.Nodes) {
			return fmt.Errorf("store: %d cycles for %d nodes", len(s.Cycle), len(s.Graph.Nodes))
		}
		//rec:size cycleRecSize
		for _, c := range s.Cycle {
			w.i32(int32(c))
		}
	}
	return nil
}

func decodeSchedules(data []byte, fn *ir.Function, regions []*region.Region) ([]*sched.Schedule, error) {
	r := &reader{b: data}
	n := r.count(schedRecMin)
	out := make([]*sched.Schedule, 0, n)
	// The graph scratch is reused across every schedule in the entry:
	// nodes decode straight into the slab the revived graph keeps, and
	// edges into the scratch's records, so only what the graphs retain
	// allocates.
	var sc ddg.Scratch
	for si := 0; si < n && r.err == nil; si++ {
		ri := int(r.u32())
		var model machine.Model
		model.Name = r.str()
		model.IssueWidth = int(r.i32())
		renamed := int(r.i32())
		copies := int(r.i32())
		merged := int(r.i32())
		nnodes := r.count(nodeRecSize)
		nedges := r.count(edgeRecSize)
		nodeRaw := r.take(nnodes * nodeRecSize)
		edgeRaw := r.take(nedges * edgeRecSize)
		length := int(r.i32())
		cycleRaw := r.take(nnodes * cycleRecSize)
		if r.err != nil {
			break
		}
		if ri < 0 || ri >= len(regions) {
			return nil, fmt.Errorf("store: schedule region %d out of range", ri)
		}
		if err := model.Validate(); err != nil {
			return nil, err
		}
		le := binary.LittleEndian
		nodes := make([]ddg.Node, nnodes)
		//rec:size nodeRecSize
		for i := range nodes {
			rec := nodeRaw[i*nodeRecSize : i*nodeRecSize+nodeRecSize]
			blockID := ir.BlockID(int32(le.Uint32(rec[0:])))
			opIdx := int(int32(le.Uint32(rec[4:])))
			if blockID < 0 || int(blockID) >= len(fn.Blocks) {
				return nil, fmt.Errorf("store: node op block bb%d out of range", blockID)
			}
			b := fn.Block(blockID)
			if opIdx < 0 || opIdx >= len(b.Ops) {
				return nil, fmt.Errorf("store: node op index %d out of range in bb%d", opIdx, blockID)
			}
			flags := rec[12]
			nodes[i] = ddg.Node{
				Op:        b.Ops[opIdx],
				Home:      ir.BlockID(int32(le.Uint32(rec[8:]))),
				Term:      flags&1 != 0,
				Spec:      flags&2 != 0,
				Height:    int(int32(le.Uint32(rec[13:]))),
				ExitCount: int(int32(le.Uint32(rec[17:]))),
				Weight:    math.Float64frombits(le.Uint64(rec[21:])),
			}
		}
		edges := sc.EdgeRecs(nedges)
		//rec:size edgeRecSize
		for i := range edges {
			rec := edgeRaw[i*edgeRecSize : i*edgeRecSize+edgeRecSize]
			edges[i] = ddg.EdgeRec{
				From:    int32(le.Uint32(rec[0:])),
				To:      int32(le.Uint32(rec[4:])),
				Latency: int32(le.Uint32(rec[8:])),
				Kind:    ddg.EdgeKind(rec[12]),
			}
		}
		cycles := make([]int, nnodes)
		//rec:size cycleRecSize
		for i := range cycles {
			cycles[i] = int(int32(le.Uint32(cycleRaw[i*cycleRecSize:])))
		}
		g, err := ddg.RestoreScratch(fn, regions[ri], nodes, edges, renamed, copies, merged, &sc)
		if err != nil {
			return nil, err
		}
		for _, c := range cycles {
			if c < 0 || c >= length {
				return nil, fmt.Errorf("store: issue cycle %d outside schedule length %d", c, length)
			}
		}
		if length < 0 || (nnodes == 0 && length != 0) {
			return nil, fmt.Errorf("store: empty schedule with length %d", length)
		}
		out = append(out, &sched.Schedule{
			Graph:  g,
			Model:  model,
			Cycle:  cycles,
			Length: length,
		})
	}
	r.done("schedules")
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

func encodeStats(w *writer, fr *eval.FunctionResult) {
	w.u32(resultStatsN)
	w.f64(fr.Time)
	w.f64(fr.Copies)
	w.i64(int64(fr.OpsBefore))
	w.i64(int64(fr.OpsAfter))
	w.i64(int64(fr.NumRenamed))
	w.i64(int64(fr.NumCopies))
	w.i64(int64(fr.NumMerged))
	w.i64(int64(fr.NumSpeculated))
	w.u32(schedStatsN)
	ss := fr.Sched
	w.i64(int64(ss.Ops))
	w.i64(int64(ss.Copies))
	w.i64(int64(ss.Branches))
	w.i64(int64(ss.Length))
	w.i64(int64(ss.Speculated))
	w.i64(int64(ss.BranchCycles))
	w.i64(int64(ss.PredicatedCycles))
	w.i64(int64(ss.MaxBranchesPerCycle))
	w.u32(hyperStatsN)
	w.i64(int64(fr.Hyper.Triangles))
	w.i64(int64(fr.Hyper.Diamonds))
	w.i64(int64(fr.Hyper.Predicated))
}

func decodeStats(data []byte, fr *eval.FunctionResult) error {
	r := &reader{b: data}
	if n := r.u32(); r.err == nil && n != resultStatsN {
		return errSchemaSkew
	}
	fr.Time = r.f64()
	fr.Copies = r.f64()
	fr.OpsBefore = int(r.i64())
	fr.OpsAfter = int(r.i64())
	fr.NumRenamed = int(r.i64())
	fr.NumCopies = int(r.i64())
	fr.NumMerged = int(r.i64())
	fr.NumSpeculated = int(r.i64())
	if n := r.u32(); r.err == nil && n != schedStatsN {
		return errSchemaSkew
	}
	fr.Sched.Ops = int(r.i64())
	fr.Sched.Copies = int(r.i64())
	fr.Sched.Branches = int(r.i64())
	fr.Sched.Length = int(r.i64())
	fr.Sched.Speculated = int(r.i64())
	fr.Sched.BranchCycles = int(r.i64())
	fr.Sched.PredicatedCycles = int(r.i64())
	fr.Sched.MaxBranchesPerCycle = int(r.i64())
	if n := r.u32(); r.err == nil && n != hyperStatsN {
		return errSchemaSkew
	}
	fr.Hyper.Triangles = int(r.i64())
	fr.Hyper.Diamonds = int(r.i64())
	fr.Hyper.Predicated = int(r.i64())
	r.done("stats")
	return r.err
}

func encodeTrace(w *writer, snap telemetry.TraceSnapshot) {
	w.str(snap.Function)
	w.u32(uint32(telemetry.NumPhases))
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		ps := snap.Phase[p]
		w.i64(ps.Nanos)
		w.i64(ps.Calls)
		w.i64(ps.Ops)
	}
}

func decodeTrace(data []byte) (*telemetry.CompileTrace, error) {
	r := &reader{b: data}
	var snap telemetry.TraceSnapshot
	snap.Function = r.str()
	if n := r.u32(); r.err == nil && n != uint32(telemetry.NumPhases) {
		// Written by a binary with a different phase set.
		return nil, errSchemaSkew
	}
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		snap.Phase[p] = telemetry.PhaseSnapshot{
			Nanos: r.i64(),
			Calls: r.i64(),
			Ops:   r.i64(),
		}
	}
	r.done("trace")
	if r.err != nil {
		return nil, r.err
	}
	return snap.Restore(), nil
}

func encodeDiagnostics(w *writer, ds []verify.Diagnostic) {
	w.u32(uint32(len(ds)))
	for _, d := range ds {
		w.str(d.Rule)
		w.u8(uint8(d.Severity))
		w.str(d.Fn)
		w.i32(int32(d.Block))
		w.i32(int32(d.Op))
		w.str(d.Message)
	}
}

func decodeDiagnostics(data []byte) ([]verify.Diagnostic, error) {
	r := &reader{b: data}
	n := r.count(diagRecMin)
	out := make([]verify.Diagnostic, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		d := verify.Diagnostic{
			Rule:     r.str(),
			Severity: verify.Severity(r.u8()),
			Fn:       r.str(),
			Block:    ir.BlockID(r.i32()),
			Op:       int(r.i32()),
			Message:  r.str(),
		}
		if d.Severity > verify.Error {
			return nil, fmt.Errorf("store: unknown diagnostic severity %d", d.Severity)
		}
		out = append(out, d)
	}
	r.done("diagnostics")
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

// section is one parsed section-table row.
type section struct {
	id   uint32
	data []byte
}

// parseSections validates the header and section table: schema match, ids
// strictly increasing and known, sections contiguous from the end of the
// table, and every (offset, length) in bounds. Overlapping or out-of-order
// ranges are corruption by construction.
func parseSections(data []byte) ([]section, error) {
	r := &reader{b: data}
	schema := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if schema != schemaVersion {
		// A plausible schema number is another binary generation's entry
		// (skew, a clean miss); anything else is garbage wearing our magic.
		if schema >= 1 && schema < 4096 {
			return nil, errSchemaSkew
		}
		return nil, fmt.Errorf("store: implausible schema %d", schema)
	}
	nsec := int(r.u32())
	if r.err == nil && (nsec < 1 || nsec > maxSections) {
		return nil, fmt.Errorf("store: bad section count %d", nsec)
	}
	if r.err != nil {
		return nil, r.err
	}
	table := r.take(nsec * secHdrSize)
	if r.err != nil {
		return nil, r.err
	}
	out := make([]section, nsec)
	next := uint64(r.off)
	lastID := uint32(0)
	for i := 0; i < nsec; i++ {
		hdr := table[i*secHdrSize:]
		id := binary.LittleEndian.Uint32(hdr[0:])
		off := binary.LittleEndian.Uint64(hdr[8:])
		length := binary.LittleEndian.Uint64(hdr[16:])
		if id <= lastID || id > secDiagnostics {
			return nil, fmt.Errorf("store: bad section id %d after %d", id, lastID)
		}
		lastID = id
		if off != next {
			return nil, fmt.Errorf("store: section %d at offset %d, want %d", id, off, next)
		}
		if length > uint64(len(data))-off {
			return nil, fmt.Errorf("store: section %d overruns payload", id)
		}
		out[i] = section{id: id, data: data[off : off+length]}
		next = off + length
	}
	if next != uint64(len(data)) {
		return nil, fmt.Errorf("store: %d trailing bytes after last section", uint64(len(data))-next)
	}
	return out, nil
}

// decode revives a FunctionResult from the tgart2 payload.
func decode(data []byte) (*eval.FunctionResult, error) {
	secs, err := parseSections(data)
	if err != nil {
		return nil, err
	}
	bySec := [secDiagnostics + 1][]byte{}
	seen := [secDiagnostics + 1]bool{}
	for _, s := range secs {
		bySec[s.id] = s.data
		seen[s.id] = true
	}
	for id := secFunc; id <= secStats; id++ {
		if !seen[id] {
			return nil, fmt.Errorf("store: missing section %d", id)
		}
	}

	fn, err := decodeFunc(bySec[secFunc])
	if err != nil {
		return nil, err
	}
	fr := &eval.FunctionResult{Fn: fn}
	if fr.Prof, err = decodeProfile(bySec[secProfile]); err != nil {
		return nil, err
	}
	if fr.Regions, err = decodeRegions(bySec[secRegions], fn); err != nil {
		return nil, err
	}
	if fr.Schedules, err = decodeSchedules(bySec[secSchedules], fn, fr.Regions); err != nil {
		return nil, err
	}
	if err = decodeStats(bySec[secStats], fr); err != nil {
		return nil, err
	}
	if seen[secTrace] {
		if fr.Trace, err = decodeTrace(bySec[secTrace]); err != nil {
			return nil, err
		}
	}
	if seen[secDiagnostics] {
		if fr.Diagnostics, err = decodeDiagnostics(bySec[secDiagnostics]); err != nil {
			return nil, err
		}
	}
	return fr, nil
}
