package irtext

import (
	"fmt"
	"strconv"
	"strings"

	"treegion/internal/ir"
)

// Parse reads one function in the package's text format. Every block
// referenced by a branch, pbr or fallthrough must be declared; the first
// declared block is the entry. The parsed function is validated before it
// is returned.
func Parse(src string) (*ir.Function, error) {
	fn, err := ParseUnchecked(src)
	if err != nil {
		return nil, err
	}
	if err := fn.Validate(); err != nil {
		return nil, fmt.Errorf("irtext: %w", err)
	}
	return fn, nil
}

// ParseProgram reads a multi-function file: each `func` line starts a new
// function. Functions are parsed and validated individually, then resolved
// into an ir.Program, which rejects duplicate names, calls to undefined
// functions, and arity-mismatched call sites.
func ParseProgram(src string) (*ir.Program, error) {
	var chunks []string
	var starts []int // 1-based line offsets, for error messages
	cur := strings.Builder{}
	lineNo, curStart := 0, 1
	curHasFunc := false
	for rest := src; len(rest) > 0 || lineNo == 0; {
		var raw string
		raw, rest = nextLine(rest)
		lineNo++
		if strings.HasPrefix(clean(raw), "func ") {
			// Start a new chunk only once the current one holds a function;
			// leading comments and blank lines attach to the first function.
			if curHasFunc {
				chunks = append(chunks, cur.String())
				starts = append(starts, curStart)
				cur.Reset()
				curStart = lineNo
			}
			curHasFunc = true
		}
		cur.WriteString(raw)
		cur.WriteByte('\n')
	}
	chunks = append(chunks, cur.String())
	starts = append(starts, curStart)

	funcs := make([]*ir.Function, 0, len(chunks))
	for i, chunk := range chunks {
		fn, err := Parse(chunk)
		if err != nil {
			if len(chunks) > 1 {
				return nil, fmt.Errorf("irtext: function starting at line %d: %w", starts[i], err)
			}
			return nil, err
		}
		funcs = append(funcs, fn)
	}
	prog, err := ir.NewProgram(funcs)
	if err != nil {
		return nil, fmt.Errorf("irtext: %w", err)
	}
	return prog, nil
}

// ParseUnchecked is Parse without the final ir.Function.Validate call. It
// exists for the verifier's adversarial fixtures: structurally broken
// functions (an op after a branch, a RET with successors) must be loadable
// so the IR well-formedness rules can be exercised against them.
//
// The parser sits on the daemon's request path (every /v1 compile body
// carries .tir text), so it slab-allocates: one pre-scan counts ops and
// operands, then all ops, op pointers, and operand registers are carved out
// of three backing arrays instead of one allocation per op.
func ParseUnchecked(src string) (*ir.Function, error) {
	p := &parser{}
	// Pre-scan declarations so forward references resolve and block IDs
	// follow declaration order (Print/Parse round-trips preserve layout),
	// counting the op lines per block for the slab carve.
	var fnName string
	var fnParams, fnRets []ir.Reg
	var labels, labelLines, opsPerLabel []int
	nops := 0
	lineNo := 0
	for rest := src; len(rest) > 0 || lineNo == 0; {
		var raw string
		raw, rest = nextLine(rest)
		lineNo++
		line := clean(raw)
		switch {
		case line == "":
		case strings.HasPrefix(line, "func "):
			if fnName != "" {
				return nil, fmt.Errorf("irtext: line %d: duplicate func declaration (use ParseProgram for multi-function files)", lineNo)
			}
			name, params, rets, err := funcHeader(strings.TrimSpace(strings.TrimPrefix(line, "func ")))
			if err != nil {
				return nil, fmt.Errorf("irtext: line %d: %w", lineNo, err)
			}
			fnName, fnParams, fnRets = name, params, rets
		case strings.HasSuffix(line, ":"):
			if fnName == "" {
				return nil, fmt.Errorf("irtext: line %d: block before func declaration", lineNo)
			}
			n, err := blockNum(strings.TrimSuffix(line, ":"))
			if err != nil {
				return nil, fmt.Errorf("irtext: line %d: %w", lineNo, err)
			}
			labels = append(labels, n)
			labelLines = append(labelLines, lineNo)
			opsPerLabel = append(opsPerLabel, 0)
		case strings.HasPrefix(line, "fallthrough"):
		default:
			if len(opsPerLabel) > 0 {
				opsPerLabel[len(opsPerLabel)-1]++
			}
			nops++
		}
	}
	if fnName == "" {
		return nil, fmt.Errorf("irtext: no function declared")
	}

	p.fn = ir.NewFunction(fnName)
	p.fn.Params, p.fn.Rets = fnParams, fnRets
	for _, r := range fnParams {
		p.fn.NoteReg(r)
	}
	for _, r := range fnRets {
		p.fn.NoteReg(r)
	}
	// Machine-generated text declares bb0..bbN-1 in order; then the label
	// IS the block index and the lookup is a slice. Hand-written files with
	// gaps or shuffled labels fall back to a map.
	dense := true
	for i, n := range labels {
		if n != i {
			dense = false
			break
		}
	}
	if dense {
		for range labels {
			p.fn.NewBlock()
		}
		p.denseLabels = p.fn.Blocks
	} else {
		p.declared = make(map[int]*ir.Block, len(labels))
		for i, n := range labels {
			if _, dup := p.declared[n]; dup {
				return nil, fmt.Errorf("irtext: line %d: bb%d declared twice", labelLines[i], n)
			}
			p.declared[n] = p.fn.NewBlock()
		}
	}

	p.opSlab = make([]ir.Op, nops)
	p.opPtrs = make([]*ir.Op, 0, nops)
	p.regSlab = make([]ir.Reg, 4*nops) // ≤2 dests + ≤2 srcs per op
	p.opsPerLabel = opsPerLabel

	lineNo = 0
	first := true
	for rest := src; len(rest) > 0 || first; {
		var raw string
		raw, rest = nextLine(rest)
		first = false
		lineNo++
		line := clean(raw)
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("irtext: line %d: %w", lineNo, err)
		}
	}
	return p.fn, nil
}

// funcHeader parses the token(s) after "func ": a bare name, or
// "name(r1, r2)" optionally followed by "-> (r3)" declaring the call
// convention registers.
func funcHeader(hdr string) (name string, params, rets []ir.Reg, err error) {
	if hdr == "" {
		return "", nil, nil, fmt.Errorf("func needs a name")
	}
	paren := strings.IndexByte(hdr, '(')
	if paren < 0 {
		if strings.ContainsAny(hdr, " \t") {
			return "", nil, nil, fmt.Errorf("bad func header %q", hdr)
		}
		return hdr, nil, nil, nil
	}
	name = strings.TrimSpace(hdr[:paren])
	if name == "" {
		return "", nil, nil, fmt.Errorf("func needs a name")
	}
	rest := hdr[paren:]
	params, rest, err = regList(rest)
	if err != nil {
		return "", nil, nil, err
	}
	rest = strings.TrimSpace(rest)
	if rest != "" {
		if !strings.HasPrefix(rest, "->") {
			return "", nil, nil, fmt.Errorf("bad func header %q", hdr)
		}
		rets, rest, err = regList(strings.TrimSpace(rest[2:]))
		if err != nil {
			return "", nil, nil, err
		}
		if strings.TrimSpace(rest) != "" {
			return "", nil, nil, fmt.Errorf("bad func header %q", hdr)
		}
	}
	return name, params, rets, nil
}

// regList parses a parenthesized comma-separated register list, returning
// the registers and the unconsumed remainder. "()" yields an empty list.
func regList(s string) ([]ir.Reg, string, error) {
	if !strings.HasPrefix(s, "(") {
		return nil, "", fmt.Errorf("expected '(' in %q", s)
	}
	end := strings.IndexByte(s, ')')
	if end < 0 {
		return nil, "", fmt.Errorf("unterminated register list in %q", s)
	}
	inner := strings.TrimSpace(s[1:end])
	rest := s[end+1:]
	if inner == "" {
		return nil, rest, nil
	}
	var out []ir.Reg
	for _, tok := range strings.Split(inner, ",") {
		r, err := reg(tok)
		if err != nil {
			return nil, "", err
		}
		if !r.IsValid() {
			return nil, "", fmt.Errorf("bad register in list %q", inner)
		}
		out = append(out, r)
	}
	return out, rest, nil
}

// nextLine splits off the first line of s (without the newline).
func nextLine(s string) (line, rest string) {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

func clean(raw string) string {
	line := raw
	if idx := strings.IndexByte(line, ';'); idx >= 0 {
		line = line[:idx]
	}
	return strings.TrimSpace(line)
}

type parser struct {
	fn  *ir.Function
	cur *ir.Block
	// Exactly one of denseLabels/declared resolves textual labels:
	// denseLabels when labels are 0..n-1 in declaration order (index ==
	// label), declared otherwise.
	denseLabels []*ir.Block
	declared    map[int]*ir.Block

	opSlab      []ir.Op  // backing array for all ops
	opPtrs      []*ir.Op // backing array for the blocks' Ops slices
	regSlab     []ir.Reg // backing array for all Dests/Srcs
	oi, ri      int
	opsPerLabel []int // op-line count per declaration, for carving opPtrs
	labelIdx    int   // next declaration index in the second pass
}

// block resolves the block labelled bbN, which must be declared.
func (p *parser) block(n int) (*ir.Block, error) {
	if p.denseLabels != nil {
		if n >= 0 && n < len(p.denseLabels) {
			return p.denseLabels[n], nil
		}
	} else if b, ok := p.declared[n]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("reference to undeclared bb%d", n)
}

func (p *parser) line(line string) error {
	switch {
	case strings.HasPrefix(line, "func "):
		return nil // handled in the pre-scan
	case strings.HasSuffix(line, ":"):
		n, err := blockNum(strings.TrimSuffix(line, ":"))
		if err != nil {
			return err
		}
		p.cur, err = p.block(n)
		if err != nil {
			return err
		}
		// Carve this block's Ops pointer slice: full-cap so appends fill
		// the carved region and never spill into the next block's.
		cnt := p.opsPerLabel[p.labelIdx]
		p.labelIdx++
		off := len(p.opPtrs)
		p.opPtrs = p.opPtrs[:off+cnt]
		p.cur.Ops = p.opPtrs[off : off : off+cnt]
		return nil
	case p.cur == nil:
		return fmt.Errorf("op outside a block")
	case strings.HasPrefix(line, "fallthrough"):
		t, err := p.target(strings.TrimSpace(strings.TrimPrefix(line, "fallthrough")))
		if err != nil {
			return err
		}
		p.cur.FallThrough = t
		return nil
	default:
		return p.op(line)
	}
}

// carveRegs copies n registers from buf into the shared register slab and
// returns the full-cap sub-slice.
func (p *parser) carveRegs(buf []ir.Reg) []ir.Reg {
	n := len(buf)
	if n == 0 {
		return nil
	}
	s := p.regSlab[p.ri : p.ri+n : p.ri+n]
	copy(s, buf)
	p.ri += n
	return s
}

func blockNum(tok string) (int, error) {
	if !strings.HasPrefix(tok, "bb") {
		return 0, fmt.Errorf("bad block label %q", tok)
	}
	n, err := strconv.Atoi(tok[2:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad block label %q", tok)
	}
	return n, nil
}

// reg parses a register token: r3, p1, b0, f2, or _ for none.
func reg(tok string) (ir.Reg, error) {
	tok = strings.TrimSpace(tok)
	if tok == "_" {
		return ir.NoReg, nil
	}
	if len(tok) < 2 {
		return ir.NoReg, fmt.Errorf("bad register %q", tok)
	}
	var class ir.RegClass
	switch tok[0] {
	case 'r':
		class = ir.ClassGPR
	case 'p':
		class = ir.ClassPred
	case 'b':
		class = ir.ClassBTR
	case 'f':
		class = ir.ClassFPR
	default:
		return ir.NoReg, fmt.Errorf("bad register %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 {
		return ir.NoReg, fmt.Errorf("bad register %q", tok)
	}
	if n > ir.MaxRegNum {
		return ir.NoReg, fmt.Errorf("register %q above %c%d", tok, tok[0], ir.MaxRegNum)
	}
	return ir.Reg{Class: class, Num: n}, nil
}

// target parses @bbN.
func (p *parser) target(tok string) (ir.BlockID, error) {
	tok = strings.TrimSpace(tok)
	if !strings.HasPrefix(tok, "@") {
		return ir.NoBlock, fmt.Errorf("bad target %q", tok)
	}
	n, err := blockNum(tok[1:])
	if err != nil {
		return ir.NoBlock, err
	}
	b, err := p.block(n)
	if err != nil {
		return ir.NoBlock, err
	}
	return b.ID, nil
}

var opcodeByName = func() map[string]ir.Opcode {
	m := make(map[string]ir.Opcode, len(mnemonics))
	//det:ordered inverting an injective table; the resulting map is the same under any insertion order
	for o, s := range mnemonics {
		m[s] = o
	}
	return m
}()

var condByName = func() map[string]ir.Cond {
	m := make(map[string]ir.Cond, len(condNames))
	//det:ordered inverting an injective table; the resulting map is the same under any insertion order
	for c, s := range condNames {
		m[s] = c
	}
	return m
}()

// split2 splits s at its single comma; ok is false when s has zero or more
// than one comma.
func split2(s string) (a, b string, ok bool) {
	i := strings.IndexByte(s, ',')
	if i < 0 || strings.IndexByte(s[i+1:], ',') >= 0 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// op parses one instruction line into the current block.
func (p *parser) op(line string) error {
	guard := ir.NoReg
	if strings.HasPrefix(line, "(") {
		end := strings.IndexByte(line, ')')
		if end < 0 {
			return fmt.Errorf("unterminated guard")
		}
		g, err := reg(line[1:end])
		if err != nil {
			return err
		}
		if g.Class != ir.ClassPred {
			return fmt.Errorf("guard %q is not a predicate", line[1:end])
		}
		guard = g
		line = strings.TrimSpace(line[end+1:])
	}

	// Only the first two parsed destinations are kept (no op takes more);
	// ndests still counts them all so arity errors report the real count.
	var destBuf [2]ir.Reg
	ndests := 0
	rest := line
	if eq := strings.IndexByte(line, '='); eq >= 0 && strings.IndexByte(line[:eq], '[') < 0 {
		for tok := line[:eq]; ; {
			var seg string
			if i := strings.IndexByte(tok, ','); i >= 0 {
				seg, tok = tok[:i], tok[i+1:]
			} else {
				seg, tok = tok, ""
			}
			d, err := reg(seg)
			if err != nil {
				return err
			}
			p.fn.NoteReg(d)
			if ndests < len(destBuf) {
				destBuf[ndests] = d
			}
			ndests++
			if tok == "" {
				break
			}
		}
		rest = strings.TrimSpace(line[eq+1:])
	}
	dests := p.carveRegs(destBuf[:min(ndests, len(destBuf))])

	name := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name = rest[:i]
	}
	if name == "" {
		return fmt.Errorf("empty op")
	}
	args := strings.TrimSpace(strings.TrimPrefix(rest, name))
	opc, ok := opcodeByName[name]
	if !ok {
		return fmt.Errorf("unknown op %q", name)
	}

	op := &p.opSlab[p.oi]
	p.oi++
	p.fn.InitOp(op, opc)
	op.Dests = dests
	op.Guard = guard
	b := p.cur

	fail := func(format string, a ...interface{}) error {
		return fmt.Errorf("%s: "+format, append([]interface{}{name}, a...)...)
	}
	wantDests := func(n int) error {
		if ndests != n {
			return fail("needs %d destination(s), got %d", n, ndests)
		}
		return nil
	}
	var srcBuf [2]ir.Reg

	switch opc {
	case ir.MovI:
		if err := wantDests(1); err != nil {
			return err
		}
		v, err := strconv.ParseInt(strings.TrimSpace(args), 10, 64)
		if err != nil {
			return fail("bad immediate %q", args)
		}
		op.Imm = v
	case ir.Mov, ir.Copy:
		if err := wantDests(1); err != nil {
			return err
		}
		s, err := reg(args)
		if err != nil {
			return err
		}
		srcBuf[0] = s
		op.Srcs = p.carveRegs(srcBuf[:1])
	case ir.Ld:
		if err := wantDests(1); err != nil {
			return err
		}
		base, off, err := memOperand(args)
		if err != nil {
			return err
		}
		srcBuf[0] = base
		op.Srcs = p.carveRegs(srcBuf[:1])
		op.Imm = off
	case ir.St:
		if ndests != 0 {
			return fail("takes no destinations")
		}
		comma := strings.LastIndexByte(args, ',')
		if comma < 0 {
			return fail("needs [base+off], value")
		}
		base, off, err := memOperand(strings.TrimSpace(args[:comma]))
		if err != nil {
			return err
		}
		v, err := reg(args[comma+1:])
		if err != nil {
			return err
		}
		srcBuf[0], srcBuf[1] = base, v
		op.Srcs = p.carveRegs(srcBuf[:2])
		op.Imm = off
	case ir.Cmpp:
		if ndests != 1 && ndests != 2 {
			return fail("needs 1 or 2 destinations")
		}
		cname := args
		if i := strings.IndexAny(args, " \t"); i >= 0 {
			cname = args[:i]
		}
		if cname == "" {
			return fail("needs a condition and two sources")
		}
		cond, ok := condByName[cname]
		if !ok {
			return fail("unknown condition %q", cname)
		}
		op.Cond = cond
		sa, sb, ok := split2(strings.TrimSpace(strings.TrimPrefix(args, cname)))
		if !ok {
			return fail("needs two sources")
		}
		a, err := reg(sa)
		if err != nil {
			return err
		}
		c, err := reg(sb)
		if err != nil {
			return err
		}
		srcBuf[0], srcBuf[1] = a, c
		op.Srcs = p.carveRegs(srcBuf[:2])
	case ir.Pbr:
		if err := wantDests(1); err != nil {
			return err
		}
		t, err := p.target(args)
		if err != nil {
			return err
		}
		op.Target = t
	case ir.Brct, ir.Brcf:
		if ndests != 0 {
			return fail("takes no destinations")
		}
		prob := 0.5
		if h := strings.LastIndexByte(args, '#'); h >= 0 {
			v, err := strconv.ParseFloat(strings.TrimSpace(args[h+1:]), 64)
			if err != nil || v < 0 || v > 1 {
				return fail("bad probability %q", args[h+1:])
			}
			prob = v
			args = strings.TrimSpace(args[:h])
		}
		c1 := strings.IndexByte(args, ',')
		var c2 int = -1
		if c1 >= 0 {
			if j := strings.IndexByte(args[c1+1:], ','); j >= 0 {
				c2 = c1 + 1 + j
			}
		}
		if c1 < 0 || c2 < 0 || strings.IndexByte(args[c2+1:], ',') >= 0 {
			return fail("needs btr, pred, @target")
		}
		btr, err := reg(args[:c1])
		if err != nil {
			return err
		}
		pr, err := reg(args[c1+1 : c2])
		if err != nil {
			return err
		}
		t, err := p.target(args[c2+1:])
		if err != nil {
			return err
		}
		srcBuf[0], srcBuf[1] = btr, pr // NoReg btr slot matches the builder's layout
		op.Srcs = p.carveRegs(srcBuf[:2])
		op.Target = t
		op.Prob = prob
	case ir.Bru:
		if ndests != 0 {
			return fail("takes no destinations")
		}
		t, err := p.target(args)
		if err != nil {
			return err
		}
		op.Target = t
		op.Prob = 1
	case ir.Call:
		args = strings.TrimSpace(args)
		if args == "" {
			// Legacy opaque call: bare barrier, no callee.
			if ndests != 0 {
				return fail("opaque call takes no destinations")
			}
			break
		}
		if !strings.HasPrefix(args, "@") {
			return fail("callee must be @name")
		}
		callee := args[1:]
		rest := ""
		if i := strings.IndexAny(callee, " \t"); i >= 0 {
			callee, rest = callee[:i], strings.TrimSpace(callee[i:])
		}
		if callee == "" {
			return fail("bad callee %q", "@"+callee)
		}
		if _, err := blockNum(callee); err == nil {
			return fail("callee %q looks like a block label", "@"+callee)
		}
		op.Callee = callee
		if ndests > len(destBuf) {
			return fail("takes at most %d destinations", len(destBuf))
		}
		if rest != "" {
			nsrcs := 0
			for _, tok := range strings.Split(rest, ",") {
				s, err := reg(tok)
				if err != nil {
					return err
				}
				if nsrcs >= len(srcBuf) {
					return fail("takes at most %d arguments", len(srcBuf))
				}
				srcBuf[nsrcs] = s
				nsrcs++
			}
			op.Srcs = p.carveRegs(srcBuf[:nsrcs])
		}
	case ir.Ret, ir.Nop:
		if strings.TrimSpace(args) != "" {
			return fail("takes no operands")
		}
	default: // two-source ALU / FP
		if err := wantDests(1); err != nil {
			return err
		}
		sa, sb, ok := split2(args)
		if !ok {
			return fail("needs two sources")
		}
		a, err := reg(sa)
		if err != nil {
			return err
		}
		c, err := reg(sb)
		if err != nil {
			return err
		}
		srcBuf[0], srcBuf[1] = a, c
		op.Srcs = p.carveRegs(srcBuf[:2])
	}
	for _, s := range op.Srcs {
		p.fn.NoteReg(s)
	}
	p.fn.NoteReg(op.Guard)
	b.Ops = append(b.Ops, op)
	return nil
}

// memOperand parses [reg+off] (off may be negative: [r1+-8] or [r1-8]).
func memOperand(tok string) (ir.Reg, int64, error) {
	tok = strings.TrimSpace(tok)
	if !strings.HasPrefix(tok, "[") || !strings.HasSuffix(tok, "]") {
		return ir.NoReg, 0, fmt.Errorf("bad memory operand %q", tok)
	}
	inner := tok[1 : len(tok)-1]
	sep := strings.IndexAny(inner[1:], "+-")
	if sep < 0 {
		return ir.NoReg, 0, fmt.Errorf("bad memory operand %q", tok)
	}
	sep++
	base, err := reg(inner[:sep])
	if err != nil {
		return ir.NoReg, 0, err
	}
	offStr := inner[sep:]
	if strings.HasPrefix(offStr, "+") {
		offStr = offStr[1:]
	}
	off, err := strconv.ParseInt(offStr, 10, 64)
	if err != nil {
		return ir.NoReg, 0, fmt.Errorf("bad offset in %q", tok)
	}
	return base, off, nil
}
