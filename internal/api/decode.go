package api

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// maxDepth is encoding/json's nesting bound.
const maxDepth = 10000

// A decoder reads one compile body left to right, once (DESIGN.md §30),
// and accepts, decodes and refuses what encoding/json's Decoder did. It
// returns at the first syntax error, and keeps the first unknown field or
// type mismatch in err, past which it only checks syntax.
type decoder struct {
	data  []byte
	pos   int
	valid []string // the schema's field names, which unknown_field lists
	err   *Failure
}

// A field is a body field's name and where its value decodes to.
type field struct {
	name string
	ptr  any
}

// fields are c's fields, then more.
func (c *CompileConfig) fields(more ...field) []field {
	return append(more, field{"region", &c.Region}, field{"heuristic", &c.Heuristic},
		field{"machine", &c.Machine}, field{"rename", &c.Rename}, field{"dompar", &c.DomPar},
		field{"ifconvert", &c.IfConvert}, field{"expansion_limit", &c.ExpansionLimit},
		field{"seed", &c.Seed}, field{"trips", &c.Trips}, field{"verify", &c.Verify},
		field{"inline", &c.Inline})
}

// decodeCompileBody decodes a /v1/compile body or POST /v1/jobs payload.
func decodeCompileBody(data []byte, b *CompileBody) *Failure {
	return (&decoder{data: data, valid: compileFields}).body(b.CompileConfig.fields(field{"ir", &b.IR}, field{"schedules", &b.Schedules}, field{"trace", &b.Trace}))
}

// decodeBatchBody decodes a /v1/compile-batch body.
func decodeBatchBody(data []byte, b *BatchBody) *Failure {
	return (&decoder{data: data, valid: batchFields}).body(b.CompileConfig.fields(field{"functions", &b.Functions}, field{"schedules", &b.Schedules}))
}

// body decodes the whole body: an object of fields, or null (the zero
// body), then only whitespace.
func (d *decoder) body(fields []field) *Failure {
	d.ws()
	if f := cmp.Or(d.value(&fields, "the body", 0), d.err); f != nil {
		return f
	}
	if d.ws(); d.pos < len(d.data) {
		return d.syntax(d.pos, "after the body's value")
	}
	return nil
}

// object reads the object at d.pos, of depth depth. A key names the field
// it equals, or else the one it equals under Unicode case folding, which
// is one test, as no two field names fold to one. A repeated key's last
// value wins; a key that names none is an unknown field. With no fields
// it only checks syntax.
func (d *decoder) object(depth int, fields []field) *Failure {
	return d.container(depth, '}', func() *Failure {
		if d.peek() != '"' {
			return d.syntax(d.pos, "looking for an object key")
		}
		raw, n, bad, f := d.scan()
		if f != nil {
			return f
		}
		if d.ws(); d.peek() != ':' {
			return d.syntax(d.pos, "after an object key")
		}
		d.pos++
		if d.ws(); fields == nil || d.err != nil {
			return d.skip(depth)
		}
		key := unquote(raw, n, bad)
		for _, fl := range fields {
			if strings.EqualFold(key, fl.name) {
				return d.value(fl.ptr, fl.name, depth)
			}
		}
		d.err = unknownKey(key, d.valid)
		return d.skip(depth)
	})
}

// container reads the object or array at d.pos, of depth depth and closed
// by end, calling member at each member.
func (d *decoder) container(depth int, end byte, member func() *Failure) *Failure {
	if depth > maxDepth {
		return d.syntax(d.pos, "nesting deeper than 10000 levels")
	}
	d.pos++
	if d.ws(); d.peek() == end {
		d.pos++
		return nil
	}
	for {
		if f := member(); f != nil {
			return f
		}
		switch d.ws(); d.peek() {
		case ',':
			d.pos++
			d.ws()
		case end:
			d.pos++
			return nil
		default:
			return d.syntax(d.pos, "after a member")
		}
	}
}

// value decodes the value at d.pos, in a container of depth depth, into
// what ptr points to: a field, or an object's fields. null leaves it as
// it was, but sets a pointer or a slice to nil. A value of another type,
// or a number the field cannot hold, is a type mismatch.
func (d *decoder) value(ptr any, name string, depth int) *Failure {
	at, c := d.pos, d.peek()
	if c == 'n' {
		switch p := ptr.(type) {
		case **bool:
			*p = nil
		case *[]BatchFunction:
			*p = nil
		}
		return d.literal()
	}
	switch p := ptr.(type) {
	case *string:
		if c == '"' {
			raw, n, bad, f := d.scan()
			*p = unquote(raw, n, bad)
			return f
		}
	case *bool:
		if c == 't' || c == 'f' {
			*p = c == 't'
			return d.literal()
		}
	case **bool:
		if c == 't' || c == 'f' {
			*p = new(bool)
			return d.value(*p, name, depth)
		}
	case *[]BatchFunction:
		if c == '[' {
			return d.functions(p, depth+1)
		}
	case *[]field:
		if c == '{' {
			return d.object(depth+1, *p)
		}
	default: // a number
		if c == '-' || '0' <= c && c <= '9' {
			lit, f := d.number()
			if f != nil {
				return f
			}
			var err error
			switch p := ptr.(type) {
			case *float64:
				*p, err = strconv.ParseFloat(string(lit), 64)
			case *uint64:
				*p, err = strconv.ParseUint(string(lit), 10, 64)
			case *int:
				*p, err = strconv.Atoi(string(lit))
			}
			if err != nil {
				d.err = d.fail(at, "number %s does not fit %s", lit, name)
			}
			return nil
		}
	}
	got := map[byte]string{'{': "an object", '[': "an array", '"': "a string", 't': "a bool", 'f': "a bool"}[c]
	d.err = d.fail(at, "%s cannot hold %s", name, cmp.Or(got, "a number"))
	return d.skip(depth)
}

// functions reads the functions array, of depth depth, into *fns. As
// encoding/json did, it decodes element i over the element i that an
// earlier "functions" key left in the slice's backing array, past the
// slice's length too; an empty array is an empty slice.
func (d *decoder) functions(fns *[]BatchFunction, depth int) *Failure {
	s, i := *fns, 0
	f := d.container(depth, ']', func() *Failure {
		if i == len(s) {
			s = slices.Grow(s, 1)[:i+1]
		}
		i++
		if d.err != nil {
			return d.skip(depth)
		}
		return d.value(&[]field{{"ir", &s[i-1].IR}}, "an element of functions", depth)
	})
	if i == 0 {
		s = []BatchFunction{}
	}
	*fns = s[:i]
	return f
}

// skip checks the syntax of the value at d.pos, in a container of depth
// depth, and moves past it.
func (d *decoder) skip(depth int) *Failure {
	switch c := d.peek(); {
	case c == '{':
		return d.object(depth+1, nil)
	case c == '[':
		return d.container(depth+1, ']', func() *Failure { return d.skip(depth + 1) })
	case c == '"':
		_, _, _, f := d.scan()
		return f
	case c == 't' || c == 'f' || c == 'n':
		return d.literal()
	}
	_, f := d.number()
	return f
}

// scan reads the string at d.pos through its closing quote, checking its
// escapes and control bytes. It returns the bytes between the quotes, the
// length of their decoded form, and whether they hold invalid UTF-8. It
// skips eight plain bytes at a time: m flags, in its high bit, each byte
// of the eight that is a quote, a backslash, a control byte or part of a
// multi-byte sequence, and its lowest flag is exact.
func (d *decoder) scan() (raw []byte, n int, bad bool, f *Failure) {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	s, start := d.data, d.pos+1
	for i := start; i < len(s); {
		if i+8 <= len(s) {
			x := binary.LittleEndian.Uint64(s[i:])
			q, b := x^(ones*'"'), x^(ones*'\\')
			if m := ((x-ones*' ')&^x | (q-ones)&^q | (b-ones)&^b | x) & highs; m != 0 {
				i += bits.TrailingZeros64(m) / 8
			} else {
				i += 8
				continue
			}
		}
		switch c := s[i]; {
		case ' ' <= c && c < utf8.RuneSelf && c != '"' && c != '\\':
			i++
		case c == '"':
			d.pos = i + 1
			return s[start:i], n + i - start, bad, nil
		case c == '\\':
			r, w := escape(s[i:])
			if w == 0 {
				return nil, 0, false, d.syntax(i, "in a string escape")
			}
			n += utf8.RuneLen(r) - w
			i += w
		case c < ' ':
			return nil, 0, false, d.syntax(i, "in a string")
		default: // U+FFFD stands for each byte of invalid UTF-8
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				n += utf8.RuneLen(r) - 1
				bad = true
			}
			i += size
		}
	}
	return nil, 0, false, d.syntax(len(s), "in a string")
}

// unquote decodes raw, a string's checked contents, into one allocation of
// its decoded length n. A run between escapes is copied whole, unless bad
// says raw holds invalid UTF-8, each byte of which is U+FFFD.
func unquote(raw []byte, n int, bad bool) string {
	if n == 0 {
		return ""
	}
	buf, w := make([]byte, n), 0
	for len(raw) > 0 {
		k := bytes.IndexByte(raw, '\\')
		if k < 0 {
			k = len(raw)
		}
		if !bad {
			w += copy(buf[w:], raw[:k])
		} else {
			for _, r := range string(raw[:k]) {
				w += utf8.EncodeRune(buf[w:], r)
			}
		}
		if raw = raw[k:]; len(raw) > 0 {
			r, size := escape(raw)
			w += utf8.EncodeRune(buf[w:], r)
			raw = raw[size:]
		}
	}
	return unsafe.String(unsafe.SliceData(buf), n)
}

// escape decodes the escape sequence s starts with: the rune it stands for
// and its length, 0 when s starts with no valid escape. A \u escape of a
// UTF-16 surrogate joins the \u escape after it into one rune when the two
// form a pair; an unpaired surrogate is U+FFFD.
func escape(s []byte) (rune, int) {
	if len(s) < 6 || s[1] != 'u' {
		if len(s) < 2 || escaped[s[1]] == 0 {
			return 0, 0
		}
		return rune(escaped[s[1]]), 2
	}
	switch r := hex4(s[2:]); {
	case r < 0:
		return 0, 0
	case !utf16.IsSurrogate(r):
		return r, 6
	case len(s) >= 12 && s[6] == '\\' && s[7] == 'u':
		if pair := utf16.DecodeRune(r, hex4(s[8:])); pair != utf8.RuneError {
			return pair, 12
		}
	}
	return utf8.RuneError, 6
}

// escaped maps the byte after a backslash to what its two-byte escape is.
var escaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 is the value of the four hex digits s starts with, or -1.
func hex4(s []byte) rune {
	v, err := strconv.ParseUint(string(s[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// numberRE is JSON's number grammar.
var numberRE = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)

// number reads the number at d.pos and returns its literal.
func (d *decoder) number() ([]byte, *Failure) {
	lit := numberRE.Find(d.data[d.pos:])
	if lit == nil {
		return nil, d.syntax(d.pos, "looking for a value")
	}
	d.pos += len(lit)
	return lit, nil
}

// literal reads the true, false or null at d.pos.
func (d *decoder) literal() *Failure {
	for _, word := range []string{"true", "false", "null"} {
		if bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
			d.pos += len(word)
			return nil
		}
	}
	return d.syntax(d.pos, "in a literal")
}

// ws moves past whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.data) && strings.IndexByte(" \t\n\r", d.data[d.pos]) >= 0 {
		d.pos++
	}
}

// peek is the byte at d.pos, 0 at the end.
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// syntax is the bad_json failure of the byte at offset at, met where.
func (d *decoder) syntax(at int, where string) *Failure {
	if at >= len(d.data) {
		return d.fail(at, "unexpected end of the body")
	}
	return d.fail(at, "invalid character %q %s", d.data[at], where)
}

// fail is a bad_json failure at the byte offset at.
func (d *decoder) fail(at int, format string, args ...any) *Failure {
	return Fail(http.StatusBadRequest, "bad_json", fmt.Errorf("bad request body: %s at offset %d", fmt.Sprintf(format, args...), at))
}

// unknownKey is the unknown_field failure of key, which it names as the
// old decoder's error text quoted it and as parsing that text cut it: at
// the first quote after the opening one.
func unknownKey(key string, valid []string) *Failure {
	quoted := strconv.Quote(key)[1:]
	return Fail(http.StatusBadRequest, "unknown_field", fmt.Errorf("unknown config field %q (valid fields: %s)",
		quoted[:strings.IndexByte(quoted, '"')], strings.Join(valid, ", ")))
}

// bytesOf is a read-only view of s's bytes, for hashing s without a copy.
func bytesOf(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}
