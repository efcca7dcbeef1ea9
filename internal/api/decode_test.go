package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"

	"treegion/internal/irtext"
	"treegion/internal/progen"
)

// decodeCase is one body for both decoders: batch picks the
// /v1/compile-batch schema, else the /v1/compile one.
type decodeCase struct {
	name  string
	batch bool
	body  string
}

// deep nests n arrays inside the value of an unknown field, so the body
// nests n+1 containers in all.
func deep(n int) string {
	return `{"x": ` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
}

// placedCases put each kind of byte a string is checked for, one at a
// time, at every offset of a string's first sixteen bytes, so the scan,
// which checks eight bytes at a time, meets it at every place in a word.
func placedCases() []decodeCase {
	var cases []decodeCase
	for _, b := range []string{`\n`, `\"`, `\u00e9`, `\ud83d\ude00`, `\ud83d`, "\x01", "\x1f", "\n", "\x7f", "\x80", "\xff", "é", "😀", "\xe2\x82", "\xed\xa0\x80"} {
		for at := 0; at < 16; at++ {
			ir := strings.Repeat("a", at) + b + strings.Repeat("b", 20-at)
			cases = append(cases, decodeCase{fmt.Sprintf("%q at %d", b, at), false, `{"ir": "` + ir + `", "seed": 1}`})
		}
	}
	return cases
}

// decodeEdgeCases pin each rule of the decoder's contract (decode.go),
// accepted and refused: key matching, repeated keys, null, escapes and
// UTF-8, syntax errors and their precedence, type mismatches, the
// functions array's reuse of earlier elements, and the nesting bound,
// then the placed cases.
var decodeEdgeCases = append([]decodeCase{
	// A key names a field exactly, or else under case folding.
	{"upper-case key", false, `{"IR": "x"}`},
	{"mixed-case key", false, `{"iR": "x", "MACHINE": "8U"}`},
	{"long s folds to s", false, `{"ir": "x", "ſeed": 5}`},
	{"escaped key", false, `{"\u0069r": "x", "s\u0065ed": 3}`},
	{"folded key in a function", true, `{"functions": [{"Ir": "x"}]}`},
	{"near miss is unknown", false, `{"ir": "x", "ſchedule": true}`},
	// A repeated key's last value wins, folded spellings included.
	{"repeated ir", false, `{"ir": "a", "ir": "b"}`},
	{"repeated folded ir", false, `{"ir": "a", "IR": "b"}`},
	{"repeated seed", false, `{"seed": 1, "ir": "x", "seed": 2}`},
	{"repeated rename", false, `{"ir": "x", "rename": true, "rename": false}`},
	{"repeated region", false, `{"region": "sb", "ir": "x", "region": "tree-td"}`},
	{"repeated schedules", true, `{"functions": [{"ir": "x"}], "schedules": true, "schedules": false}`},
	// null leaves a field as it was, but sets rename and functions to nil.
	{"null ir", false, `{"ir": null}`},
	{"null after ir", false, `{"ir": "x", "ir": null}`},
	{"null after region", false, `{"ir": "x", "region": "sb", "region": null}`},
	{"null after seed", false, `{"ir": "x", "seed": 5, "seed": null}`},
	{"null after trips", false, `{"ir": "x", "trips": 7, "trips": null}`},
	{"null after limit", false, `{"ir": "x", "expansion_limit": 3, "expansion_limit": null}`},
	{"null after dompar", false, `{"ir": "x", "dompar": true, "dompar": null}`},
	{"null rename", false, `{"ir": "x", "rename": false, "rename": null}`},
	{"null functions", true, `{"functions": [{"ir": "x"}], "functions": null}`},
	{"null function", true, `{"functions": [null]}`},
	{"null ir in a function", true, `{"functions": [{"ir": "x", "ir": null}]}`},
	{"top-level null", false, `null`},
	{"top-level null in space", true, " \t\r\nnull \n"},
	{"data after null", false, `null x`},
	{"truncated null", false, `nul`},
	// A repeated functions key decodes over the earlier elements.
	{"functions merge", true, `{"functions": [{"ir": "a"}, {"ir": "b"}], "functions": [{}]}`},
	{"functions regrow", true, `{"functions": [{"ir": "a"}, {"ir": "b"}], "functions": [{"ir": "c"}], "functions": [{}, {}]}`},
	{"functions null element", true, `{"functions": [{"ir": "a"}], "functions": [null]}`},
	{"functions emptied", true, `{"functions": [{"ir": "a"}], "functions": [], "functions": [{}]}`},
	{"functions empty", true, `{"functions": []}`},
	{"functions after null", true, `{"functions": [{"ir": "a"}], "functions": null, "functions": [{}]}`},
	// Escapes, surrogates and invalid UTF-8.
	{"short escapes", false, `{"ir": "\"\\\/\b\f\n\r\t"}`},
	{"unicode escapes", false, `{"ir": "a\u00e9\u20AC\u0000b"}`},
	{"surrogate pair", false, `{"ir": "\ud83d\ude00"}`},
	{"upper-case pair", false, `{"ir": "\uD83D\uDE00"}`},
	{"lone high surrogate", false, `{"ir": "\ud83dx"}`},
	{"lone low surrogate", false, `{"ir": "\ude00"}`},
	{"high then high then low", false, `{"ir": "\ud83d\ud83d\ude00"}`},
	{"high then escape", false, `{"ir": "\ud83d\n"}`},
	{"high then BMP escape", false, `{"ir": "\ud83d\u0041"}`},
	{"high at the end", false, `{"ir": "\ud83d"}`},
	{"escaped U+FFFD", false, `{"ir": "\ufffd"}`},
	{"raw UTF-8", false, `{"ir": "é€😀"}`},
	{"invalid byte", false, "{\"ir\": \"a\xffb\"}"},
	{"encoded surrogate", false, "{\"ir\": \"\xed\xa0\x80\"}"},
	{"overlong encoding", false, "{\"ir\": \"\xc0\xaf\"}"},
	{"truncated sequence", false, "{\"ir\": \"\xe2\x82\"}"},
	{"invalid byte then escape", false, "{\"ir\": \"\xff\\n\xfe\"}"},
	{"invalid byte in a region", false, "{\"ir\": \"x\", \"region\": \"tr\x80ee\"}"},
	// An unknown field, quoted as it always was.
	{"unknown field", false, `{"ir": "x", "mahcine": "8U"}`},
	{"unknown field first", false, `{"bogus": 1, "ir": "x"}`},
	{"unknown object field", false, `{"ir": "x", "bogus": {"y": [1, {"z": null}]}}`},
	{"unknown in a function", true, `{"functions": [{"ir": "x", "name": "f"}]}`},
	{"trace in a batch", true, `{"functions": [{"ir": "x"}], "trace": true}`},
	{"functions in a compile", false, `{"ir": "x", "functions": []}`},
	{"unknown invalid key", false, "{\"ir\": \"x\", \"\xff\": 1}"},
	{"unknown key with a quote", false, `{"ir": "x", "a\"b": 1}`},
	{"unknown key with a newline", false, `{"ir": "x", "a\nb": 1}`},
	{"unknown control key", false, `{"ir": "x", "\u0001": 1}`},
	{"unknown empty key", false, `{"ir": "x", "": 1}`},
	// The first unknown field or type mismatch decides.
	{"unknown before mismatch", false, `{"bogus": 1, "seed": -1}`},
	{"mismatch before unknown", false, `{"seed": -1, "bogus": 1}`},
	{"mismatch in a function before unknown", true, `{"functions": [1, {"bogus": 2}]}`},
	// A syntax error anywhere outranks them.
	{"unknown then truncated", false, `{"bogus": 1, "ir": "x"`},
	{"unknown then control byte", false, "{\"bogus\": 1, \"ir\": \"a\x01b\"}"},
	{"mismatch then trailing comma", false, `{"seed": -1, "ir": "x",}`},
	{"mismatch then bad literal", false, `{"region": 5, "x": tru}`},
	{"unknown then bad nesting", false, `{"bogus": 1, "x": ` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`},
	// ... but not anything after the value, as under encoding/json.
	{"unknown then data after", false, `{"bogus": 1} x`},
	{"mismatch then data after", false, `{"seed": -1} x`},
	// Syntax errors.
	{"empty body", false, ``},
	{"whitespace body", true, " \n\t"},
	{"open brace", false, `{`},
	{"key only", false, `{"ir"`},
	{"colon only", false, `{"ir":`},
	{"no close", false, `{"ir": "x"`},
	{"trailing comma", false, `{"ir": "x",}`},
	{"missing comma", false, `{"ir": "x" "seed": 1}`},
	{"missing colon", false, `{"ir" "x"}`},
	{"single quotes", false, `{'ir': 'x'}`},
	{"bare key", false, `{ir: "x"}`},
	{"control byte", false, "{\"ir\": \"a\x01b\"}"},
	{"raw newline", false, "{\"ir\": \"a\nb\"}"},
	{"bad escape", false, `{"ir": "\x41"}`},
	{"short unicode escape", false, `{"ir": "\u12"}`},
	{"bad hex", false, `{"ir": "\u12G4"}`},
	{"bad pair hex", false, `{"ir": "\ud83d\uZZZZ"}`},
	{"unterminated string", false, `{"ir": "x}`},
	{"leading zero", false, `{"ir": "x", "seed": 01}`},
	{"lone minus", false, `{"ir": "x", "seed": -}`},
	{"bare point", false, `{"ir": "x", "seed": 1.}`},
	{"bare exponent", false, `{"ir": "x", "seed": 1e}`},
	{"signed exponent only", false, `{"ir": "x", "trips": 1e+}`},
	{"plus sign", false, `{"ir": "x", "seed": +1}`},
	{"leading point", false, `{"ir": "x", "expansion_limit": .5}`},
	{"hex number", false, `{"ir": "x", "seed": 0x10}`},
	{"truncated true", false, `{"ir": "x", "dompar": tru}`},
	{"capital True", false, `{"ir": "x", "dompar": True}`},
	{"extra brace", false, `{"ir": "x"}}`},
	{"data after", false, `{"ir": "x"} x`},
	{"second value", false, `{"ir": "x"} {}`},
	{"space after", false, "{\"ir\": \"x\"} \n\t\r "},
	{"byte order mark", false, "\xef\xbb\xbf{\"ir\": \"x\"}"},
	{"top-level array", false, `[]`},
	{"top-level string", false, `"x"`},
	{"top-level number", true, `1`},
	{"top-level true", false, `true`},
	{"bad array", true, `{"functions": [{"ir": "x"},]}`},
	{"unclosed array", true, `{"functions": [{"ir": "x"}`},
	// Nesting: encoding/json allows 10000 levels, the body's object one.
	{"10000 levels", false, deep(9999)},
	{"10001 levels", false, deep(10000)},
	{"10001 levels in a mismatch", false, `{"ir": ` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`},
	{"10001 levels of objects", false, `{"x": ` + strings.Repeat(`{"y": `, 10000) + `1` + strings.Repeat("}", 10000) + `}`},
	// Type mismatches and numbers a field cannot hold.
	{"negative seed", false, `{"ir": "x", "seed": -1}`},
	{"minus zero seed", false, `{"ir": "x", "seed": -0}`},
	{"fractional seed", false, `{"ir": "x", "seed": 1.5}`},
	{"integral fraction seed", false, `{"ir": "x", "seed": 2.0}`},
	{"exponent seed", false, `{"ir": "x", "seed": 1e3}`},
	{"largest seed", false, `{"ir": "x", "seed": 18446744073709551615}`},
	{"overflowing seed", false, `{"ir": "x", "seed": 18446744073709551616}`},
	{"string seed", false, `{"ir": "x", "seed": "5"}`},
	{"negative trips", false, `{"ir": "x", "trips": -5}`},
	{"minus zero trips", false, `{"ir": "x", "trips": -0}`},
	{"fractional trips", false, `{"ir": "x", "trips": 1.0}`},
	{"exponent trips", false, `{"ir": "x", "trips": 1E2}`},
	{"largest trips", false, `{"ir": "x", "trips": 9223372036854775807}`},
	{"overflowing trips", false, `{"ir": "x", "trips": 9223372036854775808}`},
	{"smallest trips", false, `{"ir": "x", "trips": -9223372036854775808}`},
	{"underflowing trips", false, `{"ir": "x", "trips": -9223372036854775809}`},
	{"huge limit", false, `{"ir": "x", "expansion_limit": 1e400}`},
	{"huge negative limit", false, `{"ir": "x", "expansion_limit": -1e400}`},
	{"tiny limit", false, `{"ir": "x", "expansion_limit": 1e-400}`},
	{"exponent limit", false, `{"ir": "x", "expansion_limit": 0.25E+1}`},
	{"minus zero limit", false, `{"ir": "x", "expansion_limit": -0}`},
	{"string limit", false, `{"ir": "x", "expansion_limit": "2"}`},
	{"bool limit", false, `{"ir": "x", "expansion_limit": true}`},
	{"number ir", false, `{"ir": 1}`},
	{"bool region", false, `{"ir": "x", "region": true}`},
	{"array machine", false, `{"ir": "x", "machine": ["8U"]}`},
	{"object heuristic", false, `{"ir": "x", "heuristic": {}}`},
	{"string bool", false, `{"ir": "x", "verify": "true"}`},
	{"number bool", false, `{"ir": "x", "inline": 1}`},
	{"string rename", false, `{"ir": "x", "rename": "no"}`},
	{"object rename", false, `{"ir": "x", "rename": {}}`},
	{"object functions", true, `{"functions": {"ir": "x"}}`},
	{"string functions", true, `{"functions": "x"}`},
	{"number function", true, `{"functions": [1]}`},
	{"string function", true, `{"functions": ["x"]}`},
	{"array function", true, `{"functions": [[]]}`},
	{"bool function", true, `{"functions": [true]}`},
	{"number ir in a function", true, `{"functions": [{"ir": 5}]}`},
}, placedCases()...)

// fig1 is Figure 1's IR.
func fig1(t testing.TB) string {
	src, err := os.ReadFile("../../testdata/fig1.tir")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// marshal is v as a body.
func marshal(t testing.TB, v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// fig1Cases are Figure 1's bodies under both schemas, with every field
// set.
func fig1Cases(t testing.TB) []decodeCase {
	ir := fig1(t)
	off := false
	config := CompileConfig{Region: "tree-td", Heuristic: "exitcount", Machine: "8U", Rename: &off,
		DomPar: true, IfConvert: true, ExpansionLimit: 3.5, Seed: 42, Trips: 50, Verify: true, Inline: true}
	return []decodeCase{
		{"fig1", false, marshal(t, map[string]string{"ir": ir})},
		{"fig1 every field", false, marshal(t, CompileBody{IR: ir, CompileConfig: config, Schedules: true, Trace: true})},
		{"fig1 batch", true, marshal(t, BatchBody{Functions: []BatchFunction{{ir}, {ir}}})},
		{"fig1 batch every field", true, marshal(t, BatchBody{Functions: []BatchFunction{{ir}}, CompileConfig: config, Schedules: true})},
	}
}

// suiteCases are the published suite's functions as perfbench's service
// stream sends them, one /v1/compile body per function in each of its two
// shapes, and one batch of every function.
func suiteCases(t testing.TB) []decodeCase {
	var cases []decodeCase
	var batch BatchBody
	for _, p := range progen.Presets() {
		prog, err := progen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range prog.Funcs {
			ir := irtext.Print(fn)
			seed := uint64(len(cases))*104729 + 1
			cases = append(cases,
				decodeCase{fn.Name + " tree", false, marshal(t, CompileBody{IR: ir,
					CompileConfig: CompileConfig{Region: "tree", Machine: "4U", Seed: seed}})},
				decodeCase{fn.Name + " tree-td", false, marshal(t, CompileBody{IR: ir,
					CompileConfig: CompileConfig{Region: "tree-td", Machine: "8U", ExpansionLimit: 2, Seed: seed}})})
			batch.Functions = append(batch.Functions, BatchFunction{ir})
		}
	}
	return append(cases, decodeCase{"suite batch", true, marshal(t, batch)})
}

// compareDecode decodes body with the decoder and the reference and
// describes any difference: one accepts and the other refuses, they
// refuse with another status or code (or, for unknown_field, another
// message), or they accept with unequal bodies. It returns the
// reference's failure code, "" for an accepted body.
func compareDecode(batch bool, body []byte) (string, error) {
	var got, want any
	var gotF, wantF *Failure
	if batch {
		var g, w BatchBody
		gotF, wantF = decodeBatchBody(body, &g), decodeStrict(body, &w, batchFields)
		got, want = g, w
	} else {
		var g, w CompileBody
		gotF, wantF = decodeCompileBody(body, &g), decodeStrict(body, &w, compileFields)
		got, want = g, w
	}
	switch {
	case gotF == nil && wantF == nil:
		if !reflect.DeepEqual(got, want) {
			return "", fmt.Errorf("decoded %+v, the reference %+v", got, want)
		}
		return "", nil
	case gotF == nil || wantF == nil:
		return "", fmt.Errorf("failure %v, the reference's %v", gotF, wantF)
	case gotF.Status != wantF.Status || gotF.Code() != wantF.Code():
		return "", fmt.Errorf("refused %d %s (%v), the reference %d %s (%v)",
			gotF.Status, gotF.Code(), gotF, wantF.Status, wantF.Code(), wantF)
	case wantF.Code() == "unknown_field" && gotF.Detail.Message != wantF.Detail.Message:
		return "", fmt.Errorf("message %q, the reference's %q", gotF.Detail.Message, wantF.Detail.Message)
	case wantF.Code() == "bad_json" && (!strings.HasPrefix(gotF.Detail.Message, "bad request body: ") ||
		!strings.Contains(gotF.Detail.Message, " at offset ")):
		return "", fmt.Errorf("bad_json message %q has no prefix or offset", gotF.Detail.Message)
	}
	return wantF.Code(), nil
}

// TestDecodeMatchesReference: the decoder gets the reference's outcome on
// the suite's bodies in both of perfbench's shapes and as a batch, on
// Figure 1's with every field set, and on every edge case of the
// contract. The edge cases must reach every outcome.
func TestDecodeMatchesReference(t *testing.T) {
	cases := append(append(suiteCases(t), fig1Cases(t)...), decodeEdgeCases...)
	outcomes := map[string]int{}
	for _, c := range cases {
		code, err := compareDecode(c.batch, []byte(c.body))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if code == "" {
			code = "accepted"
		}
		outcomes[code]++
	}
	for _, code := range []string{"accepted", "bad_json", "unknown_field"} {
		if outcomes[code] == 0 {
			t.Errorf("no case %s", code)
		}
	}
	t.Logf("%d bodies: %v", len(cases), outcomes)
}

// TestDecodeFailures pins what each kind of refusal says: a syntax error
// and a type mismatch name the byte offset where they were met, and an
// unknown field lists the schema's fields.
func TestDecodeFailures(t *testing.T) {
	for _, tc := range []struct {
		batch      bool
		body, want string
	}{
		{false, `{"ir": "x",}`, `bad request body: invalid character '}' looking for an object key at offset 11`},
		{false, `{"ir": "x"`, `bad request body: unexpected end of the body at offset 10`},
		{false, `{"ir": "x", "seed": -1}`, `bad request body: number -1 does not fit seed at offset 20`},
		{false, `{"ir": "x", "trips": 1.5}`, `bad request body: number 1.5 does not fit trips at offset 21`},
		{false, `{"ir": "x", "verify": "yes"}`, `bad request body: verify cannot hold a string at offset 22`},
		{true, `{"functions": [{"ir": "x"}, 7]}`, `bad request body: an element of functions cannot hold a number at offset 28`},
		{false, `{"ir": "x"} x`, `bad request body: invalid character 'x' after the body's value at offset 12`},
		{false, `[1]`, `bad request body: the body cannot hold an array at offset 0`},
		{false, ``, `bad request body: unexpected end of the body at offset 0`},
		{true, `{"functions": [{"ir": "x", "name": "f"}]}`,
			`unknown config field "name" (valid fields: ` + strings.Join(batchFields, ", ") + `)`},
	} {
		var f *Failure
		if tc.batch {
			_, f = DecodeBatch([]byte(tc.body))
		} else {
			_, f = DecodeCompile([]byte(tc.body))
		}
		if f == nil || f.Status != http.StatusBadRequest || f.Detail.Message != tc.want {
			t.Errorf("%s: %v, want 400 %q", tc.body, f, tc.want)
		}
	}
}

// FuzzDecodeBody: on either schema, for any bytes, the decoder gets the
// reference's outcome. The seeds are the edge cases and Figure 1's
// bodies; `make fuzz` searches from them.
func FuzzDecodeBody(f *testing.F) {
	for _, c := range append(fig1Cases(f), decodeEdgeCases...) {
		f.Add(c.batch, []byte(c.body))
	}
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		if _, err := compareDecode(batch, body); err != nil {
			t.Fatal(err)
		}
	})
}
