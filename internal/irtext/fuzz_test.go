package irtext

import "testing"

// FuzzParseProgram checks the text form round-trips: whatever ParseProgram
// accepts prints to text that parses again and prints back to the same
// bytes, and nothing it is fed makes it panic. The seed corpus in
// testdata/fuzz/FuzzParseProgram holds the example programs, the paper's
// Figure 1 and every crasher found so far; plain `go test` replays it, and
// `make fuzz` searches for new inputs.
func FuzzParseProgram(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseProgram(src)
		if err != nil {
			return
		}
		text := PrintProgram(p)
		back, err := ParseProgram(text)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, text)
		}
		if again := PrintProgram(back); again != text {
			t.Fatalf("print is not a fixed point:\nfirst:\n%s\nsecond:\n%s", text, again)
		}
	})
}
