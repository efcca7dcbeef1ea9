package store

import (
	"bytes"
	"testing"
)

// FuzzDecodeArtifact checks the tgart2 decoder against arbitrary payloads:
// each one reads as schema skew, reads as corruption, or decodes to a result
// whose encoding is a fixed point — decoding and re-encoding it gives the
// same bytes — and none makes the codec panic. The seed corpus in
// testdata/fuzz/FuzzDecodeArtifact holds encoded suite artifacts, the
// paper's Figure 1 under tree and tree-td, and the TestCorruptSectionFixtures
// corruptions of Figure 1's artifact; plain `go test` replays it, and `make
// fuzz` searches for new inputs.
func FuzzDecodeArtifact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decode(data)
		if err != nil {
			return // skew or corruption: the store reads either as a miss
		}
		b1, err := encode(fr)
		if err != nil {
			t.Fatalf("a decoded result does not encode: %v", err)
		}
		fr2, err := decode(b1)
		if err != nil {
			t.Fatalf("the encoding of a decoded result does not decode: %v", err)
		}
		b2, err := encode(fr2)
		if err != nil {
			t.Fatalf("a re-decoded result does not encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("re-encoding is not byte-stable: %d vs %d bytes", len(b1), len(b2))
		}
	})
}
