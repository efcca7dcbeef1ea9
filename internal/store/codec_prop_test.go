package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"treegion/internal/core"
	"treegion/internal/eval"
	"treegion/internal/ir"
	"treegion/internal/progen"
	"treegion/internal/verify"
)

// TestCodecRoundTripMatrix is the codec's property test: over every progen
// preset (including the out-of-suite stress preset) crossed with every
// region former and scheduling heuristic, encode→decode→re-encode must be
// byte-stable (the decoded result serializes to the identical payload — no
// information is normalized away or invented) and the decoded result must
// be semantically equal to the compiled original. Each program contributes
// its first function; the formers and heuristics drive all the layout
// variety the codec can see (tail duplication, if-conversion paths,
// speculation, renaming, merged branches).
func TestCodecRoundTripMatrix(t *testing.T) {
	formers := []eval.RegionKind{eval.BasicBlocks, eval.SLR, eval.Treegion, eval.Superblock, eval.TreegionTD}
	heuristics := []core.Heuristic{core.DepHeight, core.ExitCount, core.GlobalWeight, core.WeightedCount}

	var names []string
	for _, p := range progen.Presets() {
		names = append(names, p.Name)
	}
	names = append(names, "stress")
	// Under -short (the race-detector gate compiles ~10x slower) keep one
	// small preset; the full preset × former × heuristic matrix including
	// stress runs in the plain test pass.
	if testing.Short() {
		names = []string{"compress"}
		heuristics = heuristics[:2]
	}

	for _, name := range names {
		p, ok := progen.PresetByName(name)
		if !ok {
			t.Fatalf("no preset %q", name)
		}
		prog, err := progen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		profs, err := eval.ProfileProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		fn, prof := prog.Funcs[0], profs[0]
		for _, kind := range formers {
			for _, h := range heuristics {
				cfg := eval.DefaultConfig()
				cfg.Kind = kind
				cfg.Heuristic = h
				cfg.DominatorParallelism = kind == eval.TreegionTD
				t.Run(name+"/"+cfg.Fingerprint(), func(t *testing.T) {
					fr, err := eval.CompileFunction(fn.Clone(), prof.Clone(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					b1, err := encode(fr)
					if err != nil {
						t.Fatal(err)
					}
					fr2, err := decode(b1)
					if err != nil {
						t.Fatalf("decode of a fresh encoding failed: %v", err)
					}
					b2, err := encode(fr2)
					if err != nil {
						t.Fatalf("re-encode of a decoded result failed: %v", err)
					}
					if !bytes.Equal(b1, b2) {
						t.Fatalf("re-encoding is not byte-stable: %d vs %d bytes", len(b1), len(b2))
					}
					requireEquivalent(t, fr, fr2)
				})
			}
		}
	}
}

// TestCodecRoundTripDiagnostics pins section 7, which carries a verified
// compile's findings: advisory and Error diagnostics survive
// encode→decode→encode byte for byte, and a severity above Error is
// corruption, not schema skew.
func TestCodecRoundTripDiagnostics(t *testing.T) {
	_, fr := compiled(t)
	fr.Diagnostics = []verify.Diagnostic{
		{Rule: "SC008", Severity: verify.Warning, Fn: fr.Fn.Name, Block: 2, Op: 17, Message: "advisory"},
		{Rule: "SC002", Severity: verify.Error, Fn: fr.Fn.Name, Block: ir.NoBlock, Op: -1, Message: "flow dependence violated"},
	}
	b1, err := encode(fr)
	if err != nil {
		t.Fatal(err)
	}
	fr2, err := decode(b1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(fr2.Diagnostics, fr.Diagnostics) {
		t.Fatalf("diagnostics %v, want %v", fr2.Diagnostics, fr.Diagnostics)
	}
	b2, err := encode(fr2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("re-encoding is not byte-stable: %d vs %d bytes", len(b1), len(b2))
	}

	fr.Diagnostics[1].Severity = verify.Error + 1
	b3, err := encode(fr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(b3); err == nil || err == errSchemaSkew {
		t.Fatalf("severity above Error decoded with err %v, want corruption", err)
	}
}

// sectionTable reads the payload's section table rows as (id, offset,
// length) triples so corruption tests can surgically rewrite them.
func sectionTable(t *testing.T, body []byte) (n int, rows [][3]uint64) {
	t.Helper()
	le := binary.LittleEndian
	if len(body) < 8 {
		t.Fatal("payload too short for a header")
	}
	n = int(le.Uint32(body[4:]))
	for i := 0; i < n; i++ {
		row := body[8+i*secHdrSize:]
		rows = append(rows, [3]uint64{uint64(le.Uint32(row)), le.Uint64(row[8:]), le.Uint64(row[16:])})
	}
	return n, rows
}

// putRow writes one section-table row back.
func putRow(body []byte, i int, row [3]uint64) {
	le := binary.LittleEndian
	p := body[8+i*secHdrSize:]
	le.PutUint32(p, uint32(row[0]))
	le.PutUint64(p[8:], row[1])
	le.PutUint64(p[16:], row[2])
}

// funcSectionEnd returns the payload offset just past the function
// section, whose last bytes are its operand register records.
func funcSectionEnd(t *testing.T, body []byte) int {
	t.Helper()
	_, rows := sectionTable(t, body)
	for _, r := range rows {
		if r[0] == secFunc {
			if r[2] < regRecSize {
				t.Fatal("function section too small")
			}
			return int(r[1] + r[2])
		}
	}
	t.Fatal("no function section")
	return 0
}

// secondRegionEnd returns the payload offset just past region 1's block
// records in the regions section.
func secondRegionEnd(t *testing.T, body []byte) int {
	t.Helper()
	_, rows := sectionTable(t, body)
	le := binary.LittleEndian
	for _, r := range rows {
		if r[0] != secRegions {
			continue
		}
		end := int(r[1])
		if r[2] < 4 || le.Uint32(body[end:]) < 2 {
			t.Fatal("fixture needs at least two regions")
		}
		end += 4
		for j := 0; j < 2; j++ {
			nb := int(le.Uint32(body[end+2:])) // past u8 kind and bool fromTrace
			end += 6 + nb*regionBlockRecSize
		}
		return end
	}
	t.Fatal("no regions section")
	return 0
}

// TestDecodeRegionsRejectsUncovered: region records that leave a block in
// no region are corrupt, even when every record is a well-formed tree.
func TestDecodeRegionsRejectsUncovered(t *testing.T) {
	_, fr := compiled(t)
	w := &writer{}
	encodeRegions(w, fr.Regions[:len(fr.Regions)-1])
	last := fr.Regions[len(fr.Regions)-1].Root
	_, err := decodeRegions(w.buf, fr.Fn)
	if want := fmt.Sprintf("bb%d in no region", last); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("decode of regions without the last one: %v, want an error containing %q", err, want)
	}
}

// TestCorruptSectionFixtures: every malformed-section-table shape — a table
// truncated mid-row, an offset pointing past the payload, overlapping
// section ranges, a gap between sections — region records that overlap,
// and register records with an unknown class, a negative number or one
// above ir.MaxRegNum must decode to an error (which the store turns into a
// quarantined miss), never a panic, and never a result built from garbage.
func TestCorruptSectionFixtures(t *testing.T) {
	_, fr := compiled(t)
	body, err := encode(fr)
	if err != nil {
		t.Fatal(err)
	}

	fixtures := map[string]func([]byte) []byte{
		"truncated-section-table": func(b []byte) []byte {
			// Keep the header (schema + count) and half of the first row:
			// the table promises more rows than the payload holds.
			return b[:8+secHdrSize/2]
		},
		"offset-past-payload": func(b []byte) []byte {
			_, rows := sectionTable(t, b)
			rows[0][1] = uint64(len(b)) + 1024
			putRow(b, 0, rows[0])
			return b
		},
		"length-past-payload": func(b []byte) []byte {
			_, rows := sectionTable(t, b)
			rows[0][2] = uint64(len(b))
			putRow(b, 0, rows[0])
			return b
		},
		"overlapping-sections": func(b []byte) []byte {
			_, rows := sectionTable(t, b)
			// Pull section 2 back so it overlaps section 1's bytes.
			rows[1][1] = rows[0][1]
			putRow(b, 1, rows[1])
			return b
		},
		"non-contiguous-sections": func(b []byte) []byte {
			n, rows := sectionTable(t, b)
			// Shrink the first section without moving the rest: a gap of
			// unaccounted bytes opens between sections.
			if rows[0][2] < 2 {
				t.Fatal("first section too small to shrink")
			}
			rows[0][2]--
			putRow(b, 0, rows[0])
			_ = n
			return b
		},
		"duplicate-section-id": func(b []byte) []byte {
			_, rows := sectionTable(t, b)
			rows[1][0] = rows[0][0]
			putRow(b, 1, rows[1])
			return b
		},
		"section-count-overflow": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], maxSections+1)
			return b
		},
		"bad-register-class": func(b []byte) []byte {
			// The function section ends with the operand register records
			// (u8 class + i32 number); give the last one class 9.
			b[funcSectionEnd(t, b)-regRecSize] = 9
			return b
		},
		"negative-register": func(b []byte) []byte {
			n := int32(-7)
			binary.LittleEndian.PutUint32(b[funcSectionEnd(t, b)-regRecSize+1:], uint32(n))
			return b
		},
		"huge-register": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[funcSectionEnd(t, b)-regRecSize+1:], ir.MaxRegNum+1)
			return b
		},
		"overlapping-regions": func(b []byte) []byte {
			// Rewrite region 1's last (leaf) block record to bb0, which
			// region 0 roots: bb0 lands in two regions and the leaf in none,
			// while every region on its own stays a well-formed tree.
			end := secondRegionEnd(t, b)
			binary.LittleEndian.PutUint32(b[end-regionBlockRecSize:], 0)
			return b
		},
	}

	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mutate := fixtures[name]
		t.Run(name, func(t *testing.T) {
			mutated := mutate(bytes.Clone(body))

			// The codec itself must reject the payload with an error.
			if fr, err := decode(mutated); err == nil {
				t.Fatalf("decode accepted a %s payload (got result for %q)", name, fr.Fn.Name)
			} else if err == errSchemaSkew {
				t.Fatalf("%s read as schema skew, want corruption", name)
			}

			// Planted as a store entry it must read as a quarantined miss.
			dir := t.TempDir()
			st, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			k, _ := compiled(t)
			path := st.pathOf(k)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append([]byte(magic), mutated...), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Get(k); ok {
				t.Fatalf("%s entry served as a hit", name)
			}
			if s := st.Stats(); s.Corrupt != 1 || s.SchemaSkew != 0 {
				t.Fatalf("%s: stats %+v, want exactly one corrupt quarantine", name, s)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("%s entry not quarantined", name)
			}
		})
	}
}
