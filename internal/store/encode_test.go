package store

import (
	"testing"

	"treegion/internal/eval"
	"treegion/internal/progen"
	"treegion/internal/verify"
)

// encode is fr's tgart2 payload without the store's magic line: what
// decode reads.
func encode(fr *eval.FunctionResult) ([]byte, error) {
	entry, err := encodeEntry(fr)
	if err != nil {
		return nil, err
	}
	return entry[len(magic):], nil
}

// TestEncodeEntryOneBuffer: an entry is written into one buffer of exactly
// its length, magic first, and one encode makes the same few allocations
// whatever the function's size: the snapshot's four (five with calls: the
// callee symbol table), the buffer, the profile's two sort slices and the
// op position index. The inputs run from compress functions of ~300 ops to
// stress functions of ~12,000, under the headline and tree-td configs,
// with calls (callhot) and with diagnostics.
func TestEncodeEntryOneBuffer(t *testing.T) {
	const maxAllocs = 9
	td := eval.DefaultConfig()
	td.Kind, td.DominatorParallelism = eval.TreegionTD, true
	names := []string{"compress", "gcc", "callhot", "stress"}
	if testing.Short() {
		names = names[:3]
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
		for fi := range min(2, len(prog.Funcs)) {
			for _, cfg := range []eval.Config{eval.DefaultConfig(), td} {
				fr, err := eval.CompileFunction(prog.Funcs[fi].Clone(), profs[fi].Clone(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if fi == 1 {
					fr.Diagnostics = []verify.Diagnostic{{Rule: "SC001", Severity: verify.Warning, Fn: fr.Fn.Name, Op: -1, Message: "planted"}}
				}
				entry, err := encodeEntry(fr)
				if err != nil {
					t.Fatal(err)
				}
				where := name + "/" + fr.Fn.Name + "/" + cfg.Kind.String()
				if string(entry[:len(magic)]) != magic || len(entry) != cap(entry) {
					t.Errorf("%s: entry of %d bytes in a buffer of %d, magic %q", where, len(entry), cap(entry), entry[:len(magic)])
				}
				if n := testing.AllocsPerRun(3, func() { encodeEntry(fr) }); n > maxAllocs {
					t.Errorf("%s (%d ops): %v allocations per encode, want at most %d", where, fr.Fn.NumOps(), n, maxAllocs)
				}
			}
		}
	}
}
