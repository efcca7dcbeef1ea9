package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"treegion/internal/compcache"
	"treegion/internal/eval"
	"treegion/internal/ir"
	"treegion/internal/irtext"
	"treegion/internal/progen"
)

// encodeWithSchema re-encodes fr's payload under a different schema
// version, modelling an entry written by a newer binary. The schema is the
// payload's leading u32.
func encodeWithSchema(fr *eval.FunctionResult, schema int) ([]byte, error) {
	body, err := encode(fr)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(body, uint32(schema))
	return body, nil
}

// compiled builds one real compiled function plus its cache key.
func compiled(t testing.TB) (compcache.Key, *eval.FunctionResult) {
	t.Helper()
	p, ok := progen.PresetByName("compress")
	if !ok {
		t.Fatal("no compress preset")
	}
	prog, err := progen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := eval.ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := eval.DefaultConfig()
	k := keyOf(irtext.Print(prog.Funcs[0]), profs[0].Canonical(), cfg.Fingerprint())
	fr, err := eval.CompileFunction(prog.Funcs[0].Clone(), profs[0].Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, fr
}

// keyOf hashes string inputs through compcache.KeyOfBytes.
func keyOf(fn, prof, cfg string) compcache.Key {
	return compcache.KeyOfBytes([]byte(fn), []byte(prof), cfg)
}

// requireEquivalent asserts that a restored result carries the same
// numbers, regions and schedules as the original — everything the
// experiment drivers and the daemon read.
func requireEquivalent(t *testing.T, want, got *eval.FunctionResult) {
	t.Helper()
	if got.Fn.Name != want.Fn.Name {
		t.Fatalf("function name %q != %q", got.Fn.Name, want.Fn.Name)
	}
	if irtext.Print(got.Fn) != irtext.Print(want.Fn) {
		t.Fatal("restored function IR differs")
	}
	if got.Time != want.Time || got.Copies != want.Copies {
		t.Fatalf("times (%v, %v) != (%v, %v)", got.Time, got.Copies, want.Time, want.Copies)
	}
	if got.OpsBefore != want.OpsBefore || got.OpsAfter != want.OpsAfter {
		t.Fatalf("op counts (%d, %d) != (%d, %d)", got.OpsBefore, got.OpsAfter, want.OpsBefore, want.OpsAfter)
	}
	if got.NumRenamed != want.NumRenamed || got.NumCopies != want.NumCopies ||
		got.NumMerged != want.NumMerged || got.NumSpeculated != want.NumSpeculated {
		t.Fatal("scheduling counters differ")
	}
	if got.Sched != want.Sched {
		t.Fatalf("sched stats %+v != %+v", got.Sched, want.Sched)
	}
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("%d regions != %d", len(got.Regions), len(want.Regions))
	}
	for i := range want.Regions {
		if got.Regions[i].Kind != want.Regions[i].Kind {
			t.Fatalf("region %d kind differs", i)
		}
		if len(got.Regions[i].Blocks) != len(want.Regions[i].Blocks) {
			t.Fatalf("region %d has %d blocks, want %d", i, len(got.Regions[i].Blocks), len(want.Regions[i].Blocks))
		}
		for j, b := range want.Regions[i].Blocks {
			if got.Regions[i].Blocks[j] != b {
				t.Fatalf("region %d block %d differs", i, j)
			}
		}
	}
	if len(got.Schedules) != len(want.Schedules) {
		t.Fatalf("%d schedules != %d", len(got.Schedules), len(want.Schedules))
	}
	for i := range want.Schedules {
		ws, gs := want.Schedules[i], got.Schedules[i]
		if gs.Length != ws.Length {
			t.Fatalf("schedule %d length %d != %d", i, gs.Length, ws.Length)
		}
		if len(gs.Cycle) != len(ws.Cycle) {
			t.Fatalf("schedule %d has %d cycles, want %d", i, len(gs.Cycle), len(ws.Cycle))
		}
		for j := range ws.Cycle {
			if gs.Cycle[j] != ws.Cycle[j] {
				t.Fatalf("schedule %d node %d cycle differs", i, j)
			}
		}
		// The schedule's textual rendering walks the whole restored DDG
		// (nodes, homes, op mnemonics), so equal strings mean the graph
		// round-tripped faithfully.
		if gs.String() != ws.String() {
			t.Fatalf("schedule %d renders differently:\n--- got\n%s\n--- want\n%s", i, gs, ws)
		}
	}
	if want.Prof != nil {
		if got.Prof == nil {
			t.Fatal("profile dropped")
		}
		blocks := make([]int, 0, len(want.Prof.Block))
		for b := range want.Prof.Block {
			blocks = append(blocks, int(b))
		}
		sort.Ints(blocks)
		for _, bi := range blocks {
			b := ir.BlockID(bi)
			if got.Prof.Block[b] != want.Prof.Block[b] {
				t.Fatalf("block bb%d weight %v != %v", b, got.Prof.Block[b], want.Prof.Block[b])
			}
		}
	}
}

func TestRoundTripSameHandle(t *testing.T) {
	k, fr := compiled(t)
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	if err := st.Put(k, fr); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	requireEquivalent(t, fr, got)
	s := st.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.Bytes <= 0 {
		t.Fatalf("bytes %d", s.Bytes)
	}
}

func TestRestartPersistence(t *testing.T) {
	dir := t.TempDir()
	k, fr := compiled(t)

	st1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Put(k, fr); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// A second handle on the same directory models a process restart.
	st2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := st2.Stats(); s.Entries != 1 || s.Bytes <= 0 {
		t.Fatalf("restart scan found %+v", s)
	}
	got, ok := st2.Get(k)
	if !ok {
		t.Fatal("entry did not survive restart")
	}
	requireEquivalent(t, fr, got)
}

func TestTornWriteReadsAsMissAndQuarantines(t *testing.T) {
	dir := t.TempDir()
	k, fr := compiled(t)
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(k, fr); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: truncate the entry mid-payload.
	path := st.pathOf(k)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	if _, ok := st.Get(k); ok {
		t.Fatal("torn entry served as a hit")
	}
	s := st.Stats()
	if s.Corrupt != 1 {
		t.Fatalf("corrupt counter %d, want 1", s.Corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("torn entry not quarantined")
	}
	// The quarantined key compiles fresh and is storable again.
	if err := st.Put(k, fr); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(k); !ok {
		t.Fatal("re-put after quarantine missed")
	}
}

func TestGarbageJSONReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	k, _ := compiled(t)
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := st.pathOf(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("tgart2\nnot a tgart2 payload at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(k); ok {
		t.Fatal("garbage served as a hit")
	}
	if s := st.Stats(); s.Corrupt != 1 {
		t.Fatalf("corrupt counter %d, want 1", s.Corrupt)
	}
}

func TestOldGenerationEntryIsSkewNotCorruption(t *testing.T) {
	dir := t.TempDir()
	k, _ := compiled(t)
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := st.pathOf(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	// A tgart1 (gob-era) entry: perfectly valid for an old binary, so it
	// reads as schema skew — a plain miss, left in place, never quarantined.
	if err := os.WriteFile(path, []byte("tgart1\nsome old gob bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(k); ok {
		t.Fatal("old-generation entry served as a hit")
	}
	s := st.Stats()
	if s.Corrupt != 0 {
		t.Fatal("old-generation entry miscounted as corruption")
	}
	if s.SchemaSkew != 1 {
		t.Fatalf("schema skew counter %d, want 1", s.SchemaSkew)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("old-generation entry was quarantined")
	}
}

func TestGCEnforcesByteBudgetOldestFirst(t *testing.T) {
	dir := t.TempDir()
	k, fr := compiled(t)
	st, err := Open(dir, 1<<40) // effectively unbounded while seeding
	if err != nil {
		t.Fatal(err)
	}
	// Distinct keys for the same payload: content addressing only cares
	// about the key, so this cheaply makes N same-sized entries.
	keys := []compcache.Key{
		k,
		keyOf("a", "b", "c"),
		keyOf("d", "e", "f"),
		keyOf("g", "h", "i"),
	}
	for _, key := range keys {
		if err := st.Put(key, fr); err != nil {
			t.Fatal(err)
		}
	}
	per := st.Stats().Bytes / int64(len(keys))
	// Deterministic recency: keys[0] oldest ... keys[3] newest.
	base := time.Now().Add(-time.Hour)
	for i, key := range keys {
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(st.pathOf(key), ts, ts); err != nil {
			t.Fatal(err)
		}
	}

	st.budget = 2 * per // room for two entries
	st.GC()

	s := st.Stats()
	if s.Entries != 2 {
		t.Fatalf("%d entries after GC, want 2", s.Entries)
	}
	if s.Evictions != 2 {
		t.Fatalf("%d evictions, want 2", s.Evictions)
	}
	if s.Bytes > st.budget {
		t.Fatalf("bytes %d over budget %d", s.Bytes, st.budget)
	}
	for i, key := range keys {
		_, err := os.Stat(st.pathOf(key))
		if i < 2 && !os.IsNotExist(err) {
			t.Fatalf("old entry %d survived GC", i)
		}
		if i >= 2 && err != nil {
			t.Fatalf("recent entry %d evicted: %v", i, err)
		}
	}
}

func TestGCKeepsNewestEvenOverBudget(t *testing.T) {
	k, fr := compiled(t)
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(k, fr); err != nil {
		t.Fatal(err)
	}
	st.budget = 1 // far under one entry
	st.GC()
	if s := st.Stats(); s.Entries != 1 {
		t.Fatal("GC removed the only (newest) entry")
	}
}

func TestHitRefreshesRecency(t *testing.T) {
	k, fr := compiled(t)
	k2 := keyOf("x", "y", "z")
	st, err := Open(t.TempDir(), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []compcache.Key{k, k2} {
		if err := st.Put(key, fr); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	for _, key := range []compcache.Key{k, k2} {
		if err := os.Chtimes(st.pathOf(key), old, old); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k: it becomes the most recent and must survive a GC that only
	// has room for one entry, even though k2 was written later.
	if _, ok := st.Get(k); !ok {
		t.Fatal("miss")
	}
	st.budget = st.Stats().Bytes / 2
	st.GC()
	if _, err := os.Stat(st.pathOf(k)); err != nil {
		t.Fatal("recently-read entry was evicted")
	}
	if _, err := os.Stat(st.pathOf(k2)); !os.IsNotExist(err) {
		t.Fatal("stale entry survived")
	}
}

// TestSchemaSkewIsMissNotCorruption writes entries of other schema
// versions under a live key: one re-stamped as a newer binary's, and a real
// schema-4 entry (testdata/schema4_fig1.tgart, the Figure 1 function as
// the last schema-4 binary stored it, ir-text section included). Each must
// read as skew — a miss that is neither counted as corruption nor
// quarantined, since it is a valid entry for the binary that wrote it.
func TestSchemaSkewIsMissNotCorruption(t *testing.T) {
	k, fr := compiled(t)
	newer, err := encodeWithSchema(fr, schemaVersion+1)
	if err != nil {
		t.Fatal(err)
	}
	schema4, err := os.ReadFile(filepath.Join("testdata", "schema4_fig1.tgart"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		entry []byte
	}{
		{"newer schema", append([]byte(magic), newer...)},
		{"schema 4", schema4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(k, fr); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.pathOf(k), tc.entry, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Get(k); ok {
				t.Fatal("foreign-schema entry served as a hit")
			}
			s := st.Stats()
			if s.Corrupt != 0 {
				t.Fatal("schema skew miscounted as corruption")
			}
			if s.SchemaSkew != 1 {
				t.Fatalf("schema skew counted %d times, want 1", s.SchemaSkew)
			}
			// The entry is left in place for the binary that wrote it.
			if _, err := os.Stat(st.pathOf(k)); err != nil {
				t.Fatal("foreign-schema entry was quarantined")
			}
		})
	}
}

func TestJournalBlobs(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	j := st.Journal()
	if err := j.Put("job1", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Put("job2", []byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	all, err := j.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || string(all["job1"]) != `{"a":1}` {
		t.Fatalf("list %v", all)
	}
	if err := j.Delete("job1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Delete("job1"); err != nil {
		t.Fatal("double delete should be idempotent:", err)
	}
	all, err = j.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("list after delete %v", all)
	}
	for _, bad := range []string{"", "a/b", "..", ".", "a\\b"} {
		if err := j.Put(bad, []byte("x")); err == nil {
			t.Fatalf("journal accepted malicious id %q", bad)
		}
	}
}
