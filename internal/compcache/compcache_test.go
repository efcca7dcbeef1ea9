package compcache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"treegion/internal/eval"
	"treegion/internal/irtext"
	"treegion/internal/progen"
)

func compiled(t testing.TB) (fn string, prof string, cfg eval.Config, fr *eval.FunctionResult) {
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
	cfg = eval.DefaultConfig()
	fnText := irtext.Print(prog.Funcs[0])
	profText := profs[0].Canonical()
	fr, err = eval.CompileFunction(prog.Funcs[0].Clone(), profs[0].Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fnText, profText, cfg, fr
}

// keyOf hashes string inputs through KeyOfBytes.
func keyOf(fn, prof, cfg string) Key { return KeyOfBytes([]byte(fn), []byte(prof), cfg) }

func TestKeyOfBytes(t *testing.T) {
	k1 := keyOf("func f", "b0=1;", "k/tree")
	if k2 := keyOf("func f", "b0=1;", "k/tree"); k1 != k2 {
		t.Error("equal inputs produced different keys")
	}
	// Every component participates, and the separators prevent boundary
	// ambiguity between the concatenated inputs.
	for _, k2 := range []Key{
		keyOf("func g", "b0=1;", "k/tree"),
		keyOf("func f", "b0=2;", "k/tree"),
		keyOf("func f", "b0=1;", "k/slr"),
		keyOf("func fb", "0=1;", "k/tree"),
	} {
		if k1 == k2 {
			t.Error("different inputs collided")
		}
	}
}

func TestHitMissAccounting(t *testing.T) {
	fnText, profText, cfg, fr := compiled(t)
	c := New(64 << 20)
	k := keyOf(fnText, profText, cfg.Fingerprint())

	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, NewEntry(fr))
	e, ok := c.Get(k)
	if !ok {
		t.Fatal("miss after put")
	}
	if e.Result != fr {
		t.Error("entry does not hold the stored result")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 0 evictions", st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats = %+v, want 1 entry with positive bytes", st)
	}
	if got, want := st.HitRate(), 0.5; got != want {
		t.Errorf("hit rate = %v, want %v", got, want)
	}
}

// TestHitDeepEqualColdCompile: a cache hit must be indistinguishable from
// recompiling — deeply equal on every observable of the result. (Raw
// DeepEqual over two independent compiles would compare ddg maps keyed by
// *ir.Op pointers, so equality is checked over the result's content.)
func TestHitDeepEqualColdCompile(t *testing.T) {
	fnText, profText, cfg, fr := compiled(t)
	_, _, _, cold := compiled(t) // an independent cold compile of the same inputs

	c := New(64 << 20)
	k := keyOf(fnText, profText, cfg.Fingerprint())
	c.Put(k, NewEntry(fr))
	e, ok := c.Get(k)
	if !ok {
		t.Fatal("miss after put")
	}
	hit := e.Result

	type observable struct {
		IR                   string
		Prof                 string
		Time, Copies         float64
		OpsBefore, OpsAfter  int
		Renamed, CopiesN     int
		Merged, Speculated   int
		SchedLengths, Cycles [][]int
	}
	obs := func(r *eval.FunctionResult) observable {
		o := observable{
			IR:   irtext.Print(r.Fn),
			Prof: r.Prof.Canonical(),
			Time: r.Time, Copies: r.Copies,
			OpsBefore: r.OpsBefore, OpsAfter: r.OpsAfter,
			Renamed: r.NumRenamed, CopiesN: r.NumCopies,
			Merged: r.NumMerged, Speculated: r.NumSpeculated,
		}
		for _, s := range r.Schedules {
			o.SchedLengths = append(o.SchedLengths, []int{s.Length})
			o.Cycles = append(o.Cycles, append([]int(nil), s.Cycle...))
		}
		return o
	}
	if !reflect.DeepEqual(obs(hit), obs(cold)) {
		t.Error("cache hit differs from an independent cold compile")
	}
}

func TestEvictionUnderTinyBudget(t *testing.T) {
	fnText, profText, cfg, fr := compiled(t)
	entry := NewEntry(fr)
	// A budget of ~2 entries per shard; hammering one shard's worth of
	// distinct keys must evict.
	c := New(entry.Size * 2 * numShards)
	var keys []Key
	for i := 0; i < 64; i++ {
		k := keyOf(fnText, profText, fmt.Sprintf("%s/%d", cfg.Fingerprint(), i))
		keys = append(keys, k)
		c.Put(k, NewEntry(fr))
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under tiny budget: %+v", st)
	}
	if st.Entries >= 64 {
		t.Errorf("entries = %d, want < 64", st.Entries)
	}
	if st.Bytes > st.Budget+entry.Size*numShards {
		t.Errorf("bytes = %d way over budget %d", st.Bytes, st.Budget)
	}
	// LRU: most recently inserted keys survive, oldest are gone.
	if _, ok := c.Get(keys[len(keys)-1]); !ok {
		t.Error("most recent entry evicted")
	}
	alive := 0
	for _, k := range keys {
		if _, ok := c.Get(k); ok {
			alive++
		}
	}
	if alive == len(keys) {
		t.Error("every entry survived a tiny budget")
	}
}

func TestOversizedSingletonStaysResident(t *testing.T) {
	fnText, profText, cfg, fr := compiled(t)
	c := New(1) // absurd budget: smaller than any entry
	k := keyOf(fnText, profText, cfg.Fingerprint())
	c.Put(k, NewEntry(fr))
	if _, ok := c.Get(k); !ok {
		t.Error("singleton entry evicted under impossible budget (thrash)")
	}
}

func TestReplaceExistingKey(t *testing.T) {
	fnText, profText, cfg, fr := compiled(t)
	c := New(64 << 20)
	k := keyOf(fnText, profText, cfg.Fingerprint())
	c.Put(k, NewEntry(fr))
	bytes1 := c.Stats().Bytes
	c.Put(k, NewEntry(fr))
	st := c.Stats()
	if st.Entries != 1 {
		t.Errorf("entries = %d after re-put, want 1", st.Entries)
	}
	if st.Bytes != bytes1 {
		t.Errorf("bytes = %d after same-size re-put, want %d", st.Bytes, bytes1)
	}
}

func TestNilCacheIsNoCaching(t *testing.T) {
	var c *Cache
	k := keyOf("f", "p", "c")
	if _, ok := c.Get(k); ok {
		t.Error("nil cache hit")
	}
	c.Put(k, &Entry{Size: 1}) // must not panic
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	fnText, profText, cfg, fr := compiled(t)
	c := New(int64(NewEntry(fr).Size) * 4 * numShards)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keyOf(fnText, profText, fmt.Sprintf("%s/%d/%d", cfg.Fingerprint(), g, i%16))
				if _, ok := c.Get(k); !ok {
					c.Put(k, NewEntry(fr))
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("lookups = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}
