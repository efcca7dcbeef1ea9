package compcache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treegion/internal/eval"
)

// TestConcurrentIdenticalCompilesCoalesce proves the singleflight
// guarantee: N concurrent GetOrCompute calls for one key execute the
// compute exactly once, everyone gets the same result, and the dedup
// counter records the N-1 followers.
func TestConcurrentIdenticalCompilesCoalesce(t *testing.T) {
	fnText, profText, cfg, fr := compiled(t)
	c := New(64 << 20)
	k := keyOf(fnText, profText, cfg.Fingerprint())

	const n = 16
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func() (*eval.FunctionResult, error) {
		computes.Add(1)
		<-release // hold the flight open until all followers have piled on
		return fr, nil
	}

	results := make([]*eval.FunctionResult, n)
	sources := make([]Source, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, src, err := c.GetOrCompute(k, compute)
			if err != nil {
				t.Error(err)
			}
			results[i], sources[i] = res, src
		}(i)
	}
	// Wait until every follower is parked on the leader's flight.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().InflightDedups < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers joined the flight", c.Stats().InflightDedups)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if results[i] != fr {
			t.Fatalf("caller %d got a different result", i)
		}
		if sources[i] == SourceCompile {
			leaders++
		} else if sources[i] != SourceInflight {
			t.Fatalf("caller %d source %v", i, sources[i])
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
	if d := c.Stats().InflightDedups; d != n-1 {
		t.Fatalf("dedup counter %d, want %d", d, n-1)
	}
	// The flight is gone; the next lookup is a plain memory hit.
	if _, src, err := c.GetOrCompute(k, func() (*eval.FunctionResult, error) {
		t.Fatal("recompute after flight landed")
		return nil, nil
	}); err != nil || src != SourceMemory {
		t.Fatalf("post-flight lookup: src=%v err=%v", src, err)
	}
}

// TestDistinctKeyedFlightsAreDistinct proves that compiles under different
// keys never coalesce: each distinct key runs its own compute, only
// identical keys share a flight. Plain and verified compiles of one
// function are such a pair: the pipeline appends "/verify" to a verified
// compile's fingerprint, so each runs its own flight.
func TestDistinctKeyedFlightsAreDistinct(t *testing.T) {
	fnText, profText, cfg, fr := compiled(t)
	c := New(64 << 20)
	plain := keyOf(fnText, profText, cfg.Fingerprint())
	verified := keyOf(fnText, profText, cfg.Fingerprint()+"/verify")
	if plain == verified {
		t.Fatal("distinct keys collided")
	}

	const n = 8
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func() (*eval.FunctionResult, error) {
		computes.Add(1)
		<-release
		return fr, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		k := plain
		if i%2 == 1 {
			k = verified
		}
		wg.Add(1)
		go func(k Key) {
			defer wg.Done()
			if _, _, err := c.GetOrCompute(k, compute); err != nil {
				t.Error(err)
			}
		}(k)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().InflightDedups < n-2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers joined", c.Stats().InflightDedups)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	// One compute per distinct key: the verified population never rode the
	// unverified flight or vice versa.
	if got := computes.Load(); got != 2 {
		t.Fatalf("compute ran %d times, want 2 (one per key)", got)
	}
	if d := c.Stats().InflightDedups; d != n-2 {
		t.Fatalf("dedup counter %d, want %d", d, n-2)
	}
}

// TestFlightErrorIsSharedAndNotCached: a failing compute propagates its
// error to every coalesced caller and leaves nothing in the cache, so the
// next request retries.
func TestFlightErrorIsSharedAndNotCached(t *testing.T) {
	c := New(1 << 20)
	k := keyOf("f", "p", "cfg")
	boom := errors.New("boom")

	const n = 4
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.GetOrCompute(k, func() (*eval.FunctionResult, error) {
				computes.Add(1)
				<-release
				return nil, boom
			})
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().InflightDedups < n-1 {
		if time.Now().After(deadline) {
			t.Fatal("followers never joined")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if computes.Load() != 1 {
		t.Fatalf("compute ran %d times", computes.Load())
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d error %v", i, err)
		}
	}
	// The failure was not cached: a fresh call computes again.
	var again atomic.Int64
	if _, src, err := c.GetOrCompute(k, func() (*eval.FunctionResult, error) {
		again.Add(1)
		return nil, boom
	}); err == nil || src != SourceCompile || again.Load() != 1 {
		t.Fatal("failed flight left state behind")
	}
}

// fakeL2 is an in-memory L2 for tier-order tests.
type fakeL2 struct {
	mu   sync.Mutex
	m    map[Key]*eval.FunctionResult
	gets int
	puts int
}

func (f *fakeL2) Get(k Key) (*eval.FunctionResult, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	fr, ok := f.m[k]
	return fr, ok
}

func (f *fakeL2) Put(k Key, fr *eval.FunctionResult) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	f.m[k] = fr
	return nil
}

// TestTieredLookupOrder: memory first, then L2, then compute; cold
// compiles write through to both tiers, and an L2 hit is promoted to
// memory so the next lookup never touches disk.
func TestTieredLookupOrder(t *testing.T) {
	fnText, profText, cfg, fr := compiled(t)
	c := New(64 << 20)
	l2 := &fakeL2{m: make(map[Key]*eval.FunctionResult)}
	c.SetL2(l2)
	k := keyOf(fnText, profText, cfg.Fingerprint())

	// Cold: compute runs, both tiers are populated.
	_, src, err := c.GetOrCompute(k, func() (*eval.FunctionResult, error) { return fr, nil })
	if err != nil || src != SourceCompile {
		t.Fatalf("cold: src=%v err=%v", src, err)
	}
	if l2.puts != 1 {
		t.Fatalf("cold compile did not write through to L2 (%d puts)", l2.puts)
	}
	// Warm: memory answers; the L2 is not consulted.
	gets := l2.gets
	if _, src, _ = c.GetOrCompute(k, nil); src != SourceMemory {
		t.Fatalf("warm memory: src=%v", src)
	}
	if l2.gets != gets {
		t.Fatal("memory hit touched the L2")
	}
	// Evict memory (fresh cache, same L2): the disk tier answers and the
	// entry is promoted.
	c2 := New(64 << 20)
	c2.SetL2(l2)
	if _, src, _ = c2.GetOrCompute(k, func() (*eval.FunctionResult, error) {
		t.Fatal("compute despite L2 entry")
		return nil, nil
	}); src != SourceL2 {
		t.Fatalf("L2 tier: src=%v", src)
	}
	if _, src, _ = c2.GetOrCompute(k, nil); src != SourceMemory {
		t.Fatalf("promotion failed: src=%v", src)
	}
}
