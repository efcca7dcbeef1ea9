// Package compcache is a sharded, content-addressed cache of function
// compilation results. A compilation is fully determined by three inputs —
// the textual IR of the function, the profile that guides formation and
// scheduling, and the Config — so the cache key is a SHA-256 over exactly
// those, and a hit can stand in for a recompile byte-for-byte.
//
// Entries carry the FunctionResult and an estimated in-memory size; each
// shard evicts least-recently-used entries once its slice of the byte
// budget is exceeded. Hit, miss and eviction counters are exported for the
// daemon's /metrics endpoint.
//
// Cached results are shared between callers and MUST be treated as
// immutable: do not mutate the Fn, Prof, Regions or Schedules of a
// FunctionResult obtained from the cache.
package compcache

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"treegion/internal/eval"
	"treegion/internal/telemetry"
)

// Key is the content address of one (function IR, profile, config)
// compilation.
type Key [sha256.Size]byte

// KeyOfBytes hashes the three compilation inputs: the function's key form
// (irtext.AppendFuncKey), the profile's (profile.Data.AppendKey) and a
// configuration fingerprint (eval.Config.Fingerprint). Zero separators keep
// the boundaries between them unambiguous. Byte slices let the hot compile
// path feed it one pooled buffer instead of materializing strings.
// treegiond's request keys hash the request's IR text, profiling
// parameters and a fingerprint tagged "/request" instead (DESIGN.md §27).
func KeyOfBytes(irText, profCanonical []byte, cfgFingerprint string) Key {
	h := sha256.New()
	h.Write(irText)
	h.Write([]byte{0})
	h.Write(profCanonical)
	h.Write([]byte{0})
	h.Write([]byte(cfgFingerprint))
	var k Key
	h.Sum(k[:0])
	return k
}

// Entry is one cached compilation.
type Entry struct {
	Result *eval.FunctionResult
	// Size is the estimated in-memory footprint charged against the budget.
	Size int64
}

// EstimateSize approximates the in-memory footprint of a cached result. It
// only needs to be proportional to reality for LRU eviction to behave.
func EstimateSize(fr *eval.FunctionResult) int64 {
	const (
		opCost    = 112 // ir.Op + block bookkeeping
		nodeCost  = 160 // ddg.Node + schedule cycle + map slot
		baseCost  = 512
		statCost  = 64
		entryCost = 256 // Entry + list element + map slot
	)
	n := int64(baseCost + entryCost)
	n += int64(fr.OpsAfter) * opCost
	for _, s := range fr.Schedules {
		n += int64(len(s.Cycle)) * nodeCost
	}
	n += int64(len(fr.Regions)) * statCost
	if fr.Prof != nil {
		n += int64(len(fr.Prof.Block)+len(fr.Prof.Edge)) * 32
	}
	return n
}

// NewEntry wraps a compile result, estimating its size.
func NewEntry(fr *eval.FunctionResult) *Entry {
	return &Entry{Result: fr, Size: EstimateSize(fr)}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits, Misses, Evictions int64
	Entries                 int64
	Bytes, Budget           int64
	// InflightDedups counts concurrent identical compiles that were
	// coalesced onto another caller's in-flight compile.
	InflightDedups int64
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

const numShards = 32

// L2 is a second-level result store layered under the in-memory cache —
// in practice internal/store's disk-backed artifact store. Lookups go
// memory → L2 → compile; results compiled cold are written through to both
// levels. Put errors are the L2's to count and report (a failed disk write
// must never fail a compile), which is why the interface lets Put return
// one but GetOrCompute ignores it.
type L2 interface {
	Get(Key) (*eval.FunctionResult, bool)
	Put(Key, *eval.FunctionResult) error
}

// Cache is a sharded LRU cache under a byte budget. The zero value is not
// usable; call New. A nil *Cache is a valid "no caching" sentinel: Get
// always misses (without counting) and Put is a no-op.
type Cache struct {
	shards      [numShards]shard
	shardBudget int64

	hits, misses, evictions atomic.Int64
	entries, bytes          atomic.Int64

	// l2 is the optional second level (disk store). Set before concurrent
	// use via SetL2.
	l2 L2

	// flightMu guards inflight: one compile per key at a time, with
	// late-arriving identical requests waiting on the leader's flight
	// instead of compiling again.
	flightMu sync.Mutex
	inflight map[Key]*flight
	dedups   atomic.Int64
}

// flight is one in-progress compile other callers may wait on.
type flight struct {
	done chan struct{}
	res  *eval.FunctionResult
	err  error
}

type shard struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used
	m     map[Key]*list.Element
	bytes int64
}

type lruItem struct {
	key   Key
	entry *Entry
}

// DefaultBudget is a comfortable in-process budget: large enough to hold
// the whole experiment suite under every paper configuration.
const DefaultBudget = 512 << 20

// New builds a cache with the given total byte budget (split evenly across
// shards). Budgets <= 0 fall back to DefaultBudget.
func New(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudget
	}
	c := &Cache{
		shardBudget: budgetBytes / numShards,
		inflight:    make(map[Key]*flight),
	}
	if c.shardBudget < 1 {
		c.shardBudget = 1
	}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].m = make(map[Key]*list.Element)
	}
	return c
}

func (c *Cache) shard(k Key) *shard {
	// The key is a cryptographic hash; its first byte is already uniform.
	return &c.shards[int(k[0])%numShards]
}

// Get returns the cached entry for k, marking it most recently used.
func (c *Cache) Get(k Key) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.m[k]
	if ok {
		s.ll.MoveToFront(el)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return el.Value.(*lruItem).entry, true
}

// Put stores e under k, evicting least-recently-used entries from the
// shard until it fits its slice of the budget. Re-putting an existing key
// replaces the entry.
func (c *Cache) Put(k Key, e *Entry) {
	if c == nil || e == nil {
		return
	}
	s := c.shard(k)
	var freed []*Entry
	s.mu.Lock()
	if el, ok := s.m[k]; ok {
		old := el.Value.(*lruItem)
		s.bytes += e.Size - old.entry.Size
		c.bytes.Add(e.Size - old.entry.Size)
		old.entry = e
		s.ll.MoveToFront(el)
	} else {
		s.m[k] = s.ll.PushFront(&lruItem{key: k, entry: e})
		s.bytes += e.Size
		c.entries.Add(1)
		c.bytes.Add(e.Size)
	}
	// Evict from the back while over budget, but never the entry just
	// inserted (an oversized singleton stays resident rather than thrash).
	for s.bytes > c.shardBudget && s.ll.Len() > 1 {
		back := s.ll.Back()
		it := back.Value.(*lruItem)
		s.ll.Remove(back)
		delete(s.m, it.key)
		s.bytes -= it.entry.Size
		freed = append(freed, it.entry)
	}
	s.mu.Unlock()
	for _, ev := range freed {
		c.entries.Add(-1)
		c.bytes.Add(-ev.Size)
		c.evictions.Add(1)
	}
}

// SetL2 layers a second-level store (the disk-backed artifact store) under
// the memory cache. Call once at setup, before the cache is shared across
// goroutines.
func (c *Cache) SetL2(l2 L2) {
	if c != nil {
		c.l2 = l2
	}
}

// Source identifies where GetOrCompute served a result from.
type Source uint8

// GetOrCompute serve sources.
const (
	// SourceCompile is a cold compile actually executed by this call.
	SourceCompile Source = iota
	// SourceMemory is a first-level (in-memory) cache hit.
	SourceMemory
	// SourceL2 is a second-level (disk store) hit, promoted into memory.
	SourceL2
	// SourceInflight is a result shared from a concurrent identical
	// compile (singleflight dedup).
	SourceInflight
)

// String names the source for logs and tests.
func (s Source) String() string {
	switch s {
	case SourceCompile:
		return "compile"
	case SourceMemory:
		return "memory"
	case SourceL2:
		return "l2"
	case SourceInflight:
		return "inflight"
	default:
		return "?"
	}
}

// peek is Get without counter or recency side effects; the singleflight
// leader uses it to re-check the memory level after winning the flight
// (a racing leader may have populated the key between the caller's miss
// and this flight's start).
func (c *Cache) peek(k Key) (*eval.FunctionResult, bool) {
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.m[k]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return el.Value.(*lruItem).entry.Result, true
}

// GetOrCompute is the cache's full lookup path: memory, then the L2 store,
// then compute — with singleflight coalescing, so N concurrent identical
// requests execute compute exactly once and the rest share the leader's
// result (or error). Errors are never cached at either level; every waiter
// of a failed flight receives the leader's error. A nil cache degenerates
// to calling compute directly.
func (c *Cache) GetOrCompute(k Key, compute func() (*eval.FunctionResult, error)) (*eval.FunctionResult, Source, error) {
	if c == nil {
		fr, err := compute()
		return fr, SourceCompile, err
	}
	if e, ok := c.Get(k); ok {
		return e.Result, SourceMemory, nil
	}
	c.flightMu.Lock()
	if f, ok := c.inflight[k]; ok {
		c.flightMu.Unlock()
		c.dedups.Add(1)
		<-f.done
		return f.res, SourceInflight, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[k] = f
	c.flightMu.Unlock()
	defer func() {
		c.flightMu.Lock()
		delete(c.inflight, k)
		c.flightMu.Unlock()
		close(f.done)
	}()
	if fr, ok := c.peek(k); ok {
		f.res = fr
		return fr, SourceMemory, nil
	}
	if c.l2 != nil {
		if fr, ok := c.l2.Get(k); ok {
			c.Put(k, NewEntry(fr))
			f.res = fr
			return fr, SourceL2, nil
		}
	}
	fr, err := compute()
	if err != nil {
		f.err = err
		return nil, SourceCompile, err
	}
	c.Put(k, NewEntry(fr))
	if c.l2 != nil {
		// Write-through; a failed disk write is the store's problem (it
		// counts write errors), not the compile's.
		_ = c.l2.Put(k, fr)
	}
	f.res = fr
	return fr, SourceCompile, nil
}

// Register exposes the cache counters on reg under prefix (for the daemon,
// "treegiond"), reporting hits, misses, evictions and residency through the
// same registry as the rest of the compile path.
func (c *Cache) Register(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+"_cache_hits_total", "Compiles served from the result cache.", c.hits.Load)
	reg.CounterFunc(prefix+"_cache_misses_total", "Cache lookups that required a compile.", c.misses.Load)
	reg.CounterFunc(prefix+"_cache_evictions_total", "Entries evicted under the byte budget.", c.evictions.Load)
	reg.GaugeFunc(prefix+"_cache_entries", "Resident cache entries.", c.entries.Load)
	reg.GaugeFunc(prefix+"_cache_bytes", "Estimated resident cache bytes.", c.bytes.Load)
	reg.GaugeFunc(prefix+"_cache_budget_bytes", "Configured cache byte budget.", func() int64 {
		return c.shardBudget * numShards
	})
	reg.CounterFunc(prefix+"_compcache_inflight_dedup_total",
		"Concurrent identical compiles coalesced onto one in-flight compile.", c.dedups.Load)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		Entries:        c.entries.Load(),
		Bytes:          c.bytes.Load(),
		Budget:         c.shardBudget * numShards,
		InflightDedups: c.dedups.Load(),
	}
}
