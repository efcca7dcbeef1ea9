// Package store is the disk-backed, content-addressed artifact store: the
// second (persistent) level under internal/compcache's in-memory result
// cache. Each entry is one compiled FunctionResult keyed by the same
// SHA-256 content address the memory cache uses, so compilation artifacts
// survive process restarts — a warm suite compile in a fresh process pays
// zero scheduler invocations.
//
// Durability model:
//
//   - Writes are atomic: entries are written to a temp file in the store
//     and renamed into place, so readers never observe a half-written
//     entry under its final name.
//   - Reads are corruption-tolerant: a truncated, garbled or
//     wrong-schema entry decodes to a cache miss, never a crash. Corrupt
//     entries are quarantined (removed) and counted.
//   - The store is garbage-collected to a byte budget by recency: every
//     hit refreshes the entry's mtime, and GC removes least-recently-used
//     entries until the store fits (the most recent entry always stays).
//
// The store also hosts a named-blob namespace, Journal, used by
// internal/jobs to persist queued/running jobs across restarts. A verified
// compile's artifact carries its verifier diagnostics (tgart2 section 7)
// under a key of its own, so a warm verified compile re-checks nothing.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"treegion/internal/compcache"
	"treegion/internal/eval"
	"treegion/internal/telemetry"
)

// DefaultBudget is the default disk budget: roomy enough for the full
// experiment suite under every paper configuration, several times over.
const DefaultBudget = 4 << 30

// entryExt marks artifact files; everything else in the objects tree is
// ignored (and a foreign file can never be quarantined as a corrupt entry).
const entryExt = ".art"

// Store is a disk-backed artifact store rooted at one directory. It is safe
// for concurrent use by multiple goroutines; concurrent processes sharing a
// directory are safe too (atomic renames, content-addressed idempotent
// writes), though their byte accounting is process-local.
type Store struct {
	dir     string
	objects string
	tmp     string
	journal string
	budget  int64

	bytes   atomic.Int64
	entries atomic.Int64

	hits, misses, puts    atomic.Int64
	evictions, corrupt    atomic.Int64
	skew                  atomic.Int64
	writeErrs, encodeErrs atomic.Int64

	gcMu sync.Mutex
}

// Open creates (or reopens) a store rooted at dir. budgetBytes <= 0 selects
// DefaultBudget. Leftover temp files from a crashed writer are removed; the
// resident byte and entry counts are rebuilt by scanning the objects tree.
// Directories the store does not use, such as the verdicts/ namespace of
// older binaries, are left alone.
func Open(dir string, budgetBytes int64) (*Store, error) {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudget
	}
	s := &Store{
		dir:     dir,
		objects: filepath.Join(dir, "objects"),
		tmp:     filepath.Join(dir, "tmp"),
		journal: filepath.Join(dir, "journal"),
		budget:  budgetBytes,
	}
	for _, d := range []string{s.objects, s.tmp, s.journal} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	// A crashed writer can leave temp files behind; they were never visible
	// under a final name, so removing them is always safe.
	if leftovers, err := os.ReadDir(s.tmp); err == nil {
		for _, e := range leftovers {
			os.Remove(filepath.Join(s.tmp, e.Name()))
		}
	}
	for _, e := range s.scan() {
		s.bytes.Add(e.size)
		s.entries.Add(1)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// pathOf maps a key to its entry path, fanned out over 256 subdirectories
// so no single directory grows unboundedly.
func (s *Store) pathOf(k compcache.Key) string {
	hex := fmt.Sprintf("%x", k[:])
	return filepath.Join(s.objects, hex[:2], hex[2:]+entryExt)
}

// Get reads and decodes the entry for k. A missing entry is a plain miss; a
// corrupt one (torn write, garbled bytes, invalid indices) is quarantined,
// counted, and reported as a miss — the caller recompiles. A hit refreshes
// the entry's recency for GC.
func (s *Store) Get(k compcache.Key) (*eval.FunctionResult, bool) {
	if s == nil {
		return nil, false
	}
	path := s.pathOf(k)
	bp, data, mtime, err := readEntry(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	fr, err := s.decodeEntry(data)
	size := len(data)
	entryBufPool.Put(bp)
	if err != nil {
		if err == errSchemaSkew {
			s.skew.Add(1)
		} else {
			// Corrupt: quarantine so the next lookup doesn't re-pay the
			// failed decode. Schema skew is left in place — it may be a
			// perfectly good entry written by a different binary version.
			s.corrupt.Add(1)
			if rmErr := os.Remove(path); rmErr == nil {
				s.bytes.Add(-int64(size))
				s.entries.Add(-1)
			}
		}
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	if now := time.Now(); now.Sub(mtime) > recencyGrain {
		os.Chtimes(path, now, now)
	}
	return fr, true
}

// entryBufPool recycles the raw entry read buffer: decode copies everything
// it keeps (record fields into slabs, strings via string conversion), so the
// file bytes are dead the moment decodeEntry returns.
var entryBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// readEntry reads path into a pooled buffer. On success the caller owns bp
// until it returns it to entryBufPool; data aliases bp's backing array.
func readEntry(path string) (bp *[]byte, data []byte, mtime time.Time, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, time.Time{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, time.Time{}, err
	}
	n := int(st.Size())
	bp = entryBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	data = (*bp)[:n]
	if _, err := io.ReadFull(f, data); err != nil {
		entryBufPool.Put(bp)
		return nil, nil, time.Time{}, err
	}
	//vet:ignore arenaescape ownership handoff: the caller (Store.Get) returns bp to entryBufPool on every path, including decode errors
	return bp, data, st.ModTime(), nil
}

// recencyGrain bounds how stale an entry's mtime may go before a hit
// refreshes it. GC evicts by whole-entry recency ordering, so refreshing a
// file touched seconds ago buys nothing — skipping the utimes syscall on
// every hot hit does.
const recencyGrain = time.Hour

// decodeEntry validates the header and decodes the payload, converting any
// panic out of a hostile byte stream into an error.
func (s *Store) decodeEntry(data []byte) (fr *eval.FunctionResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			fr, err = nil, fmt.Errorf("store: decode panicked: %v", r)
		}
	}()
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		// An entry from the previous (gob) generation is schema skew, not
		// corruption: it is a perfectly good artifact for an old binary, so
		// it is left in place and read as a plain miss. There is no
		// migration path — skew equals miss by policy.
		if len(data) >= len(oldMagic) && string(data[:len(oldMagic)]) == oldMagic {
			return nil, errSchemaSkew
		}
		return nil, fmt.Errorf("store: bad entry header")
	}
	return decode(data[len(magic):])
}

// magic heads every entry file; the digit is the header version.
const magic = "tgart2\n"

// oldMagic is the previous generation's header; entries carrying it decode
// as schema skew (a miss), never corruption.
const oldMagic = "tgart1\n"

// Put encodes and writes the entry for k atomically (temp file + rename).
// Re-putting an existing key only refreshes its recency: the store is
// content-addressed, so the bytes would be identical. Put never fails the
// compile it serves — errors are returned for tests and counted, and the
// cache layer above ignores them.
func (s *Store) Put(k compcache.Key, fr *eval.FunctionResult) error {
	if s == nil || fr == nil {
		return nil
	}
	path := s.pathOf(k)
	if _, err := os.Stat(path); err == nil {
		now := time.Now()
		os.Chtimes(path, now, now)
		return nil
	}
	body, err := encode(fr)
	if err != nil {
		s.encodeErrs.Add(1)
		return err
	}
	if err := s.writeAtomic(path, append([]byte(magic), body...)); err != nil {
		s.writeErrs.Add(1)
		return err
	}
	s.puts.Add(1)
	s.bytes.Add(int64(len(magic) + len(body)))
	s.entries.Add(1)
	if s.bytes.Load() > s.budget {
		s.GC()
	}
	return nil
}

// writeAtomic writes data to path via a temp file in the store's tmp
// directory (same filesystem, so the rename is atomic).
func (s *Store) writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(s.tmp, "put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// fileInfo is one scanned entry.
type fileInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// scan walks the objects tree.
func (s *Store) scan() []fileInfo {
	var out []fileInfo
	filepath.WalkDir(s.objects, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, entryExt) {
			return nil
		}
		if info, err := d.Info(); err == nil {
			out = append(out, fileInfo{path: path, size: info.Size(), mtime: info.ModTime()})
		}
		return nil
	})
	return out
}

// GC removes least-recently-used entries until the store fits its byte
// budget. The most recently used entry always survives (an oversized
// singleton stays resident rather than thrashing). GC is deterministic in
// the entry mtimes: oldest-first, ties broken by path.
func (s *Store) GC() {
	if s == nil {
		return
	}
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	files := s.scan()
	var total int64
	for _, f := range files {
		total += f.size
	}
	// Resync the approximate counters with the ground truth while we hold
	// the full scan (another process may share the directory).
	s.bytes.Store(total)
	s.entries.Store(int64(len(files)))
	if total <= s.budget {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].path < files[j].path
	})
	for i := 0; total > s.budget && i < len(files)-1; i++ {
		if err := os.Remove(files[i].path); err != nil {
			continue
		}
		total -= files[i].size
		s.bytes.Add(-files[i].size)
		s.entries.Add(-1)
		s.evictions.Add(1)
	}
}

// Close flushes the store: a final GC enforces the budget so the directory
// a drained daemon leaves behind is within bounds.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.GC()
	return nil
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	Hits, Misses, Puts        int64
	Evictions, Corrupt        int64
	SchemaSkew                int64
	WriteErrors, EncodeErrors int64
	Entries, Bytes, Budget    int64
}

// SchemaVersion is the payload schema this binary reads and writes; entries
// carrying any other schema (or the old tgart1 header) count as SchemaSkew
// misses.
func (s *Store) SchemaVersion() int { return schemaVersion }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		Evictions:    s.evictions.Load(),
		Corrupt:      s.corrupt.Load(),
		SchemaSkew:   s.skew.Load(),
		WriteErrors:  s.writeErrs.Load(),
		EncodeErrors: s.encodeErrs.Load(),
		Entries:      s.entries.Load(),
		Bytes:        s.bytes.Load(),
		Budget:       s.budget,
	}
}

// Register exposes the store counters on reg under prefix, alongside the
// cache and pipeline metrics the rest of the service reports.
func (s *Store) Register(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+"_store_hits_total", "Compiles served from the disk artifact store.", s.hits.Load)
	reg.CounterFunc(prefix+"_store_misses_total", "Disk store lookups that missed.", s.misses.Load)
	reg.CounterFunc(prefix+"_store_puts_total", "Artifacts written to the disk store.", s.puts.Load)
	reg.CounterFunc(prefix+"_store_evictions_total", "Artifacts removed by byte-budget GC.", s.evictions.Load)
	reg.CounterFunc(prefix+"_store_corrupt_total", "Corrupt artifacts quarantined on read.", s.corrupt.Load)
	reg.CounterFunc(prefix+"_store_schema_skew_total", "Artifacts skipped for carrying another schema version.", s.skew.Load)
	reg.CounterFunc(prefix+"_store_write_errors_total", "Artifact writes that failed.", s.writeErrs.Load)
	reg.GaugeFunc(prefix+"_store_entries", "Resident disk store entries.", s.entries.Load)
	reg.GaugeFunc(prefix+"_store_bytes", "Resident disk store bytes.", s.bytes.Load)
	reg.GaugeFunc(prefix+"_store_budget_bytes", "Configured disk store byte budget.", func() int64 { return s.budget })
}

// Journal returns the store's named-blob namespace, used by the job queue
// to persist job records across restarts. Blob writes are atomic like
// entry writes, and blob bytes are not charged against the artifact budget
// (journal records are tiny and must never be GC'd away under load).
func (s *Store) Journal() *Journal {
	if s == nil {
		return nil
	}
	return &Journal{store: s}
}

// Journal is the store's flat namespace of small named blobs.
type Journal struct {
	store *Store
}

// blobPath validates the id (a single path element) and maps it to a file.
func (j *Journal) blobPath(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\") || id == "." || id == ".." {
		return "", fmt.Errorf("store: bad journal id %q", id)
	}
	return filepath.Join(j.store.journal, id+".json"), nil
}

// Put writes the blob atomically.
func (j *Journal) Put(id string, data []byte) error {
	if j == nil {
		return nil
	}
	path, err := j.blobPath(id)
	if err != nil {
		return err
	}
	return j.store.writeAtomic(path, data)
}

// Get reads one blob.
func (j *Journal) Get(id string) ([]byte, bool) {
	if j == nil {
		return nil, false
	}
	path, err := j.blobPath(id)
	if err != nil {
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	return data, true
}

// Delete removes one blob; deleting an absent blob is not an error.
func (j *Journal) Delete(id string) error {
	if j == nil {
		return nil
	}
	path, err := j.blobPath(id)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// List returns every blob keyed by id.
func (j *Journal) List() (map[string][]byte, error) {
	if j == nil {
		return nil, nil
	}
	entries, err := os.ReadDir(j.store.journal)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(j.store.journal, name))
		if err != nil {
			continue
		}
		out[strings.TrimSuffix(name, ".json")] = data
	}
	return out, nil
}
