package pipeline

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"treegion/internal/compcache"
	"treegion/internal/eval"
)

// Every index in [0, n) must be claimed exactly once, whatever the mix of
// own-range chunks and steals — the pipeline's correctness reduces to this.
func TestStealQueueCoversAllIndicesOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers, k int }{
		{0, 1, 1}, {1, 4, 3}, {7, 3, 2}, {64, 8, 4}, {100, 16, 16}, {5, 8, 1},
	} {
		q := newStealQueue(tc.n, tc.workers)
		var mu sync.Mutex
		seen := make([]int, tc.n)
		var wg sync.WaitGroup
		for w := 0; w < tc.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					mu.Lock()
					chunk, ok := q.take(w, tc.k)
					mu.Unlock()
					if !ok {
						return
					}
					if chunk.len() == 0 || chunk.len() > tc.k {
						t.Errorf("n=%d workers=%d: chunk %+v has bad size (k=%d)", tc.n, tc.workers, chunk, tc.k)
						return
					}
					for i := chunk.lo; i < chunk.hi; i++ {
						mu.Lock()
						seen[i]++
						mu.Unlock()
					}
				}
			}(w)
		}
		wg.Wait()
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d workers=%d k=%d: index %d claimed %d times", tc.n, tc.workers, tc.k, i, c)
			}
		}
	}
}

// A worker whose range is exhausted must steal from the largest victim and
// leave the victim the lower half, keeping both ranges contiguous.
func TestStealTakesUpperHalfOfLargestVictim(t *testing.T) {
	q := newStealQueue(12, 3) // spans: [0,4) [4,8) [8,12)
	q.spans[0] = span{4, 4}   // worker 0 drained
	q.spans[1] = span{4, 6}   // 2 left
	q.spans[2] = span{6, 12}  // 6 left — the largest

	chunk, ok := q.take(0, 2)
	if !ok {
		t.Fatal("take found no work with 8 indices pending")
	}
	if q.spans[2].hi != 9 || q.spans[2].lo != 6 {
		t.Fatalf("victim span = %+v, want [6,9) (kept lower half)", q.spans[2])
	}
	if chunk != (span{9, 11}) {
		t.Fatalf("stolen chunk = %+v, want [9,11)", chunk)
	}
	if q.spans[0] != (span{11, 12}) {
		t.Fatalf("thief's remaining span = %+v, want [11,12)", q.spans[0])
	}
}

func TestChunkSizeBounds(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{1, 8, 1},      // tiny input: per-function dispatch
		{64, 8, 2},     // several chunks per worker
		{10000, 2, 16}, // capped so steals can still rebalance
	} {
		if got := chunkSize(tc.n, tc.workers); got != tc.want {
			t.Errorf("chunkSize(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// CompileEach must deliver every result exactly once, in index order, with
// the same content the batch compiler produces, at any worker count.
func TestCompileEachOrderedAndComplete(t *testing.T) {
	prog, profs := testProgram(t)
	cfg := eval.DefaultConfig()

	want, err := CompileProgram(context.Background(), prog, profs, cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3, 8} {
		var order []int
		var got []*eval.FunctionResult
		err := CompileEach(context.Background(), prog.Funcs, profs, cfg,
			Options{Workers: workers},
			func(i int, fr *eval.FunctionResult, cached bool, cerr error) error {
				if cerr != nil {
					t.Fatalf("workers=%d: function %d: %v", workers, i, cerr)
				}
				if cached {
					t.Fatalf("workers=%d: spurious cache hit without a cache", workers)
				}
				order = append(order, i)
				got = append(got, fr)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(order) != len(prog.Funcs) {
			t.Fatalf("workers=%d: %d results for %d functions", workers, len(order), len(prog.Funcs))
		}
		for i, idx := range order {
			if i != idx {
				t.Fatalf("workers=%d: results out of order: %v", workers, order)
			}
		}
		streamed := eval.Aggregate(prog.Name, cfg, got)
		if !reflect.DeepEqual(project(streamed), project(want)) {
			t.Errorf("workers=%d: streamed results differ from batch compile", workers)
		}
	}
}

// An emit error must stop the stream: no later emits, and the error comes
// back from CompileEach.
func TestCompileEachEmitErrorStops(t *testing.T) {
	prog, profs := testProgram(t)
	sentinel := errors.New("client gone")
	calls := 0
	err := CompileEach(context.Background(), prog.Funcs, profs,
		eval.DefaultConfig(), Options{Workers: 4},
		func(i int, fr *eval.FunctionResult, cached bool, cerr error) error {
			calls++
			return sentinel
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after failing on the first call", calls)
	}
}

// CompileEach must report cache hits: a second pass over the same inputs
// with a shared cache serves every function from it.
func TestCompileEachCacheHits(t *testing.T) {
	prog, profs := testProgram(t)
	cfg := eval.DefaultConfig()
	opts := Options{Workers: 2, Cache: compcache.New(32 << 20)}
	run := func() (hits int) {
		err := CompileEach(context.Background(), prog.Funcs, profs, cfg, opts,
			func(i int, fr *eval.FunctionResult, cached bool, cerr error) error {
				if cerr != nil {
					t.Fatal(cerr)
				}
				if cached {
					hits++
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return hits
	}
	if hits := run(); hits != 0 {
		t.Fatalf("first pass: %d cache hits, want 0", hits)
	}
	if hits := run(); hits != len(prog.Funcs) {
		t.Fatalf("second pass: %d cache hits, want %d", hits, len(prog.Funcs))
	}
}
