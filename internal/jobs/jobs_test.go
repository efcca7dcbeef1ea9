package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memJournal is an in-memory Journal for tests.
type memJournal struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemJournal() *memJournal { return &memJournal{m: make(map[string][]byte)} }

func (j *memJournal) Put(id string, data []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.m[id] = append([]byte(nil), data...)
	return nil
}

func (j *memJournal) Delete(id string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.m, id)
	return nil
}

func (j *memJournal) List() (map[string][]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string][]byte, len(j.m))
	for k, v := range j.m {
		out[k] = append([]byte(nil), v...)
	}
	return out, nil
}

// record returns the journaled state of job id.
func (j *memJournal) record(t *testing.T, id string) Job {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	data, ok := j.m[id]
	if !ok {
		t.Fatalf("job %s not journaled", id)
	}
	var job Job
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	return job
}

func waitState(t *testing.T, q *Queue, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.State == want {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, j.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitRunDone(t *testing.T) {
	jl := newMemJournal()
	q, err := New(Options{Workers: 2, Capacity: 8, Journal: jl, Run: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		return json.RawMessage(`{"echo":` + string(p) + `}`), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Drain(context.Background())

	j, err := q.Submit(json.RawMessage(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.ID == "" {
		t.Fatalf("submit snapshot %+v", j)
	}
	done := waitState(t, q, j.ID, StateDone)
	if string(done.Result) != `{"echo":{"x":1}}` {
		t.Fatalf("result %s", done.Result)
	}
	if done.Attempts != 1 {
		t.Fatalf("attempts %d", done.Attempts)
	}
	// The terminal state is journaled.
	if rec := jl.record(t, j.ID); rec.State != StateDone {
		t.Fatalf("journaled state %s", rec.State)
	}
	if s := q.Stats(); s.Submitted != 1 || s.Completed != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// slowJournal is a memJournal whose writes of one job state are slow: each
// waits until a done record has been written, or a grace period has passed,
// before it lands. It recreates the interleavings in which a fast worker's
// later records race a held-back one.
type slowJournal struct {
	*memJournal
	slow State
	done chan struct{} // closed once a done record is written
	once sync.Once
}

func (j *slowJournal) Put(id string, data []byte) error {
	var rec Job
	if err := json.Unmarshal(data, &rec); err != nil {
		return err
	}
	if rec.State == j.slow {
		select {
		case <-j.done:
		case <-time.After(250 * time.Millisecond):
		}
	}
	err := j.memJournal.Put(id, data)
	if rec.State == StateDone {
		j.once.Do(func() { close(j.done) })
	}
	return err
}

// TestJournalHoldsLatestPublishedState checks the journal's invariant under
// slow writes: a job's record is always its latest published state, and a
// state is journaled before Get can return it. A slow queued write must not
// land after the job's done record, or a restart runs the finished job a
// second time; a slow done write must land before Get reports done.
func TestJournalHoldsLatestPublishedState(t *testing.T) {
	for _, slow := range []State{StateQueued, StateDone} {
		t.Run(string(slow), func(t *testing.T) {
			jl := &slowJournal{memJournal: newMemJournal(), slow: slow, done: make(chan struct{})}
			var runs atomic.Int32
			opts := Options{Workers: 1, Journal: jl, Run: func(context.Context, json.RawMessage) (json.RawMessage, error) {
				runs.Add(1)
				return json.RawMessage(`{}`), nil
			}}
			q, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			q.Start()
			j, err := q.Submit(nil)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, q, j.ID, StateDone)
			if rec := jl.record(t, j.ID); rec.State != StateDone {
				t.Fatalf("Get reports done while the journal holds %s", rec.State)
			}
			if err := q.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}

			// A restart on the same journal finds nothing to run.
			q2, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			q2.Start()
			defer q2.Drain(context.Background())
			if s := q2.Stats(); s.Recovered != 0 {
				t.Fatalf("restart recovered %d jobs, want 0", s.Recovered)
			}
			if got, ok := q2.Get(j.ID); !ok || got.State != StateDone {
				t.Fatalf("job after restart: %+v", got)
			}
			if n := runs.Load(); n != 1 {
				t.Fatalf("job ran %d times, want 1", n)
			}
		})
	}
}

type codedErr struct{ msg, code string }

func (e *codedErr) Error() string { return e.msg }
func (e *codedErr) Code() string  { return e.code }

func TestFailureCarriesCode(t *testing.T) {
	q, err := New(Options{Run: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		return nil, &codedErr{msg: "bad ir", code: "bad_ir"}
	}})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Drain(context.Background())
	j, _ := q.Submit(nil)
	failed := waitState(t, q, j.ID, StateFailed)
	if failed.Error != "bad ir" || failed.ErrorCode != "bad_ir" {
		t.Fatalf("failure %+v", failed)
	}
}

func TestTransientRetryWithBackoff(t *testing.T) {
	var attempts int
	mu := sync.Mutex{}
	q, err := New(Options{Retries: 3, Backoff: time.Millisecond, Run: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		mu.Lock()
		defer mu.Unlock()
		attempts++
		if attempts < 3 {
			return nil, Transient(fmt.Errorf("flaky"))
		}
		return json.RawMessage(`"ok"`), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Drain(context.Background())
	j, _ := q.Submit(nil)
	done := waitState(t, q, j.ID, StateDone)
	if done.Attempts != 3 {
		t.Fatalf("attempts %d, want 3", done.Attempts)
	}
	if s := q.Stats(); s.Retries != 2 {
		t.Fatalf("retries %d, want 2", s.Retries)
	}
}

func TestPermanentErrorIsNotRetried(t *testing.T) {
	var attempts int
	mu := sync.Mutex{}
	q, err := New(Options{Retries: 3, Backoff: time.Millisecond, Run: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		mu.Lock()
		attempts++
		mu.Unlock()
		return nil, errors.New("permanent")
	}})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Drain(context.Background())
	j, _ := q.Submit(nil)
	failed := waitState(t, q, j.ID, StateFailed)
	if failed.Attempts != 1 {
		t.Fatalf("permanent failure retried (%d attempts)", failed.Attempts)
	}
}

func TestTimeout(t *testing.T) {
	q, err := New(Options{Timeout: 20 * time.Millisecond, Run: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Drain(context.Background())
	j, _ := q.Submit(nil)
	failed := waitState(t, q, j.ID, StateFailed)
	if failed.ErrorCode != "timeout" {
		t.Fatalf("error code %q, want timeout", failed.ErrorCode)
	}
}

func TestQueueFull(t *testing.T) {
	block := make(chan struct{})
	q, err := New(Options{Workers: 1, Capacity: 2, Run: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		<-block
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer func() { close(block); q.Drain(context.Background()) }()

	// One job occupies the worker; Capacity more fill the channel; the
	// next submission overflows. (The worker may not have dequeued the
	// first job yet, so allow one extra submission before demanding
	// overflow.)
	overflowed := false
	for i := 0; i < 4; i++ {
		if _, err := q.Submit(nil); errors.Is(err, ErrQueueFull) {
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Fatal("bounded queue never overflowed")
	}
	if q.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestCancelQueued(t *testing.T) {
	block := make(chan struct{})
	q, err := New(Options{Workers: 1, Capacity: 4, Run: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		<-block
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer func() { close(block); q.Drain(context.Background()) }()

	first, _ := q.Submit(nil) // occupies the worker
	waitState(t, q, first.ID, StateRunning)
	second, _ := q.Submit(nil) // waits in the channel
	j, ok := q.Cancel(second.ID)
	if !ok || j.State != StateCanceled {
		t.Fatalf("cancel queued: %+v ok=%v", j, ok)
	}
	// The canceled job must never run.
	if j, _ := q.Get(second.ID); j.Attempts != 0 {
		t.Fatal("canceled job ran")
	}
}

func TestCancelRunning(t *testing.T) {
	started := make(chan struct{}, 1)
	q, err := New(Options{Run: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Drain(context.Background())
	j, _ := q.Submit(nil)
	<-started
	if _, ok := q.Cancel(j.ID); !ok {
		t.Fatal("cancel miss")
	}
	got := waitState(t, q, j.ID, StateCanceled)
	if got.ErrorCode != "canceled" {
		t.Fatalf("error code %q", got.ErrorCode)
	}
}

func TestCancelUnknown(t *testing.T) {
	q, _ := New(Options{Run: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) { return nil, nil }})
	q.Start()
	defer q.Drain(context.Background())
	if _, ok := q.Cancel("nope"); ok {
		t.Fatal("canceled a job that does not exist")
	}
}

func TestDrainFinishesRunningRejectsNew(t *testing.T) {
	release := make(chan struct{})
	q, err := New(Options{Run: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`"done"`), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	j, _ := q.Submit(nil)
	waitState(t, q, j.ID, StateRunning)

	drained := make(chan error, 1)
	go func() { drained <- q.Drain(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	if _, err := q.Submit(nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v", err)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if got, _ := q.Get(j.ID); got.State != StateDone {
		t.Fatalf("running job not finished by drain: %s", got.State)
	}
}

func TestRecovery(t *testing.T) {
	jl := newMemJournal()
	run := func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		return json.RawMessage(`"ran"`), nil
	}

	// Fabricate the journal a crashed process would leave: one job still
	// queued, one that was mid-run, one already done.
	mk := func(id string, st State, created time.Time) {
		data, _ := json.Marshal(Job{ID: id, State: st, Created: created})
		jl.Put(id, data)
	}
	base := time.Now().Add(-time.Minute)
	mk("jqueued", StateQueued, base)
	mk("jrunning", StateRunning, base.Add(time.Second))
	mk("jdone", StateDone, base.Add(2*time.Second))
	jl.Put("jtorn", []byte("{not json"))

	q, err := New(Options{Workers: 1, Capacity: 8, Journal: jl, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Drain(context.Background())

	// The queued job re-enqueues and runs to completion.
	done := waitState(t, q, "jqueued", StateDone)
	if string(done.Result) != `"ran"` {
		t.Fatalf("recovered job result %s", done.Result)
	}
	// The mid-run job is marked interrupted, with the journal updated.
	ij, ok := q.Get("jrunning")
	if !ok || ij.State != StateInterrupted {
		t.Fatalf("running job after restart: %+v", ij)
	}
	if rec := jl.record(t, "jrunning"); rec.State != StateInterrupted {
		t.Fatalf("journaled state %s", rec.State)
	}
	// Terminal history is preserved untouched.
	if dj, ok := q.Get("jdone"); !ok || dj.State != StateDone {
		t.Fatal("done job lost in recovery")
	}
	// The torn record was dropped, not resurrected.
	if _, ok := q.Get("jtorn"); ok {
		t.Fatal("torn journal record resurrected")
	}
	s := q.Stats()
	if s.Recovered != 1 || s.Interrupted != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestListNewestFirst(t *testing.T) {
	q, _ := New(Options{Workers: 1, Capacity: 8, Run: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) { return nil, nil }})
	q.Start()
	defer q.Drain(context.Background())
	a, _ := q.Submit(nil)
	b, _ := q.Submit(nil)
	waitState(t, q, a.ID, StateDone)
	waitState(t, q, b.ID, StateDone)
	list := q.List()
	if len(list) != 2 {
		t.Fatalf("%d jobs listed", len(list))
	}
	if list[0].Created.Before(list[1].Created) {
		t.Fatal("list not newest-first")
	}
}

func TestPanicingRunnerFailsJobOnly(t *testing.T) {
	q, _ := New(Options{Run: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		panic("kaboom")
	}})
	q.Start()
	defer q.Drain(context.Background())
	j, _ := q.Submit(nil)
	failed := waitState(t, q, j.ID, StateFailed)
	if failed.Error == "" {
		t.Fatal("panic not reported")
	}
	// The worker survived: a second job still runs.
	j2, err := q.Submit(nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, j2.ID, StateFailed)
}
