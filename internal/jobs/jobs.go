// Package jobs is the asynchronous compile-job subsystem: a bounded
// in-process queue that runs opaque payloads on a worker pool with per-job
// timeouts and cancellation. A job runs once: a runner error fails it.
//
// The queue is persistence-aware but storage-agnostic: every job state
// transition is journaled through the Journal interface (implemented by the
// artifact store's blob namespace), so a restarted daemon recovers the jobs
// a crash left behind — queued jobs re-enqueue, jobs that were mid-run are
// marked interrupted, and finished jobs remain queryable history.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"treegion/internal/telemetry"
)

// State is a job's lifecycle state.
type State string

// Job states. A job moves queued → running → done/failed/canceled; a
// restart turns a mid-run job into interrupted.
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
	StateInterrupted State = "interrupted"
)

// Job is one unit of asynchronous work. The queue hands out snapshot
// copies; callers never share memory with the queue's internal record.
type Job struct {
	ID      string          `json:"id"`
	State   State           `json:"state"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// Result is the runner's output once the job is done.
	Result json.RawMessage `json:"result,omitempty"`
	// Error and ErrorCode describe a failed/interrupted job.
	Error     string `json:"error,omitempty"`
	ErrorCode string `json:"error_code,omitempty"`
	// Attempts is 0 while the job is queued and 1 once the runner starts.
	Attempts int       `json:"attempts"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
}

// Runner executes one job payload and returns its result. The context
// carries the per-job timeout and is canceled by DELETE /v1/jobs/{id}.
type Runner func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error)

// Journal persists job records by ID. A nil Journal disables persistence
// (jobs live and die with the process). The artifact store's Journal
// satisfies this interface. The queue calls Put with its lock held, so
// records land in the order states are published; an implementation must
// not call back into the Queue.
type Journal interface {
	Put(id string, data []byte) error
	Delete(id string) error
	List() (map[string][]byte, error)
}

// Coder lets runner errors carry a machine-readable code (the daemon's
// structured API errors do); the code lands in Job.ErrorCode.
type Coder interface{ Code() string }

// Errors returned by Submit.
var (
	// ErrQueueFull signals a bounded-queue overflow; the daemon answers 429.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining signals a queue that is shutting down; the daemon answers 503.
	ErrDraining = errors.New("jobs: draining")
)

// Options configures a Queue.
type Options struct {
	// Workers bounds concurrent job execution (<= 0 means 1).
	Workers int
	// Capacity bounds the number of queued-but-not-running jobs; Submit
	// fails with ErrQueueFull beyond it (<= 0 means 64).
	Capacity int
	// Timeout bounds one job's execution (<= 0 means no timeout).
	Timeout time.Duration
	// Journal persists job records; nil disables persistence.
	Journal Journal
	// Run executes one payload; required.
	Run Runner
}

// Queue runs jobs. Build with New, then Start; Drain for graceful shutdown.
type Queue struct {
	opts Options

	mu       sync.Mutex
	jobs     map[string]*Job
	cancels  map[string]context.CancelFunc
	draining bool

	ch   chan string
	stop chan struct{}
	wg   sync.WaitGroup

	submitted, completed, failed atomic.Int64
	canceled, rejected           atomic.Int64
	recovered, interrupted       atomic.Int64
	running                      atomic.Int64
	journalErrs                  atomic.Int64
}

// New builds a queue; call Start to recover the journal and begin work.
func New(opts Options) (*Queue, error) {
	if opts.Run == nil {
		return nil, fmt.Errorf("jobs: Options.Run is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Capacity <= 0 {
		opts.Capacity = 64
	}
	return &Queue{
		opts:    opts,
		jobs:    make(map[string]*Job),
		cancels: make(map[string]context.CancelFunc),
		ch:      make(chan string, opts.Capacity),
		stop:    make(chan struct{}),
	}, nil
}

// Start recovers journaled jobs and launches the worker pool. Jobs that
// were queued when the previous process died re-enqueue in creation order;
// jobs that were mid-run are marked interrupted (their worker is gone and
// their partial effects are unknown); terminal jobs stay as history.
func (q *Queue) Start() {
	q.recover()
	for w := 0; w < q.opts.Workers; w++ {
		q.wg.Add(1)
		go q.worker()
	}
}

func (q *Queue) recover() {
	if q.opts.Journal == nil {
		return
	}
	records, err := q.opts.Journal.List()
	if err != nil {
		q.journalErrs.Add(1)
		return
	}
	var requeue []*Job
	for id, data := range records {
		var j Job
		if err := json.Unmarshal(data, &j); err != nil || j.ID != id {
			// A torn journal record: drop it rather than resurrect garbage.
			q.opts.Journal.Delete(id)
			continue
		}
		switch j.State {
		case StateQueued:
			requeue = append(requeue, &j)
		case StateRunning:
			j.State = StateInterrupted
			j.Error = "interrupted by daemon restart"
			j.ErrorCode = "interrupted"
			j.Finished = time.Now()
			q.interrupted.Add(1)
			q.persist(&j)
			q.jobs[j.ID] = &j
		default:
			q.jobs[j.ID] = &j
		}
	}
	sort.Slice(requeue, func(i, k int) bool {
		if !requeue[i].Created.Equal(requeue[k].Created) {
			return requeue[i].Created.Before(requeue[k].Created)
		}
		return requeue[i].ID < requeue[k].ID
	})
	for _, j := range requeue {
		q.jobs[j.ID] = j
		select {
		case q.ch <- j.ID:
			q.recovered.Add(1)
		default:
			// More journaled work than queue capacity: the overflow stays
			// journaled as queued and will be recovered by a later restart.
		}
	}
}

// newID returns a random job ID ("j" + 16 hex digits).
func newID() string {
	var b [8]byte
	rand.Read(b[:])
	return fmt.Sprintf("j%x", b)
}

// Submit enqueues a payload and returns a snapshot of the queued job.
// A full queue fails fast with ErrQueueFull; a draining queue with
// ErrDraining.
func (q *Queue) Submit(payload json.RawMessage) (Job, error) {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		q.rejected.Add(1)
		return Job{}, ErrDraining
	}
	j := &Job{
		ID:      newID(),
		State:   StateQueued,
		Payload: append(json.RawMessage(nil), payload...),
		Created: time.Now(),
	}
	select {
	case q.ch <- j.ID:
	default:
		q.mu.Unlock()
		q.rejected.Add(1)
		return Job{}, ErrQueueFull
	}
	q.jobs[j.ID] = j
	q.persist(j)
	snap := *j
	q.mu.Unlock()
	q.submitted.Add(1)
	return snap, nil
}

// Get returns a snapshot of the job.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns snapshots of every known job, newest first.
func (q *Queue) List() []Job {
	q.mu.Lock()
	out := make([]Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, *j)
	}
	q.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.After(out[k].Created)
		}
		return out[i].ID > out[k].ID
	})
	return out
}

// Cancel cancels the job: a queued job is marked canceled and skipped when
// its turn comes; a running job has its context canceled (the runner
// decides how fast it reacts). Canceling a terminal job is a no-op. The
// returned snapshot reflects the post-cancel state.
func (q *Queue) Cancel(id string) (Job, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return Job{}, false
	}
	switch j.State {
	case StateQueued:
		j.State = StateCanceled
		j.Error = "canceled before execution"
		j.ErrorCode = "canceled"
		j.Finished = time.Now()
		q.canceled.Add(1)
		q.persist(j)
		snap := *j
		q.mu.Unlock()
		return snap, true
	case StateRunning:
		if cancel, ok := q.cancels[id]; ok {
			cancel()
		}
		snap := *j
		q.mu.Unlock()
		return snap, true
	default:
		snap := *j
		q.mu.Unlock()
		return snap, true
	}
}

// worker drains the queue until stopped.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		select {
		case <-q.stop:
			return
		default:
		}
		select {
		case <-q.stop:
			return
		case id := <-q.ch:
			q.process(id)
		}
	}
}

// process runs one job.
func (q *Queue) process(id string) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.State != StateQueued {
		// Canceled while queued (or a recovery edge case): nothing to run.
		q.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.Started = time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	if q.opts.Timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), q.opts.Timeout)
	}
	q.cancels[id] = cancel
	q.persist(j)
	// The running record is journaled with Attempts 0; the terminal record
	// carries the 1.
	j.Attempts = 1
	payload := j.Payload
	q.mu.Unlock()
	q.running.Add(1)
	result, err := q.run(ctx, payload)
	q.running.Add(-1)

	q.mu.Lock()
	delete(q.cancels, id)
	j.Finished = time.Now()
	switch {
	case err == nil:
		j.State = StateDone
		j.Result = result
		q.completed.Add(1)
	case errors.Is(ctx.Err(), context.Canceled):
		j.State = StateCanceled
		j.Error = "canceled while running"
		j.ErrorCode = "canceled"
		q.canceled.Add(1)
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		j.State = StateFailed
		j.Error = fmt.Sprintf("job exceeded its %s timeout", q.opts.Timeout)
		j.ErrorCode = "timeout"
		q.failed.Add(1)
	default:
		j.State = StateFailed
		j.Error = err.Error()
		j.ErrorCode = "job_failed"
		var c Coder
		if errors.As(err, &c) {
			j.ErrorCode = c.Code()
		}
		q.failed.Add(1)
	}
	q.persist(j)
	q.mu.Unlock()
	cancel()
}

// run isolates one runner invocation: a panicking runner fails its job
// instead of killing the worker pool.
func (q *Queue) run(ctx context.Context, payload json.RawMessage) (result json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, fmt.Errorf("job panicked: %v", r)
		}
	}()
	return q.opts.Run(ctx, payload)
}

// persist journals j's current record. Every state change calls it with
// q.mu held, after the change and before the unlock, so the journal's
// record of a job is always its latest published state and Get never
// returns a state that is not yet journaled. The store's journal write is
// a temp-file write and a rename, short enough to hold the lock across.
// recover calls it before any worker or caller can race it.
func (q *Queue) persist(j *Job) {
	if q.opts.Journal == nil {
		return
	}
	data, err := json.Marshal(j)
	if err != nil {
		q.journalErrs.Add(1)
		return
	}
	if err := q.opts.Journal.Put(j.ID, data); err != nil {
		q.journalErrs.Add(1)
	}
}

// Drain shuts the queue down gracefully: new submissions are rejected,
// running jobs finish (bounded by ctx), and still-queued jobs stay
// journaled as queued for the next process to recover. It returns ctx.Err()
// if the deadline expired with workers still busy.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return nil
	}
	q.draining = true
	q.mu.Unlock()
	close(q.stop)
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats is a point-in-time snapshot of the queue counters.
type Stats struct {
	Submitted, Completed, Failed int64
	Canceled, Rejected           int64
	Recovered, Interrupted       int64
	Running, Depth               int64
}

// Stats snapshots the counters.
func (q *Queue) Stats() Stats {
	return Stats{
		Submitted:   q.submitted.Load(),
		Completed:   q.completed.Load(),
		Failed:      q.failed.Load(),
		Canceled:    q.canceled.Load(),
		Rejected:    q.rejected.Load(),
		Recovered:   q.recovered.Load(),
		Interrupted: q.interrupted.Load(),
		Running:     q.running.Load(),
		Depth:       int64(len(q.ch)),
	}
}

// Register exposes the queue counters on reg under prefix.
func (q *Queue) Register(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+"_jobs_submitted_total", "Jobs accepted into the queue.", q.submitted.Load)
	reg.CounterFunc(prefix+"_jobs_completed_total", "Jobs finished successfully.", q.completed.Load)
	reg.CounterFunc(prefix+"_jobs_failed_total", "Jobs that failed (including timeouts).", q.failed.Load)
	reg.CounterFunc(prefix+"_jobs_canceled_total", "Jobs canceled by clients.", q.canceled.Load)
	reg.CounterFunc(prefix+"_jobs_rejected_total", "Submissions rejected (queue full or draining).", q.rejected.Load)
	reg.CounterFunc(prefix+"_jobs_recovered_total", "Journaled jobs re-enqueued after restart.", q.recovered.Load)
	reg.CounterFunc(prefix+"_jobs_interrupted_total", "Mid-run jobs marked interrupted after restart.", q.interrupted.Load)
	reg.GaugeFunc(prefix+"_jobs_running", "Jobs currently executing.", q.running.Load)
	reg.GaugeFunc(prefix+"_jobs_queued", "Jobs waiting in the queue.", func() int64 { return int64(len(q.ch)) })
}
