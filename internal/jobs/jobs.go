// Package jobs is a generic in-process async job queue: submit a function,
// poll its progress, fetch its result or cancel it. It is the machinery
// behind POST /api/v1/optimize (long-running tuner searches must not hold an
// HTTP request open), but knows nothing about tuning — a job is any
// func(ctx, report) (any, error), submitted with the payload that rebuilds
// it after a restart.
//
// Properties:
//
//   - bounded workers: at most Workers jobs run concurrently; the rest wait
//     in a bounded pending queue (Submit fails fast with ErrQueueFull past
//     capacity — backpressure, not unbounded memory);
//   - cancellation: Cancel stops a queued job immediately and signals a
//     running job through its context;
//   - progress: jobs publish Progress snapshots; Get returns a consistent
//     point-in-time Snapshot at any moment of the lifecycle;
//   - bounded history: finished jobs are retained for polling but the oldest
//     are pruned past a cap, so a long-lived server cannot leak jobs;
//   - durability (optional): with Options.Store set, every job writes
//     through to the store on each lifecycle transition (with its progress
//     as of then; a progress report alone writes nothing), and a new queue
//     replays it — queued jobs resume through Options.Rehydrate at zero
//     progress, jobs that died mid-run re-run from zero, finished results
//     are still servable (see store.go).
//
// Lifecycle: queued → running → done | failed | cancelled. A panic in a job
// function is captured as a failure; it never kills a worker.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Progress is a job's self-reported position, opaque to the queue.
type Progress struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Note  string `json:"note,omitempty"`
}

// Func is the work a job performs. It must honor ctx (cancellation) and may
// call report at any time to publish progress; report is safe for concurrent
// use and never blocks.
type Func func(ctx context.Context, report func(Progress)) (any, error)

// Snapshot is a consistent view of one job, JSON-shaped for the HTTP API.
type Snapshot struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	// Result is the job function's return value once State == done.
	Result any `json:"result,omitempty"`
	// Error explains failed/cancelled states.
	Error      string     `json:"error,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

var (
	// ErrQueueFull is returned by Submit when the pending queue is at
	// capacity — the caller's backpressure signal (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("jobs: queue closed")
)

// job is the internal record; mu guards everything mutable.
type job struct {
	id        string
	name      string
	fn        Func
	payload   json.RawMessage // Submit's payload, encoded only when a store is set
	mu        sync.Mutex
	state     State
	progress  Progress
	result    any
	err       error
	created   time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // non-nil while running
	cancelReq bool               // Cancel seen before/while running
	// watchers receive a Snapshot on every progress update and state
	// change; their channels close when the job reaches a terminal state.
	watchers map[*watcher]bool
}

// watcher is one Watch subscription. Its channel is buffered to one
// snapshot and coalesced: a slow consumer always sees the latest state, not
// a backlog, and the terminal snapshot is never dropped (it replaces any
// stale pending one before the channel closes).
type watcher struct {
	ch chan Snapshot
}

// notifyLocked publishes the current snapshot to every watcher and, on a
// terminal state, delivers the final snapshot and closes the channels.
// Caller holds j.mu.
func (j *job) notifyLocked() {
	if len(j.watchers) == 0 {
		return
	}
	snap := j.snapshotLocked()
	for w := range j.watchers {
		select {
		case w.ch <- snap:
			continue
		default:
		}
		// Full: drop the stale snapshot and replace it with the latest.
		select {
		case <-w.ch:
		default:
		}
		select {
		case w.ch <- snap:
		default:
		}
	}
	if snap.State.Terminal() {
		for w := range j.watchers {
			close(w.ch)
		}
		j.watchers = nil
	}
}

// Queue runs submitted jobs on a fixed worker pool. Construct with New.
type Queue struct {
	mu    sync.Mutex
	cond  *sync.Cond // signals workers when pending grows or the queue closes
	jobs  map[string]*job
	order []string // submission order, for history pruning
	// pending is the FIFO of jobs awaiting a worker. A slice (not a
	// channel) so Cancel can remove a queued job immediately — a cancelled
	// job must free its capacity slot rather than sit as a tombstone that
	// keeps Submit answering ErrQueueFull.
	pending  []*job
	capacity int
	wg       sync.WaitGroup
	closed   bool
	nextID   int
	keep     int

	// Lifecycle counters behind Stats. Atomics because terminal transitions
	// happen under the individual job's lock, not q.mu.
	running   atomic.Int64
	submitted atomic.Int64
	done      atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	pruned    atomic.Int64

	baseCtx context.Context
	stopAll context.CancelFunc

	store     *FileStore
	rehydrate func(payload json.RawMessage) (Func, error)
}

// Options tunes a Queue.
type Options struct {
	// Workers is the concurrent job limit (default 2).
	Workers int
	// Capacity bounds the pending queue (default 64).
	Capacity int
	// KeepFinished bounds how many terminal jobs are retained for polling
	// (default 256); the oldest are pruned first.
	KeepFinished int
	// Store, when non-nil, persists every job on each lifecycle transition
	// and is replayed at construction.
	Store *FileStore
	// Rehydrate rebuilds a replayed job's Func from the payload it was
	// submitted with: the closure itself cannot cross a process boundary.
	// A replayed non-terminal job it refuses (or that finds no Rehydrate)
	// settles as failed instead of resuming.
	Rehydrate func(payload json.RawMessage) (Func, error)
}

// New starts a queue with the given options.
func New(opt Options) *Queue {
	if opt.Workers <= 0 {
		opt.Workers = 2
	}
	if opt.Capacity <= 0 {
		opt.Capacity = 64
	}
	if opt.KeepFinished <= 0 {
		opt.KeepFinished = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		jobs:      make(map[string]*job),
		capacity:  opt.Capacity,
		keep:      opt.KeepFinished,
		baseCtx:   ctx,
		stopAll:   cancel,
		store:     opt.Store,
		rehydrate: opt.Rehydrate,
	}
	q.cond = sync.NewCond(&q.mu)
	q.restore()
	for i := 0; i < opt.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// restore replays the store into the queue before the workers start:
// terminal jobs become servable history, queued jobs re-enter the pending
// queue in their original order, and jobs that were running when the
// previous process died are re-queued to run again from scratch — job
// functions are deterministic searches, so a re-run converges on the same
// result the lost run would have produced.
func (q *Queue) restore() {
	if q.store == nil {
		return
	}
	recs, err := q.store.Load()
	if err != nil {
		// The WAL was readable moments ago when the store opened (or it
		// would not exist); treat an unreadable replay as an empty history
		// rather than refusing to serve — new writes still land.
		return
	}
	for _, rec := range recs {
		j := &job{
			id:       rec.ID,
			name:     rec.Name,
			payload:  rec.Payload,
			state:    rec.State,
			progress: rec.Progress,
			created:  rec.CreatedAt,
		}
		if n := jobIDNum(rec.ID); n > q.nextID {
			q.nextID = n
		}
		if rec.Error != "" {
			j.err = errors.New(rec.Error)
		}
		if rec.StartedAt != nil {
			j.started = *rec.StartedAt
		}
		if rec.FinishedAt != nil {
			j.finished = *rec.FinishedAt
		}
		if len(rec.Result) > 0 {
			// Kept as raw JSON: it serializes byte-identically to what the
			// previous process would have served.
			j.result = json.RawMessage(rec.Result)
		}
		if !rec.State.Terminal() {
			fn, ferr := q.rehydrateFunc(rec)
			if ferr != nil {
				j.state = StateFailed
				j.err = ferr
				j.finished = time.Now()
				q.persistLocked(j, StateFailed)
			} else {
				// Re-queued from scratch: the dead run's progress is not
				// this run's.
				j.fn = fn
				j.state = StateQueued
				j.progress = Progress{}
				j.err = nil
				j.started = time.Time{}
				j.finished = time.Time{}
				if rec.State != StateQueued {
					// It was mid-run at the crash; record the reset so a
					// second crash before the re-run still replays cleanly.
					q.persistLocked(j, StateQueued)
				}
				q.pending = append(q.pending, j)
			}
		}
		q.jobs[j.id] = j
		q.order = append(q.order, j.id)
	}
}

// rehydrateFunc rebuilds a replayed job's Func from its payload.
func (q *Queue) rehydrateFunc(rec Record) (Func, error) {
	if q.rehydrate == nil {
		return nil, fmt.Errorf("jobs: no rehydrator for job %s", rec.ID)
	}
	fn, err := q.rehydrate(rec.Payload)
	if err != nil {
		return nil, fmt.Errorf("jobs: rehydrating job %s: %w", rec.ID, err)
	}
	return fn, nil
}

// persistLocked writes a job through to the store with the given persisted
// state — usually the job's own state, but a shutdown-cancelled job
// persists as queued: the process is going away, the work is not. Write
// errors are deliberately dropped: a closed store is how the harness
// models a killed process, and a dying process's writes not landing is
// exactly the semantics the replay is built for. Caller holds j.mu (or has
// exclusive access to j).
func (q *Queue) persistLocked(j *job, state State) {
	if q.store == nil {
		return
	}
	rec := Record{
		ID:        j.id,
		Name:      j.name,
		Payload:   j.payload,
		State:     state,
		Progress:  j.progress,
		CreatedAt: j.created,
	}
	if state != StateQueued {
		// A record persisted as queued is a resume intent — whatever error
		// or timestamps the in-memory job accumulated on its way down do
		// not belong in it.
		if j.err != nil {
			rec.Error = j.err.Error()
		}
		if !j.started.IsZero() {
			t := j.started
			rec.StartedAt = &t
		}
		if !j.finished.IsZero() {
			t := j.finished
			rec.FinishedAt = &t
		}
	}
	if state == StateDone && j.result != nil {
		if raw, err := json.Marshal(j.result); err == nil {
			rec.Result = raw
		} else {
			rec.Error = fmt.Sprintf("jobs: result not serializable: %v", err)
		}
	}
	q.store.Put(rec)
}

// Submit enqueues fn and returns the new job's id. It never blocks: a full
// queue fails with ErrQueueFull, a closed queue with ErrClosed. With a
// store set, the job writes through to it, and payload (anything
// JSON-serializable) is what Options.Rehydrate receives to rebuild fn after
// a restart; without one, payload is not encoded.
func (q *Queue) Submit(name string, payload any, fn Func) (string, error) {
	j := &job{name: name, fn: fn}
	if q.store != nil {
		raw, err := json.Marshal(payload)
		if err != nil {
			return "", fmt.Errorf("jobs: encoding %s payload: %w", name, err)
		}
		j.payload = raw
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return "", ErrClosed
	}
	if len(q.pending) >= q.capacity {
		q.mu.Unlock()
		return "", ErrQueueFull
	}
	q.nextID++
	j.id = fmt.Sprintf("j%d", q.nextID)
	j.state = StateQueued
	j.created = time.Now()
	q.pending = append(q.pending, j)
	q.jobs[j.id] = j
	q.order = append(q.order, j.id)
	q.persistLocked(j, StateQueued)
	q.pruneLocked()
	q.mu.Unlock()
	q.submitted.Add(1)
	q.cond.Signal()
	return j.id, nil
}

// Stats is a point-in-time view of the queue's lifecycle counters, the feed
// for the /metrics jobs families. Queued and Running are gauges; the rest
// are monotone totals since construction.
type Stats struct {
	// Queued is the current pending-queue depth (capacity minus headroom).
	Queued int `json:"queued"`
	// Running is how many jobs workers are executing right now.
	Running int `json:"running"`
	// Submitted counts successful Submit calls.
	Submitted int64 `json:"submitted"`
	// Done, Failed and Cancelled count terminal transitions.
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	// Pruned counts finished jobs dropped past the retention cap.
	Pruned int64 `json:"pruned"`
}

// Stats snapshots the queue counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	depth := len(q.pending)
	q.mu.Unlock()
	return Stats{
		Queued:    depth,
		Running:   int(q.running.Load()),
		Submitted: q.submitted.Load(),
		Done:      q.done.Load(),
		Failed:    q.failed.Load(),
		Cancelled: q.cancelled.Load(),
		Pruned:    q.pruned.Load(),
	}
}

// Watch subscribes to one job's lifecycle: the returned channel immediately
// carries the current snapshot, then one on every progress update and state
// change, and closes once a terminal snapshot has been delivered. Delivery
// is coalesced — a slow consumer sees the latest state rather than a
// backlog — but the terminal snapshot is never dropped. The cancel function
// detaches the watcher (idempotent, safe after close); the ok result is
// false for unknown job ids.
func (q *Queue) Watch(id string) (<-chan Snapshot, func(), bool) {
	q.mu.Lock()
	j := q.jobs[id]
	q.mu.Unlock()
	if j == nil {
		return nil, nil, false
	}
	w := &watcher{ch: make(chan Snapshot, 1)}
	j.mu.Lock()
	snap := j.snapshotLocked()
	w.ch <- snap
	if snap.State.Terminal() {
		close(w.ch)
	} else {
		if j.watchers == nil {
			j.watchers = make(map[*watcher]bool)
		}
		j.watchers[w] = true
	}
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		if j.watchers[w] {
			delete(j.watchers, w)
			close(w.ch)
		}
		j.mu.Unlock()
	}
	return w.ch, cancel, true
}

// pruneLocked drops the oldest terminal jobs past the retention cap.
// Caller holds q.mu.
func (q *Queue) pruneLocked() {
	finished := 0
	for _, id := range q.order {
		if j := q.jobs[id]; j != nil && j.snapshot().State.Terminal() {
			finished++
		}
	}
	if finished <= q.keep {
		return
	}
	kept := q.order[:0]
	for _, id := range q.order {
		j := q.jobs[id]
		if j != nil && finished > q.keep && j.snapshot().State.Terminal() {
			delete(q.jobs, id)
			if q.store != nil {
				// Retention is one policy, not two: a job pruned from
				// memory is pruned from the store, or a restart would
				// resurrect history the running server already forgot.
				q.store.Delete(id)
			}
			q.pruned.Add(1)
			finished--
			continue
		}
		kept = append(kept, id)
	}
	q.order = kept
}

// Get returns a snapshot of the job, if known.
func (q *Queue) Get(id string) (Snapshot, bool) {
	q.mu.Lock()
	j := q.jobs[id]
	q.mu.Unlock()
	if j == nil {
		return Snapshot{}, false
	}
	return j.snapshot(), true
}

// List snapshots every known job in submission order. Results are omitted —
// a listing of hundreds of finished searches must not embed every ranked
// candidate set; fetch one job's result with Get.
func (q *Queue) List() []Snapshot {
	q.mu.Lock()
	js := make([]*job, 0, len(q.order))
	for _, id := range q.order {
		if j := q.jobs[id]; j != nil {
			js = append(js, j)
		}
	}
	q.mu.Unlock()
	out := make([]Snapshot, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
		out[i].Result = nil
	}
	return out
}

// Cancel requests cancellation. A queued job is cancelled immediately; a
// running job is signalled through its context and reaches the cancelled
// state when it returns. Cancelling a terminal job is a no-op. The returned
// snapshot reflects the post-cancel state.
func (q *Queue) Cancel(id string) (Snapshot, bool) {
	q.mu.Lock()
	j := q.jobs[id]
	q.mu.Unlock()
	if j == nil {
		return Snapshot{}, false
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.err = context.Canceled
		j.finished = time.Now()
		q.cancelled.Add(1)
		q.persistLocked(j, StateCancelled)
		j.notifyLocked()
		j.mu.Unlock()
		// Free the capacity slot immediately: a cancelled job must not
		// occupy the pending queue (and 429 new submissions) while it waits
		// for a worker to skip it.
		q.mu.Lock()
		for i, p := range q.pending {
			if p == j {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				break
			}
		}
		q.mu.Unlock()
		return j.snapshot(), true
	case StateRunning:
		j.cancelReq = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	return j.snapshot(), true
}

// Close stops accepting jobs, cancels everything queued or running, and
// waits for the workers to drain (or ctx to expire). Safe to call twice.
func (q *Queue) Close(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast() // wake idle workers so they observe closed
	q.stopAll()        // signals every running job's context

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: close: %w", ctx.Err())
	}
}

// worker pops pending jobs until Close. Jobs still pending at Close are run
// with an already-cancelled base context, so they settle as cancelled.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.pending) == 0 && q.closed {
			q.mu.Unlock()
			return
		}
		j := q.pending[0]
		q.pending = q.pending[1:]
		q.mu.Unlock()
		q.runOne(j)
	}
}

// runOne executes one job, translating context errors and panics into
// terminal states.
func (q *Queue) runOne(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while pending
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(q.baseCtx)
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	if j.cancelReq { // cancelled in the gap before the worker picked it up
		cancel()
	}
	fn := j.fn
	q.running.Add(1)
	q.persistLocked(j, StateRunning)
	j.notifyLocked()
	j.mu.Unlock()
	defer cancel()

	// A report only publishes: the store hears about progress at the next
	// transition. Writing it through would fsync the WAL once per report,
	// under the job's lock, while the reporting search waits.
	report := func(p Progress) {
		j.mu.Lock()
		j.progress = p
		j.notifyLocked()
		j.mu.Unlock()
	}

	var (
		result any
		err    error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("jobs: job %s panicked: %v", j.id, r)
			}
		}()
		result, err = fn(ctx, report)
	}()

	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
		q.done.Add(1)
		q.persistLocked(j, StateDone)
	case (j.cancelReq || q.baseCtx.Err() != nil) && errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err
		q.cancelled.Add(1)
		if j.cancelReq {
			q.persistLocked(j, StateCancelled)
		} else {
			// Shutdown, not a user cancel: the process is going away but
			// the work is not — persist as queued so the successor opening
			// the same store resumes it instead of serving "cancelled".
			q.persistLocked(j, StateQueued)
		}
	default:
		j.state = StateFailed
		j.err = err
		q.failed.Add(1)
		q.persistLocked(j, StateFailed)
	}
	q.running.Add(-1)
	j.notifyLocked()
}

// snapshot copies the job state under its lock.
func (j *job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// snapshotLocked copies the job state; caller holds j.mu.
func (j *job) snapshotLocked() Snapshot {
	s := Snapshot{
		ID:        j.id,
		Name:      j.name,
		State:     j.state,
		Progress:  j.progress,
		Result:    j.result,
		CreatedAt: j.created,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	return s
}
