package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitState polls until the job reaches a terminal-or-wanted state.
func waitState(t *testing.T, q *Queue, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if s.State == want {
			return s
		}
		if s.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, s.State, s.Error, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Snapshot{}
}

func newQueue(t *testing.T, opt Options) *Queue {
	t.Helper()
	q := New(opt)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := q.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return q
}

func TestSubmitPollResult(t *testing.T) {
	q := newQueue(t, Options{})
	id, err := q.Submit("double", nil, func(ctx context.Context, report func(Progress)) (any, error) {
		report(Progress{Done: 1, Total: 2})
		report(Progress{Done: 2, Total: 2, Note: "finishing"})
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := waitState(t, q, id, StateDone)
	if s.Result != 42 || s.Error != "" {
		t.Errorf("snapshot = %+v", s)
	}
	if s.Progress.Done != 2 || s.Progress.Note != "finishing" {
		t.Errorf("progress = %+v", s.Progress)
	}
	if s.StartedAt == nil || s.FinishedAt == nil || s.FinishedAt.Before(*s.StartedAt) {
		t.Errorf("timestamps = %+v / %+v", s.StartedAt, s.FinishedAt)
	}
	// List omits results (a listing must not embed every finished payload);
	// Get keeps them.
	list := q.List()
	if len(list) != 1 || list[0].ID != id || list[0].State != StateDone {
		t.Fatalf("List = %+v", list)
	}
	if list[0].Result != nil {
		t.Error("List embedded the job result; only Get should carry it")
	}
}

func TestFailureAndPanicCapture(t *testing.T) {
	q := newQueue(t, Options{})
	fid, _ := q.Submit("fails", nil, func(context.Context, func(Progress)) (any, error) {
		return nil, errors.New("boom")
	})
	pid, _ := q.Submit("panics", nil, func(context.Context, func(Progress)) (any, error) {
		panic("kaboom")
	})
	if s := waitState(t, q, fid, StateFailed); s.Error != "boom" {
		t.Errorf("failed error = %q", s.Error)
	}
	s := waitState(t, q, pid, StateFailed)
	if s.Error == "" || s.Result != nil {
		t.Errorf("panic snapshot = %+v", s)
	}
	// The worker survived the panic and still runs jobs.
	id, _ := q.Submit("after", nil, func(context.Context, func(Progress)) (any, error) { return "ok", nil })
	waitState(t, q, id, StateDone)
}

func TestCancelRunning(t *testing.T) {
	q := newQueue(t, Options{Workers: 1})
	started := make(chan struct{})
	id, _ := q.Submit("slow", nil, func(ctx context.Context, report func(Progress)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	if s, ok := q.Cancel(id); !ok || s.State == StateQueued {
		t.Fatalf("Cancel = %+v, %v", s, ok)
	}
	s := waitState(t, q, id, StateCancelled)
	if s.Result != nil {
		t.Errorf("cancelled job kept a result: %+v", s)
	}
}

func TestCancelQueued(t *testing.T) {
	q := newQueue(t, Options{Workers: 1})
	release := make(chan struct{})
	blocker, _ := q.Submit("blocker", nil, func(ctx context.Context, _ func(Progress)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})
	waitState(t, q, blocker, StateRunning)
	queued, _ := q.Submit("queued", nil, func(context.Context, func(Progress)) (any, error) {
		t.Error("cancelled queued job must never run")
		return nil, nil
	})
	s, ok := q.Cancel(queued)
	if !ok || s.State != StateCancelled {
		t.Fatalf("Cancel(queued) = %+v, %v", s, ok)
	}
	close(release)
	waitState(t, q, blocker, StateDone)
	// The cancelled job stays cancelled after the worker drains past it.
	if s, _ := q.Get(queued); s.State != StateCancelled {
		t.Errorf("state = %s after drain", s.State)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	q := newQueue(t, Options{Workers: 1, Capacity: 1})
	// Buffered: the worker may start the first blocker before the test
	// reaches <-started, and its non-blocking send must still land.
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blocker := func(ctx context.Context, _ func(Progress)) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	first, _ := q.Submit("running", nil, blocker)
	<-started
	if _, err := q.Submit("pending", nil, blocker); err != nil {
		t.Fatalf("capacity-1 queue rejected its first pending job: %v", err)
	}
	if _, err := q.Submit("overflow", nil, blocker); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on full queue = %v, want ErrQueueFull", err)
	}
	close(release)
	waitState(t, q, first, StateDone)
}

// TestCancelQueuedFreesCapacity: cancelling a queued job must release its
// pending slot immediately — a pile of cancelled jobs must not keep the
// queue answering ErrQueueFull while the workers are busy.
func TestCancelQueuedFreesCapacity(t *testing.T) {
	q := newQueue(t, Options{Workers: 1, Capacity: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	blocker, _ := q.Submit("running", nil, func(ctx context.Context, _ func(Progress)) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})
	<-started
	idle := func(context.Context, func(Progress)) (any, error) { return nil, nil }
	pending, err := q.Submit("pending", nil, idle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("overflow", nil, idle); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue not full: %v", err)
	}
	if s, ok := q.Cancel(pending); !ok || s.State != StateCancelled {
		t.Fatalf("Cancel = %+v, %v", s, ok)
	}
	// The slot is free right now — the worker is still blocked.
	replacement, err := q.Submit("replacement", nil, idle)
	if err != nil {
		t.Fatalf("Submit after cancelling the queued job = %v, want success", err)
	}
	close(release)
	waitState(t, q, blocker, StateDone)
	waitState(t, q, replacement, StateDone)
	if s, _ := q.Get(pending); s.State != StateCancelled {
		t.Errorf("cancelled job state = %s", s.State)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	q := New(Options{})
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("late", nil, func(context.Context, func(Progress)) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCloseCancelsRunning(t *testing.T) {
	q := New(Options{Workers: 1})
	started := make(chan struct{})
	id, _ := q.Submit("hang", nil, func(ctx context.Context, _ func(Progress)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Close(ctx); err != nil {
		t.Fatalf("Close did not drain: %v", err)
	}
	if s, _ := q.Get(id); s.State != StateCancelled {
		t.Errorf("state after Close = %s, want cancelled", s.State)
	}
}

func TestHistoryPruning(t *testing.T) {
	q := newQueue(t, Options{Workers: 2, KeepFinished: 3})
	var ids []string
	for i := 0; i < 8; i++ {
		id, err := q.Submit(fmt.Sprintf("job-%d", i), nil, func(context.Context, func(Progress)) (any, error) {
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		waitState(t, q, id, StateDone)
	}
	if got := len(q.List()); got > 4 { // 3 kept + possibly the one just added
		t.Errorf("retained %d jobs, want <= 4", got)
	}
	// The newest job always survives pruning.
	if _, ok := q.Get(ids[len(ids)-1]); !ok {
		t.Error("newest job was pruned")
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Error("oldest job survived pruning past the cap")
	}
}

func TestGetUnknown(t *testing.T) {
	q := newQueue(t, Options{})
	if _, ok := q.Get("j999"); ok {
		t.Error("Get of unknown id succeeded")
	}
	if _, ok := q.Cancel("j999"); ok {
		t.Error("Cancel of unknown id succeeded")
	}
}

// TestConcurrentSubmitters hammers the queue from many goroutines; run with
// -race this is the package's data-race proof.
func TestConcurrentSubmitters(t *testing.T) {
	q := newQueue(t, Options{Workers: 4, Capacity: 1024})
	var wg sync.WaitGroup
	ids := make([]string, 64)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := q.Submit("n", nil, func(ctx context.Context, report func(Progress)) (any, error) {
				report(Progress{Done: i, Total: len(ids)})
				return i, nil
			})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range ids {
		if id == "" {
			continue
		}
		if seen[id] {
			t.Fatalf("duplicate job id %s", id)
		}
		seen[id] = true
		waitState(t, q, id, StateDone)
	}
}

// TestChurnStress hammers the queue from many goroutines — submit, cancel,
// poll — under -race, then proves the two invariants churn most easily
// breaks: (1) finished-history pruning never evicts a live (non-terminal)
// job, and (2) every capacity slot is restored afterwards, including slots
// freed by cancelling queued jobs.
func TestChurnStress(t *testing.T) {
	const (
		workers    = 3
		capacity   = 8
		keep       = 4 // tiny retention so pruning runs constantly
		goroutines = 8
		perG       = 40
	)
	q := newQueue(t, Options{Workers: workers, Capacity: capacity, KeepFinished: keep})

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// completed closes when the job function returns; together
				// with Cancel's returned snapshot it lets the poller decide
				// whether a pruned id was legitimately terminal (fast jobs
				// are routinely pruned before their submitter polls — only
				// a job that was still live when it vanished is a bug).
				completed := make(chan struct{})
				id, err := q.Submit(fmt.Sprintf("churn-%d-%d", g, i), nil,
					func(ctx context.Context, report func(Progress)) (any, error) {
						defer close(completed)
						report(Progress{Done: 1, Total: 1})
						select {
						case <-ctx.Done():
							return nil, ctx.Err()
						default:
							return i, nil
						}
					})
				if errors.Is(err, ErrQueueFull) {
					continue // backpressure is expected under churn
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				// Every third job gets an immediate cancel — exercising the
				// queued-cancel slot release and the running-cancel signal.
				cancelledWhileQueued := false
				if i%3 == 0 {
					if snap, ok := q.Cancel(id); ok && snap.State.Terminal() {
						cancelledWhileQueued = true // fn will never run
					}
				}
				deadline := time.Now().Add(30 * time.Second)
				for {
					s, ok := q.Get(id)
					if !ok {
						// Vanished: only legal if it had reached a terminal
						// state first — its function returned, or the cancel
						// landed while it was still queued.
						if !cancelledWhileQueued {
							select {
							case <-completed:
							default:
								t.Errorf("job %s pruned while still live", id)
								return
							}
						}
						break
					}
					if s.State.Terminal() {
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("job %s stuck in %s", id, s.State)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(g)
	}
	wg.Wait()

	// Drain: every submitted job settles terminal, so pending must be empty
	// and all capacity slots free again. Prove it by refilling the queue to
	// exactly its rated shape: `workers` running + `capacity` pending accept,
	// the next submission is backpressure.
	release := make(chan struct{})
	blocker := func(ctx context.Context, report func(Progress)) (any, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var blockers []string
	deadline := time.Now().Add(30 * time.Second)
	for len(blockers) < workers+capacity {
		id, err := q.Submit("refill", nil, blocker)
		if errors.Is(err, ErrQueueFull) {
			// Workers may not have picked up earlier blockers yet; give the
			// scheduler a beat rather than failing spuriously.
			if time.Now().After(deadline) {
				t.Fatalf("capacity leak: only %d of %d blockers accepted", len(blockers), workers+capacity)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		blockers = append(blockers, id)
	}
	// With workers busy and the pending queue full, one more must bounce.
	if _, err := q.Submit("overflow", nil, blocker); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	// Cancelling the queued blockers frees their slots immediately...
	for _, id := range blockers[workers:] {
		q.Cancel(id)
	}
	for i := 0; i < capacity; i++ {
		if _, err := q.Submit("reclaimed", nil, blocker); err != nil {
			t.Fatalf("slot %d not reclaimed after cancel: %v", i, err)
		}
	}
	// ...and releasing the running ones lets Close drain cleanly (the
	// newQueue cleanup asserts that).
	close(release)
}
