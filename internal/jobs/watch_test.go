package jobs

import (
	"context"
	"testing"
	"time"
)

// recvSnap pulls one snapshot with a deadline so a broken Watch fails the
// test instead of hanging it.
func recvSnap(t *testing.T, ch <-chan Snapshot) (Snapshot, bool) {
	t.Helper()
	select {
	case s, ok := <-ch:
		return s, ok
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a watch snapshot")
		return Snapshot{}, false
	}
}

func TestWatchLifecycle(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close(context.Background())

	release := make(chan struct{})
	id, err := q.Submit("watched", func(ctx context.Context, report func(Progress)) (any, error) {
		report(Progress{Done: 1, Total: 2, Note: "halfway"})
		<-release
		report(Progress{Done: 2, Total: 2})
		return "result", nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ch, stop, ok := q.Watch(id)
	if !ok {
		t.Fatalf("Watch(%q) unknown", id)
	}
	defer stop()

	// First snapshot arrives immediately with the current state.
	first, ok := recvSnap(t, ch)
	if !ok {
		t.Fatal("channel closed before any snapshot")
	}
	if first.State.Terminal() {
		t.Fatalf("first snapshot already terminal: %+v", first)
	}

	// Drain until the run blocks on release; the latest snapshot must show
	// the reported progress (delivery coalesces, so poll until it appears).
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, _ := q.Get(id)
		if snap.Progress.Note == "halfway" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("progress never reported: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	// The stream must end with a terminal snapshot followed by channel close.
	var last Snapshot
	for {
		snap, ok := recvSnap(t, ch)
		if !ok {
			break
		}
		last = snap
	}
	if last.State != StateDone {
		t.Fatalf("final snapshot state = %q, want done: %+v", last.State, last)
	}
	if last.Result != "result" {
		t.Fatalf("final snapshot result = %v", last.Result)
	}
}

func TestWatchTerminalJobClosesImmediately(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close(context.Background())
	id, _ := q.Submit("instant", func(context.Context, func(Progress)) (any, error) { return 7, nil })
	waitState(t, q, id, StateDone)

	ch, stop, ok := q.Watch(id)
	if !ok {
		t.Fatal("Watch unknown")
	}
	defer stop()
	snap, ok := recvSnap(t, ch)
	if !ok || snap.State != StateDone {
		t.Fatalf("want immediate done snapshot, got ok=%v %+v", ok, snap)
	}
	if _, ok := recvSnap(t, ch); ok {
		t.Fatal("channel not closed after terminal snapshot")
	}
}

func TestWatchCancelledJobTerminates(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close(context.Background())
	started := make(chan struct{})
	id, _ := q.Submit("cancel-me", func(ctx context.Context, _ func(Progress)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	ch, stop, ok := q.Watch(id)
	if !ok {
		t.Fatal("Watch unknown")
	}
	defer stop()
	<-started
	q.Cancel(id)

	var last Snapshot
	for {
		snap, ok := recvSnap(t, ch)
		if !ok {
			break
		}
		last = snap
	}
	if last.State != StateCancelled {
		t.Fatalf("final state = %q, want cancelled", last.State)
	}
}

func TestWatchDetachIsIdempotent(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close(context.Background())
	release := make(chan struct{})
	id, _ := q.Submit("detach", func(ctx context.Context, _ func(Progress)) (any, error) {
		<-release
		return nil, nil
	})
	ch, stop, ok := q.Watch(id)
	if !ok {
		t.Fatal("Watch unknown")
	}
	recvSnap(t, ch) // initial snapshot
	stop()
	stop() // second call must be a no-op, not a double close
	// The buffer may still hold the one snapshot published before stop (the
	// job starting, when Watch saw it queued); after that, ch reads closed.
	_, ok = recvSnap(t, ch)
	if ok {
		_, ok = recvSnap(t, ch)
	}
	if ok {
		t.Fatal("channel still open after detach")
	}
	close(release)
	waitState(t, q, id, StateDone)
}

func TestWatchUnknownJob(t *testing.T) {
	q := New(Options{})
	defer q.Close(context.Background())
	if _, _, ok := q.Watch("nope"); ok {
		t.Fatal("Watch of unknown id reported ok")
	}
}

func TestStatsLifecycleCounters(t *testing.T) {
	q := New(Options{Workers: 1, Capacity: 8})
	defer q.Close(context.Background())

	if st := q.Stats(); st != (Stats{}) {
		t.Fatalf("fresh queue stats = %+v, want zero", st)
	}

	okID, _ := q.Submit("ok", func(context.Context, func(Progress)) (any, error) { return nil, nil })
	failID, _ := q.Submit("fail", func(context.Context, func(Progress)) (any, error) {
		return nil, context.DeadlineExceeded
	})
	waitState(t, q, okID, StateDone)
	waitState(t, q, failID, StateFailed)

	// A queued job cancelled before running counts as cancelled.
	block := make(chan struct{})
	q.Submit("blocker", func(ctx context.Context, _ func(Progress)) (any, error) {
		<-block
		return nil, nil
	})
	queuedID, _ := q.Submit("queued-cancel", func(context.Context, func(Progress)) (any, error) { return nil, nil })
	q.Cancel(queuedID)
	close(block)

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := q.Stats()
		if st.Submitted == 4 && st.Done == 2 && st.Failed == 1 && st.Cancelled == 1 &&
			st.Running == 0 && st.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}
