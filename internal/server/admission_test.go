package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"
)

// admitAsync parks a goroutine in admit and reports the outcome on a channel.
type admitOutcome struct {
	release func()
	err     error
}

func admitAsync(a *admitter, ctx context.Context) <-chan admitOutcome {
	ch := make(chan admitOutcome, 1)
	go func() {
		release, _, err := a.admit(ctx)
		ch <- admitOutcome{release, err}
	}()
	return ch
}

// waitQueued polls until the admitter reports n queued waiters (the async
// admits are racing us into the queue).
func waitQueued(t *testing.T, a *admitter, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for a.stats().Queued != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters (stats: %+v)", n, a.stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmitImmediateAndShed(t *testing.T) {
	a := newAdmitter(2, 0) // 2 slots, no queue

	r1, waited, err := a.admit(context.Background())
	if err != nil || waited != 0 {
		t.Fatalf("first admit: err=%v waited=%s", err, waited)
	}
	r2, _, err := a.admit(context.Background())
	if err != nil {
		t.Fatalf("second admit refused below maxInFlight: %v", err)
	}

	// Slots full, queue size 0: immediate shed with a positive Retry-After.
	// The deadline turns an admitter that queues instead into a failure.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, _, err = a.admit(ctx)
	var shed *shedError
	if !errors.As(err, &shed) {
		t.Fatalf("admit past maxInFlight with no queue: err=%v, want a shed", err)
	}
	if shed.retryAfterS < 1 || shed.retryAfterS > 60 {
		t.Fatalf("Retry-After %d outside [1,60]", shed.retryAfterS)
	}
	if shed.inFlight != 2 || shed.queued != 0 || shed.queueCapacity != 0 {
		t.Fatalf("shed state = %+v, want 2 in flight and an empty 0-deep queue", shed)
	}

	st := a.stats()
	if st.InFlight != 2 || st.Admitted != 2 || st.Shed != 1 {
		t.Fatalf("stats after shed: %+v", st)
	}

	r1()
	r2()
	if st := a.stats(); st.InFlight != 0 {
		t.Fatalf("in-flight %d after releases", st.InFlight)
	}
	// A freed slot admits again.
	if _, _, err := a.admit(context.Background()); err != nil {
		t.Fatalf("admit failed after release: %v", err)
	}
}

func TestAdmitQueueFIFO(t *testing.T) {
	a := newAdmitter(1, 4)
	hold, _, err := a.admit(context.Background())
	if err != nil {
		t.Fatalf("holder not admitted: %v", err)
	}

	first := admitAsync(a, context.Background())
	waitQueued(t, a, 1)
	second := admitAsync(a, context.Background())
	waitQueued(t, a, 2)

	hold()
	got := <-first
	if got.err != nil {
		t.Fatalf("first waiter not admitted after release: %v", got.err)
	}
	select {
	case <-second:
		t.Fatal("second waiter admitted before the first released")
	case <-time.After(50 * time.Millisecond):
	}
	got.release()
	if got2 := <-second; got2.err != nil {
		t.Fatalf("second waiter not admitted: %v", got2.err)
	} else {
		got2.release()
	}
}

// TestRetryAfterEWMAMeasuresService: the Retry-After estimate scales the
// EWMA of service time, slot grant to release, by the queue ahead. A
// compute that queued behind a slot held for 250 ms and released the
// moment it was granted served for almost nothing, so its release must pull
// the EWMA down (to about 0.8 of the holder's 250 ms), not feed its queue
// wait back in as service.
func TestRetryAfterEWMAMeasuresService(t *testing.T) {
	a := newAdmitter(1, 4)
	ewma := func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.ewmaNs
	}
	hold, _, err := a.admit(context.Background())
	if err != nil {
		t.Fatalf("holder not admitted: %v", err)
	}
	// The queued compute releases on its own goroutine the moment it is
	// granted, so its service time is that goroutine's next few lines.
	queued := make(chan error, 1)
	go func() {
		release, _, err := a.admit(context.Background())
		if err == nil {
			release()
		}
		queued <- err
	}()
	waitQueued(t, a, 1)
	time.Sleep(250 * time.Millisecond)
	hold()
	held := ewma()
	if err := <-queued; err != nil {
		t.Fatalf("queued compute not admitted: %v", err)
	}
	if after := ewma(); after >= 0.9*held {
		t.Errorf("EWMA %.1f ms after the queued compute's instant release, want below 0.9 × the holder's %.1f ms",
			after/1e6, held/1e6)
	}
}

// TestAdmitCtxCancelWhileQueued: a cancelled waiter unlinks cleanly and a
// later release grants the remaining waiter, not the dead one.
func TestAdmitCtxCancelWhileQueued(t *testing.T) {
	a := newAdmitter(1, 4)
	hold, _, _ := a.admit(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	dead := admitAsync(a, ctx)
	waitQueued(t, a, 1)
	live := admitAsync(a, context.Background())
	waitQueued(t, a, 2)

	cancel()
	if got := <-dead; !errors.Is(got.err, context.Canceled) {
		t.Fatalf("cancelled waiter: err=%v, want context.Canceled (not a shed)", got.err)
	}
	waitQueued(t, a, 1)

	hold()
	if got2 := <-live; got2.err != nil {
		t.Fatalf("surviving waiter not admitted after release: %v", got2.err)
	} else {
		got2.release()
	}
	st := a.stats()
	if st.InFlight != 0 || st.Queued != 0 || st.Shed != 0 {
		t.Fatalf("leaked state: %+v", st)
	}
}

// TestAdmitStress: many concurrent admits against a tiny controller — run
// under -race this is the lock-discipline check; the invariant is that every
// admitted compute releases and the final state is empty.
func TestAdmitStress(t *testing.T) {
	a := newAdmitter(4, 8)
	var wg sync.WaitGroup
	var admitted, rejected int64
	var mu sync.Mutex
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			release, _, err := a.admit(ctx)
			mu.Lock()
			if err == nil {
				admitted++
			} else {
				rejected++
			}
			mu.Unlock()
			if err == nil {
				time.Sleep(time.Millisecond)
				release()
			}
		}()
	}
	wg.Wait()
	st := a.stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("leaked state after stress: %+v", st)
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if admitted+rejected != 200 {
		t.Fatalf("lost outcomes: %d admitted + %d rejected != 200", admitted, rejected)
	}
	// st.Shed may undercount the local rejections (ctx expiry while queued is
	// a rejection but not a shed), never overcount.
	if st.Admitted != admitted || st.Shed > rejected {
		t.Fatalf("ledger mismatch: saw %d admitted %d rejected, stats %+v", admitted, rejected, st)
	}
}

// TestCachedHitBypassesAdmission: with every compute slot held and the accept
// queue full — or disabled — a cached key still answers 200 hit and leaves
// the admission counters where they were, while a cold key is shed with the
// enveloped 429 and Retry-After. The shed is not cached: once a slot frees,
// the cold key computes.
func TestCachedHitBypassesAdmission(t *testing.T) {
	for _, tc := range []struct {
		name  string
		queue int // Options.AdmitQueue; a positive depth is filled by parked waiters
	}{{"queue full", 1}, {"queue disabled", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Options{MaxInFlight: 1, AdmitQueue: tc.queue})
			warm := sweepPath(smallGrid)
			if status, body, _ := doReq(t, ts, "GET", warm, ""); status != http.StatusOK {
				t.Fatalf("warm-up: status %d (%s)", status, body)
			}

			hold, _, err := s.admit.admit(context.Background())
			if err != nil {
				t.Fatalf("could not occupy the admission slot: %v", err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var parked []<-chan admitOutcome
			for i := 0; i < tc.queue; i++ {
				parked = append(parked, admitAsync(s.admit, ctx))
				waitQueued(t, s.admit, i+1)
			}
			before := s.admit.stats()

			status, body, hdr := doReq(t, ts, "GET", warm, "")
			if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
				t.Fatalf("cached key under full admission: status %d, X-Cache %q (%s); want 200 hit",
					status, hdr.Get("X-Cache"), body)
			}
			if after := s.admit.stats(); after != before {
				t.Fatalf("a hit moved the admitter: %+v -> %+v", before, after)
			}

			cold := sweepPath("model=4B;method=vocab-1;vocab=32k;micro=24")
			status, body, hdr = doReq(t, ts, "GET", cold, "")
			checkEnvelope(t, status, body, hdr, http.StatusTooManyRequests, ErrShedOverload)
			var env ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatal(err)
			}
			want := map[string]any{"in_flight": 1.0, "queued": float64(max(tc.queue, 0)),
				"queue_capacity": float64(max(tc.queue, 0))}
			if !reflect.DeepEqual(env.Error.Details, want) {
				t.Errorf("shed details = %v, want %v", env.Error.Details, want)
			}
			if st := s.admit.stats(); st.Shed != before.Shed+1 || st.Admitted != before.Admitted {
				t.Errorf("cold shed: admission %+v -> %+v, want one more shed and no admission", before, st)
			}

			cancel()
			for _, ch := range parked {
				if got := <-ch; got.err == nil {
					got.release()
				}
			}
			hold()
			if status, body, hdr := doReq(t, ts, "GET", cold, ""); status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
				t.Fatalf("cold key after the slot freed: status %d, X-Cache %q (%s); want 200 miss",
					status, hdr.Get("X-Cache"), body)
			}
		})
	}
}
