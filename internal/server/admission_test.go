package server

import (
	"context"
	"sync"
	"testing"
	"time"
)

// admitAsync parks a goroutine in admit and reports the outcome on a channel.
type admitOutcome struct {
	release func()
	ok      bool
	retry   int
}

func admitAsync(a *admitter, ctx context.Context, class admitClass) <-chan admitOutcome {
	ch := make(chan admitOutcome, 1)
	go func() {
		release, ok, _, retry := a.admit(ctx, class)
		ch <- admitOutcome{release, ok, retry}
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

	r1, ok, waited, _ := a.admit(context.Background(), classCompute)
	if !ok || waited != 0 {
		t.Fatalf("first admit: ok=%v waited=%s", ok, waited)
	}
	r2, ok, _, _ := a.admit(context.Background(), classCompute)
	if !ok {
		t.Fatal("second admit blocked below maxInFlight")
	}

	// Slots full, queue size 0: immediate shed with a positive Retry-After.
	// The deadline turns an admitter that queues instead into a failure.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, ok, _, retry := a.admit(ctx, classCheap)
	if ok {
		t.Fatal("admit succeeded past maxInFlight with no queue")
	}
	if retry == 0 {
		t.Fatal("no shed: admit waited for a slot until its deadline with no queue")
	}
	if retry < 1 || retry > 60 {
		t.Fatalf("Retry-After %d outside [1,60]", retry)
	}

	st := a.stats()
	if st.InFlight != 2 || st.Admitted != 2 || st.Shed != 1 || st.ShedCheap != 1 {
		t.Fatalf("stats after shed: %+v", st)
	}

	r1()
	r2()
	if st := a.stats(); st.InFlight != 0 {
		t.Fatalf("in-flight %d after releases", st.InFlight)
	}
	// A freed slot admits again.
	if _, ok, _, _ := a.admit(context.Background(), classCompute); !ok {
		t.Fatal("admit failed after release")
	}
}

func TestAdmitQueueFIFO(t *testing.T) {
	a := newAdmitter(1, 4)
	hold, ok, _, _ := a.admit(context.Background(), classCompute)
	if !ok {
		t.Fatal("holder not admitted")
	}

	first := admitAsync(a, context.Background(), classCompute)
	waitQueued(t, a, 1)
	second := admitAsync(a, context.Background(), classCompute)
	waitQueued(t, a, 2)

	hold()
	got := <-first
	if !got.ok {
		t.Fatal("first waiter not admitted after release")
	}
	select {
	case <-second:
		t.Fatal("second waiter admitted before the first released")
	case <-time.After(50 * time.Millisecond):
	}
	got.release()
	if got2 := <-second; !got2.ok {
		t.Fatal("second waiter not admitted")
	} else {
		got2.release()
	}
}

// TestAdmitCheapPriority: with a compute request queued ahead in wall-clock
// time, a later cheap request still gets the next free slot.
func TestAdmitCheapPriority(t *testing.T) {
	a := newAdmitter(1, 4)
	hold, ok, _, _ := a.admit(context.Background(), classCompute)
	if !ok {
		t.Fatal("holder not admitted")
	}

	compute := admitAsync(a, context.Background(), classCompute)
	waitQueued(t, a, 1)
	cheap := admitAsync(a, context.Background(), classCheap)
	waitQueued(t, a, 2)

	hold()
	got := <-cheap
	if !got.ok {
		t.Fatal("cheap waiter not admitted first")
	}
	select {
	case <-compute:
		t.Fatal("compute waiter admitted while the cheap one held the only slot")
	case <-time.After(50 * time.Millisecond):
	}
	got.release()
	if got2 := <-compute; !got2.ok {
		t.Fatal("compute waiter starved after cheap release")
	} else {
		got2.release()
	}

	st := a.stats()
	if st.AdmittedCheap != 1 || st.Admitted != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestAdmitCtxCancelWhileQueued: a cancelled waiter unlinks cleanly and a
// later release grants the remaining waiter, not the dead one.
func TestAdmitCtxCancelWhileQueued(t *testing.T) {
	a := newAdmitter(1, 4)
	hold, _, _, _ := a.admit(context.Background(), classCompute)

	ctx, cancel := context.WithCancel(context.Background())
	dead := admitAsync(a, ctx, classCompute)
	waitQueued(t, a, 1)
	live := admitAsync(a, context.Background(), classCompute)
	waitQueued(t, a, 2)

	cancel()
	got := <-dead
	if got.ok {
		t.Fatal("cancelled waiter reported admitted")
	}
	if got.retry != 0 {
		t.Fatalf("cancelled waiter got Retry-After %d, want 0 (not a shed)", got.retry)
	}
	waitQueued(t, a, 1)

	hold()
	if got2 := <-live; !got2.ok {
		t.Fatal("surviving waiter not admitted after release")
	} else {
		got2.release()
	}
	st := a.stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("leaked state: %+v", st)
	}
}

// TestAdmitStress: many concurrent admits against a tiny controller — run
// under -race this is the lock-discipline check; the invariant is that every
// admitted request releases and the final state is empty.
func TestAdmitStress(t *testing.T) {
	a := newAdmitter(4, 8)
	var wg sync.WaitGroup
	var admitted, shed int64
	var mu sync.Mutex
	for i := 0; i < 200; i++ {
		wg.Add(1)
		class := classCompute
		if i%3 == 0 {
			class = classCheap
		}
		go func(class admitClass) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			release, ok, _, _ := a.admit(ctx, class)
			mu.Lock()
			if ok {
				admitted++
			} else {
				shed++
			}
			mu.Unlock()
			if ok {
				time.Sleep(time.Millisecond)
				release()
			}
		}(class)
	}
	wg.Wait()
	st := a.stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("leaked state after stress: %+v", st)
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if admitted+shed != 200 {
		t.Fatalf("lost outcomes: %d admitted + %d rejected != 200", admitted, shed)
	}
	// st.Shed may undercount the local rejections (ctx expiry while queued is
	// a rejection but not a shed), never overcount.
	if st.Admitted != admitted || st.Shed > shed {
		t.Fatalf("ledger mismatch: saw %d admitted %d rejected, stats %+v", admitted, shed, st)
	}
}
