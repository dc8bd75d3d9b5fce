package server

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// admitWaiter is one compute parked in the accept queue.
type admitWaiter struct {
	ch      chan struct{}
	granted bool
}

// admitter is the server's admission controller: a bounded in-flight
// semaphore over computes plus a bounded FIFO accept queue. Only a request
// that runs a sweep reaches it — respond admits inside the cache's compute
// closure, so hits and coalesced waiters never take a slot. A compute that
// finds a free slot proceeds; otherwise it waits in the queue; when the
// queue itself is full it is shed with a Retry-After derived from the EWMA
// service time, so the client learns roughly when a queue slot will have
// drained.
//
// The whole structure is one mutex; every operation is O(1) bookkeeping
// except unlinking a cancelled waiter, which scans the bounded queue.
type admitter struct {
	mu          sync.Mutex
	maxInFlight int
	maxQueue    int
	inFlight    int
	queue       []*admitWaiter
	admitted    int64
	shed        int64
	ewmaNs      float64 // EWMA of service time (slot grant→release)
}

func newAdmitter(maxInFlight, maxQueue int) *admitter {
	return &admitter{maxInFlight: maxInFlight, maxQueue: maxQueue}
}

// shedError is the error of a compute the admitter shed: the Retry-After
// estimate and the controller's state at the shed, which respond answers as
// the enveloped 429. The cache never stores an error, so every waiter
// coalesced on the key gets the 429 and the key stays computable.
type shedError struct {
	retryAfterS                     int
	inFlight, queued, queueCapacity int
}

func (e *shedError) Error() string {
	return fmt.Sprintf("server overloaded: %d computes in flight and the accept queue is full", e.inFlight)
}

// admit blocks until the compute may proceed, the queue sheds it, or ctx is
// cancelled. On success release MUST be called when the compute finishes,
// and waited is the time spent queued. Otherwise err is a *shedError, or
// ctx's error when ctx died while queued.
func (a *admitter) admit(ctx context.Context) (release func(), waited time.Duration, err error) {
	start := time.Now()
	a.mu.Lock()
	if a.inFlight < a.maxInFlight {
		a.inFlight++
		a.admitted++
		a.mu.Unlock()
		return a.releaseFunc(start), 0, nil
	}
	if len(a.queue) >= a.maxQueue {
		a.shed++
		e := &shedError{a.retryAfterLocked(), a.inFlight, len(a.queue), a.maxQueue}
		a.mu.Unlock()
		return nil, 0, e
	}
	w := &admitWaiter{ch: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.mu.Unlock()

	select {
	case <-w.ch:
		// Service time runs from the grant, not the arrival: the EWMA is
		// how long a compute holds a slot, and Retry-After multiplies it by
		// the queue ahead, so counting the wait here too would overstate
		// the drain time by a factor of 1 + queue/slots.
		granted := time.Now()
		a.mu.Lock()
		a.admitted++
		a.mu.Unlock()
		return a.releaseFunc(granted), granted.Sub(start), nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// Lost the race: the grant landed while ctx fired. The slot is
			// ours, so hand it straight to the next waiter.
			a.inFlight--
			a.grantLocked()
		} else {
			for i, cand := range a.queue {
				if cand == w {
					a.queue = append(a.queue[:i:i], a.queue[i+1:]...)
					break
				}
			}
		}
		a.mu.Unlock()
		return nil, 0, ctx.Err()
	}
}

// releaseFunc returns the closure that frees the slot, feeding the service
// time into the Retry-After EWMA and waking the next waiter.
func (a *admitter) releaseFunc(admittedAt time.Time) func() {
	return func() {
		service := float64(time.Since(admittedAt))
		a.mu.Lock()
		const alpha = 0.2
		if a.ewmaNs == 0 {
			a.ewmaNs = service
		} else {
			a.ewmaNs += alpha * (service - a.ewmaNs)
		}
		a.inFlight--
		a.grantLocked()
		a.mu.Unlock()
	}
}

// grantLocked hands a free slot to the head of the queue. Caller holds a.mu.
func (a *admitter) grantLocked() {
	if a.inFlight >= a.maxInFlight || len(a.queue) == 0 {
		return
	}
	w := a.queue[0]
	a.queue = a.queue[1:]
	a.inFlight++
	w.granted = true
	close(w.ch)
}

// retryAfterLocked estimates, in whole seconds, when a shed client should
// retry: the time for the current queue (plus this request) to drain through
// maxInFlight slots at the EWMA service time, clamped to [1, 60]. Caller
// holds a.mu.
func (a *admitter) retryAfterLocked() int {
	est := a.ewmaNs * float64(len(a.queue)+1) / float64(a.maxInFlight)
	sec := int(math.Ceil(est / float64(time.Second)))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// AdmissionStats is the admission controller's /healthz view. Admitted and
// Shed count computes: cache hits and coalesced waiters never reach the
// controller.
type AdmissionStats struct {
	InFlight      int   `json:"in_flight"`
	MaxInFlight   int   `json:"max_in_flight"`
	Queued        int   `json:"queued"`
	QueueCapacity int   `json:"queue_capacity"`
	Admitted      int64 `json:"admitted"`
	Shed          int64 `json:"shed"`
}

func (a *admitter) stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		InFlight:      a.inFlight,
		MaxInFlight:   a.maxInFlight,
		Queued:        len(a.queue),
		QueueCapacity: a.maxQueue,
		Admitted:      a.admitted,
		Shed:          a.shed,
	}
}
