// Worker health: per-worker circuit state fed by request outcomes, an
// active /healthz prober, and the snapshot the coordinator's own /healthz
// embeds so operators can see the pool at a glance.
package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// requestOutcome classifies one finished worker request for the circuit.
type requestOutcome int

const (
	outcomeSuccess requestOutcome = iota
	outcomeFailure
	// outcomeNeutral: the caller's context died mid-request; says nothing
	// about the worker, so it must not move the circuit either way.
	outcomeNeutral
)

// workerState is one worker's URL plus its mutable health bookkeeping.
type workerState struct {
	url  string
	seed bool // from Options.Workers: parked dormant on expiry, not dropped

	mu        sync.Mutex
	inflight  int
	fails     int       // consecutive failures
	openUntil time.Time // circuit open while now < openUntil
	requests  int64
	failures  int64
	lastSeen  time.Time // last join/heartbeat, successful probe, or success
}

// touch refreshes the liveness timestamp that expireSilent reads.
func (w *workerState) touch(now time.Time) {
	w.mu.Lock()
	w.lastSeen = now
	w.mu.Unlock()
}

func (w *workerState) seen() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeen
}

// admit consumes the circuit's permission for one request. A closed
// circuit always admits; an open circuit admits nothing until its cooldown
// expires, and then hands out exactly one half-open trial per cooldown
// window — the window is re-armed as the trial is granted, so concurrent
// shards cannot all pile onto a possibly-still-dead worker at once. The
// trial's success clears the circuit entirely; its failure leaves the
// re-armed window standing (and endRequest extends it again).
func (w *workerState) admit(now time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.openUntil.IsZero() {
		return true
	}
	if now.Before(w.openUntil) {
		return false
	}
	w.openUntil = now.Add(cooldown)
	return true
}

// chargeSlow records a straggler loss — the primary sat silent long enough
// for a hedge to be launched AND win — as a circuit failure without
// touching the in-flight count (the losing request's own completion keeps
// that bookkeeping right, as a neutral outcome).
func (w *workerState) chargeSlow(now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failures++
	w.fails++
	if w.fails >= failureThreshold {
		w.openUntil = now.Add(cooldown)
	}
}

func (w *workerState) beginRequest() {
	w.mu.Lock()
	w.inflight++
	w.requests++
	w.mu.Unlock()
}

func (w *workerState) endRequest(o requestOutcome, now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inflight--
	switch o {
	case outcomeSuccess:
		w.fails = 0
		w.openUntil = time.Time{}
		w.lastSeen = now
	case outcomeFailure:
		w.failures++
		w.fails++
		if w.fails >= failureThreshold {
			w.openUntil = now.Add(cooldown)
		}
	}
}

// WorkerHealth is one worker's observable state, embedded in the
// coordinator's /healthz response.
type WorkerHealth struct {
	URL string `json:"url"`
	// CircuitOpen: the worker is currently being skipped.
	CircuitOpen bool `json:"circuit_open"`
	// ConsecutiveFails is the current failure streak (resets on success).
	ConsecutiveFails int   `json:"consecutive_fails"`
	InFlight         int   `json:"in_flight"`
	Requests         int64 `json:"requests"`
	Failures         int64 `json:"failures"`
	// Seed: the member came from the -workers seed list.
	Seed bool `json:"seed,omitempty"`
	// Dormant: an expired seed, out of placement but still probed so it
	// rejoins automatically if it comes back.
	Dormant bool `json:"dormant,omitempty"`
	// LastSeenAgeS is the age in seconds of the member's last sign of life
	// (join/heartbeat, successful probe, or successful request).
	LastSeenAgeS float64 `json:"last_seen_age_s"`
}

// Health snapshots every member — active first, then dormant seeds — each
// group sorted by URL so the listing is stable across calls.
func (d *Dispatcher) Health() []WorkerHealth {
	now := d.now()
	active, dormant := d.snapshotMembers()
	sortByURL(active)
	sortByURL(dormant)
	out := make([]WorkerHealth, 0, len(active)+len(dormant))
	for _, w := range active {
		out = append(out, snapshotHealth(w, now, false))
	}
	for _, w := range dormant {
		out = append(out, snapshotHealth(w, now, true))
	}
	return out
}

func sortByURL(ws []*workerState) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].url < ws[j].url })
}

func snapshotHealth(w *workerState, now time.Time, dormant bool) WorkerHealth {
	w.mu.Lock()
	defer w.mu.Unlock()
	age := 0.0
	if !w.lastSeen.IsZero() {
		age = now.Sub(w.lastSeen).Seconds()
	}
	return WorkerHealth{
		URL:              w.url,
		CircuitOpen:      !w.openUntil.IsZero() && now.Before(w.openUntil),
		ConsecutiveFails: w.fails,
		InFlight:         w.inflight,
		Requests:         w.requests,
		Failures:         w.failures,
		Seed:             w.seed,
		Dormant:          dormant,
		LastSeenAgeS:     age,
	}
}

// Probe GETs every member's /healthz concurrently — dormant seeds included
// — and feeds the outcomes into the circuit state: a live worker's circuit
// closes immediately (instead of waiting out the cooldown), a dead one
// accrues a failure. A dormant seed that answers is reactivated into the
// pool, and once the outcomes have landed, members silent past MemberTTL
// are expired out of placement. The coordinator runs this periodically; tests
// call it directly.
func (d *Dispatcher) Probe(ctx context.Context) {
	active, dormant := d.snapshotMembers()
	var wg sync.WaitGroup
	for _, w := range active {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			d.probeMember(ctx, w, false)
		}(w)
	}
	for _, w := range dormant {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			d.probeMember(ctx, w, true)
		}(w)
	}
	wg.Wait()
	d.expireSilent(d.now())
}

func (d *Dispatcher) probeMember(ctx context.Context, w *workerState, dormant bool) {
	err := d.probeOne(ctx, w)
	switch {
	case err == nil:
		w.endRequest(outcomeSuccess, d.now())
		if dormant {
			// A seed that answered its healthz is back: Join reactivates it
			// (no-op if a heartbeat already raced us to it).
			d.Join(w.url)
		}
	case ctx.Err() != nil:
		w.endRequest(outcomeNeutral, d.now())
	default:
		w.endRequest(outcomeFailure, d.now())
	}
}

func (d *Dispatcher) probeOne(ctx context.Context, w *workerState) error {
	w.beginRequest()
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: worker %s healthz: HTTP %d", w.url, resp.StatusCode)
	}
	return nil
}
