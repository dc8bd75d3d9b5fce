package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/experiments"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/tune"
)

// testGrid is a small shardable grid (3 cells) every unit test reuses.
func testGrid(t testing.TB) *sweep.Grid {
	t.Helper()
	g, err := sweep.ParseGrid("model=4B;method=baseline,vocab-1,vocab-2;vocab=32k;micro=8")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// localRecords computes the grid's records in-process — the oracle every
// dispatch result must match exactly.
func localRecords(g *sweep.Grid) []report.Record {
	return sweep.Run(g, sweep.Options{}).Records()
}

// stubWorker serves the /api/v1/shard protocol by evaluating the shard
// locally, with optional hooks for delaying or failing requests.
type stubWorker struct {
	ts *httptest.Server
	// delay blocks each shard response until it returns (nil = no delay).
	// It receives the request so gates can also select on its context —
	// a handler must unblock when the dispatcher abandons the request, or
	// the httptest server's Close would deadlock at cleanup.
	delay func(r *http.Request)
	// failures: while positive, requests answer 500 and decrement.
	failures atomic.Int64
	requests atomic.Int64
}

func newStubWorker(t *testing.T, delay func(r *http.Request)) *stubWorker {
	t.Helper()
	w := &stubWorker{delay: delay}
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w.requests.Add(1)
		if r.URL.Path == "/healthz" {
			rw.Write([]byte(`{"status":"ok"}`))
			return
		}
		if w.failures.Load() > 0 {
			w.failures.Add(-1)
			http.Error(rw, `{"error":"injected failure"}`, http.StatusInternalServerError)
			return
		}
		// Consume the body BEFORE any gate: net/http only watches for
		// client aborts (and cancels r.Context()) once the request body has
		// been read, and a gated handler that never observes cancellation
		// would wedge the server's Close at cleanup. The real shard handler
		// decodes the body first for the same reason.
		var req ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		io.Copy(io.Discard, r.Body)
		if w.delay != nil {
			w.delay(r)
		}
		g, err := req.ToGrid()
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		report.WriteJSON(rw, localRecords(g))
	}))
	t.Cleanup(w.ts.Close)
	return w
}

func TestWireRoundTrip(t *testing.T) {
	g := testGrid(t)
	cells := g.Expand()
	r := sweep.Range{Start: 1, End: 3}
	req := NewShardRequest(g, cells, r)
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back ShardRequest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	sub, err := back.ToGrid()
	if err != nil {
		t.Fatal(err)
	}
	got := sub.Expand()
	if len(got) != 2 {
		t.Fatalf("reconstructed %d cells, want 2", len(got))
	}
	for i, c := range got {
		want := cells[r.Start+i]
		if c.Label != want.Label || c.Config != want.Config || c.Method != want.Method {
			t.Errorf("cell %d = %+v, want %+v", i, c, want)
		}
	}
	// The reconstructed sub-grid's canonical key is self-consistent: two
	// identical shards coalesce in a worker's cache.
	sub2, _ := back.ToGrid()
	if sub.Key() != sub2.Key() {
		t.Error("reconstructed grids disagree on Key()")
	}
}

func TestWireRejects(t *testing.T) {
	zoo4B, _ := costmodel.ConfigByName("4B")
	unknownModel := zoo4B
	unknownModel.Name = "5B"
	deep4B := zoo4B
	deep4B.Layers, deep4B.Devices = 1024, 1024
	wide4B := zoo4B
	wide4B.Hidden *= 2
	one := sweep.Range{Start: 0, End: 1}
	if _, err := (&ShardRequest{Grid: "g", Range: one,
		Cells: []WireCell{{Label: "a", Config: zoo4B, Method: "baseline"}}}).ToGrid(); err != nil {
		t.Fatalf("a zoo cell was refused: %v", err)
	}
	tests := []struct {
		name     string
		req      ShardRequest
		fragment string
	}{
		{"no cells", ShardRequest{Grid: "g"}, "no cells"},
		{"range mismatch", ShardRequest{Grid: "g", Range: sweep.Range{Start: 0, End: 2},
			Cells: []WireCell{{Label: "a", Config: zoo4B, Method: "baseline"}}}, "does not match"},
		{"missing label", ShardRequest{Grid: "g", Range: one,
			Cells: []WireCell{{Config: zoo4B, Method: "baseline"}}}, "no label"},
		{"unknown method", ShardRequest{Grid: "g", Range: one,
			Cells: []WireCell{{Label: "a", Config: zoo4B, Method: "warp"}}}, "unknown method"},
		{"unknown model", ShardRequest{Grid: "g", Range: one,
			Cells: []WireCell{{Label: "a", Config: unknownModel, Method: "baseline"}}}, `unknown model "5B"`},
		{"1,024 layers", ShardRequest{Grid: "g", Range: one,
			Cells: []WireCell{{Label: "a", Config: deep4B, Method: "baseline"}}}, "not model 4B's shape (layers 32,"},
		{"one cell of two off the zoo", ShardRequest{Grid: "g", Range: sweep.Range{Start: 0, End: 2},
			Cells: []WireCell{{Label: "a", Config: zoo4B, Method: "baseline"}, {Label: "b", Config: wide4B, Method: "baseline"}}},
			`cell "b" is not model 4B's shape`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.req.ToGrid(); err == nil || !strings.Contains(err.Error(), tt.fragment) {
				t.Errorf("err = %v, want one mentioning %q", err, tt.fragment)
			}
		})
	}
}

// TestDispatchMatchesLocal proves the merged dispatch result equals the
// local oracle for several worker counts and shard granularities.
func TestDispatchMatchesLocal(t *testing.T) {
	g := testGrid(t)
	want := localRecords(g)
	for _, workers := range []int{1, 2, 3} {
		urls := make([]string, workers)
		for i := range urls {
			urls[i] = newStubWorker(t, nil).ts.URL
		}
		d := New(Options{Workers: urls})
		d.shardsPerWorker = 2
		got, err := d.Records(context.Background(), g, nil)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: merged records differ from local sweep", workers)
		}
	}
}

// shardPrimaries reproduces the dispatcher's placement decision for a
// grid: the preferred worker URL for each shard the dispatcher will cut.
// Tests that stage a "bad primary" use it to aim the fault at a worker
// placement actually proposes first.
func shardPrimaries(d *Dispatcher, g *sweep.Grid) []string {
	cells := g.Expand()
	ranges := sweep.SplitCells(len(cells), d.memberCount()*d.shardsPerWorker)
	out := make([]string, len(ranges))
	for i, r := range ranges {
		out[i] = d.placement(sweep.Subgrid(g, cells, r).Key())[0].url
	}
	return out
}

// holdGate is a stub-worker delay that holds each shard request until want
// requests are held at once or timeout passes, and records the peak.
type holdGate struct {
	want    int
	timeout time.Duration
	met     chan struct{}

	mu         sync.Mutex
	held, peak int
}

func newHoldGate(want int, timeout time.Duration) *holdGate {
	return &holdGate{want: want, timeout: timeout, met: make(chan struct{})}
}

func (g *holdGate) hold(r *http.Request) {
	g.mu.Lock()
	g.held++
	if g.held > g.peak {
		g.peak = g.held
		if g.peak == g.want {
			close(g.met)
		}
	}
	g.mu.Unlock()
	select {
	case <-g.met:
	case <-time.After(g.timeout):
	case <-r.Context().Done():
	}
	g.mu.Lock()
	g.held--
	g.mu.Unlock()
}

// counts returns the requests held now and the peak so far.
func (g *holdGate) counts() (held, peak int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.held, g.peak
}

// sixteenCells is a shardable 16-cell grid.
func sixteenCells(t testing.TB) *sweep.Grid {
	t.Helper()
	g, err := sweep.ParseGrid("model=4B;seq=2048;method=baseline,vocab-1,vocab-2,interlaced;vocab=32k,64k,128k,256k;micro=8")
	if err != nil {
		t.Fatal(err)
	}
	if n := g.NumCells(); n != 16 {
		t.Fatalf("grid has %d cells, want 16", n)
	}
	return g
}

// TestFanOutFollowsMembership: the fan-out bound follows the live pool, not
// the seed list. Sixteen workers joined to a seedless dispatcher put all 16
// one-cell shards of a 16-cell grid on the wire at once: each worker holds
// its shard requests until 16 are held or 2 s pass.
func TestFanOutFollowsMembership(t *testing.T) {
	g := sixteenCells(t)
	gate := newHoldGate(16, 2*time.Second)
	d := New(Options{HedgeAfter: -1})
	for i := 0; i < 16; i++ {
		if _, _, err := d.Join(newStubWorker(t, gate.hold).ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.Records(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, localRecords(g)) {
		t.Error("records differ from local sweep")
	}
	if st := d.Stats(); st.Shards != 16 || st.Remote != 16 {
		t.Errorf("stats = %+v, want 16 one-cell shards answered remotely", st)
	}
	if _, peak := gate.counts(); peak != 16 {
		t.Errorf("at most %d shard requests on the wire for 16 members, want all 16", peak)
	}
}

// TestJoinWakesWaitingShards: four members cut a 16-cell grid into 16
// shards, of which the bound, max(8, 2 × 4), lets 8 on the wire. Four more
// members join while the other 8 wait: the bound becomes 16 and the waiting
// shards go out at once, while the first 8 are still held.
func TestJoinWakesWaitingShards(t *testing.T) {
	g := sixteenCells(t)
	gate := newHoldGate(16, 5*time.Second)
	d := New(Options{HedgeAfter: -1})
	join := func() {
		if _, _, err := d.Join(newStubWorker(t, gate.hold).ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		join()
	}
	done := make(chan error, 1)
	go func() {
		_, err := d.Records(context.Background(), g, nil)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if held, _ := gate.counts(); held == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the first 8 shards never reached the pool")
		}
	}
	if _, peak := gate.counts(); peak != 8 {
		t.Fatalf("%d shard requests on the wire for 4 members, want the bound of 8", peak)
	}
	for i := 0; i < 4; i++ {
		join()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, peak := gate.counts(); peak != 16 {
		t.Errorf("at most %d shard requests on the wire after 4 more members joined, want 16", peak)
	}
}

// TestSingleCellBatchesStayLocal: a search whose every batch is one
// candidate — 4b-full's anneal, budget 48 of 105 — runs each step in
// process, where a round trip would buy nothing: no shard request reaches
// the pool, and the result is an in-process search's JSON byte for byte.
func TestSingleCellBatchesStayLocal(t *testing.T) {
	w1, w2 := newStubWorker(t, nil), newStubWorker(t, nil)
	d := New(Options{Workers: []string{w1.ts.URL, w2.ts.URL}})
	search := func(opt tune.Options) []byte {
		t.Helper()
		spec, ok := experiments.TuneSpec("4b-full")
		if !ok {
			t.Fatal("scenario 4b-full missing from the registry")
		}
		res, err := tune.Search(context.Background(), spec, tune.StrategyAnneal, opt)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	got, want := search(tune.Options{Records: d.Records}), search(tune.Options{})
	if !bytes.Equal(got, want) {
		t.Errorf("anneal over the dispatcher differs from an in-process search:\n got %s\nwant %s", got, want)
	}
	if st, n := d.Stats(), w1.requests.Load()+w2.requests.Load(); st.Shards != 0 || n != 0 {
		t.Errorf("stats = %+v and %d worker requests, want no shard leaving the process", st, n)
	}
}

// TestRetryOnWorkerFailure: a worker that 500s forces the shard onto a
// different worker, the merged result is still correct, and the failure is
// recorded against the bad worker's circuit state. The bad worker is
// whichever one placement ranks first for the first shard, so at least one
// shard is guaranteed to hit it.
func TestRetryOnWorkerFailure(t *testing.T) {
	g := testGrid(t)
	w1 := newStubWorker(t, nil)
	w2 := newStubWorker(t, nil)
	d := New(Options{Workers: []string{w1.ts.URL, w2.ts.URL}, HedgeAfter: -1})
	d.shardsPerWorker = 1
	bad := w1
	if shardPrimaries(d, g)[0] == w2.ts.URL {
		bad = w2
	}
	bad.failures.Store(1000)
	got, err := d.Records(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, localRecords(g)) {
		t.Error("records differ from local sweep after retries")
	}
	st := d.Stats()
	if st.Retries == 0 {
		t.Errorf("stats = %+v, want retries > 0", st)
	}
	var badFails int64
	for _, h := range d.Health() {
		if h.URL == bad.ts.URL {
			badFails = h.Failures
		}
	}
	if badFails == 0 {
		t.Errorf("bad worker's failures not recorded: %+v", d.Health())
	}
}

// TestCircuitBreaker drives the breaker through closed → open → half-open
// → closed with an injected clock, at the package's failure threshold and
// cooldown.
func TestCircuitBreaker(t *testing.T) {
	now := time.Unix(1000, 0)
	w := &workerState{url: "http://w"}

	record := func(o requestOutcome) {
		w.beginRequest()
		w.endRequest(o, now)
	}
	for i := 0; i < failureThreshold-1; i++ {
		record(outcomeFailure)
		if !w.admit(now) {
			t.Fatalf("circuit opened after %d failures, threshold is %d", i+1, failureThreshold)
		}
	}
	record(outcomeFailure)
	if w.admit(now) {
		t.Fatal("circuit still closed at the failure threshold")
	}
	// Neutral outcomes (cancelled callers) must not extend the cooldown or
	// close the circuit.
	record(outcomeNeutral)
	if w.admit(now) {
		t.Fatal("neutral outcome closed the circuit")
	}
	// Cooldown expiry admits exactly ONE half-open trial: the grant re-arms
	// the window, so a concurrent second request is refused instead of
	// piling onto a possibly-still-dead worker.
	now = now.Add(cooldown)
	if !w.admit(now) {
		t.Fatal("circuit not half-open after cooldown")
	}
	if w.admit(now) {
		t.Fatal("half-open circuit admitted a second concurrent trial")
	}
	// The trial's failure re-opens immediately...
	record(outcomeFailure)
	if w.admit(now) {
		t.Fatal("failed half-open trial left the circuit closed")
	}
	// ...and a later trial's success closes it fully, unmetered again.
	now = now.Add(cooldown)
	if !w.admit(now) {
		t.Fatal("no trial admitted after the second cooldown")
	}
	record(outcomeSuccess)
	if !w.admit(now) || !w.admit(now) {
		t.Fatal("success did not fully close the circuit")
	}
	w.mu.Lock()
	fails := w.fails
	w.mu.Unlock()
	if fails != 0 {
		t.Fatalf("success left %d consecutive fails", fails)
	}
}

// TestHedgeStraggler: the primary worker hangs, the hedge timer fires, the
// duplicate lands on the other worker and wins; the slow response is
// cancelled and discarded.
func TestHedgeStraggler(t *testing.T) {
	g := testGrid(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	gate := func(r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}
	w1 := newStubWorker(t, nil)
	w2 := newStubWorker(t, nil)

	d := New(Options{
		Workers:    []string{w1.ts.URL, w2.ts.URL},
		HedgeAfter: 20 * time.Millisecond,
	})
	d.shardsPerWorker = 1
	// The straggler must be a worker placement actually prefers, or no hedge
	// ever fires: stall whichever worker owns the first shard. It may own
	// the second shard too, so the expectation is "every hedge launched was
	// won by the fast sibling", not an exact count.
	primaries := shardPrimaries(d, g)
	slow, fast := w1, w2
	if primaries[0] == w2.ts.URL {
		slow, fast = w2, w1
	}
	slow.delay = gate
	start := time.Now()
	got, err := d.Records(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dispatch took %v; the hedge did not rescue the straggler", elapsed)
	}
	if !reflect.DeepEqual(got, localRecords(g)) {
		t.Error("hedged records differ from local sweep")
	}
	st := d.Stats()
	if st.Hedges == 0 || st.HedgeWins != st.Hedges {
		t.Errorf("stats = %+v, want >=1 hedge with every hedge winning", st)
	}
	if fast.requests.Load() == 0 {
		t.Error("fast worker never saw the hedged request")
	}
	// Losing to a hedge is charged as a circuit failure against the
	// straggler — a SIGSTOPped worker rescued by healthy siblings must
	// still trip its breaker eventually.
	for _, h := range d.Health() {
		if h.URL == slow.ts.URL && h.Failures == 0 {
			t.Errorf("straggler not charged for losing the hedge: %+v", h)
		}
	}
}

// TestLocalFallback: with every worker dead the dispatcher evaluates
// in-process and still returns the exact records.
func TestLocalFallback(t *testing.T) {
	g := testGrid(t)
	dead := newStubWorker(t, nil)
	dead.ts.Close() // connection refused from the start
	d := New(Options{Workers: []string{dead.ts.URL}, HedgeAfter: -1})
	got, err := d.Records(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, localRecords(g)) {
		t.Error("fallback records differ from local sweep")
	}
	if st := d.Stats(); st.Fallbacks == 0 {
		t.Errorf("stats = %+v, want fallbacks > 0", st)
	}
}

// TestDispatchCancellation: cancelling the caller's context aborts the
// dispatch promptly even while a worker hangs, and reports the context
// error rather than a worker error.
func TestDispatchCancellation(t *testing.T) {
	g := testGrid(t)
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	slow := newStubWorker(t, func(r *http.Request) {
		started <- struct{}{}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	d := New(Options{Workers: []string{slow.ts.URL}, HedgeAfter: -1})
	d.shardsPerWorker = 1
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := d.Records(ctx, g, nil)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch did not return after cancellation")
	}
}

// TestProbe: probes against a dead worker open its circuit (at the
// threshold) and against a live one close it immediately.
func TestProbe(t *testing.T) {
	w := newStubWorker(t, nil)
	d := New(Options{Workers: []string{w.ts.URL}})
	// Kill the worker: failureThreshold failed probes must open the circuit.
	w.ts.Close()
	for i := 0; i < failureThreshold; i++ {
		if h := d.Health(); h[0].CircuitOpen {
			t.Fatalf("circuit open after %d failed probes, threshold is %d", i, failureThreshold)
		}
		d.Probe(context.Background())
	}
	if h := d.Health(); !h[0].CircuitOpen {
		t.Fatalf("health after failed probes = %+v, want open circuit", h[0])
	}
	// Revive at the same address: impossible with httptest, so boot a new
	// worker and point a fresh dispatcher's state at it through a probe.
	w2 := newStubWorker(t, nil)
	d2 := New(Options{Workers: []string{w2.ts.URL}})
	ws := d2.members[w2.ts.URL]
	for i := 0; i < failureThreshold; i++ { // force open
		ws.beginRequest()
		ws.endRequest(outcomeFailure, d2.now())
	}
	if h := d2.Health(); !h[0].CircuitOpen {
		t.Fatalf("setup: circuit should be open: %+v", h[0])
	}
	d2.Probe(context.Background())
	if h := d2.Health(); h[0].CircuitOpen {
		t.Fatalf("health after successful probe = %+v, want closed circuit", h[0])
	}
}

func TestNewNormalizesURLs(t *testing.T) {
	// Duplicate spellings of one worker (bare host vs scheme'd, trailing
	// slash) must collapse to a single member — one circuit breaker each.
	d := New(Options{Workers: []string{
		"127.0.0.1:9", "http://127.0.0.1:9/", "http://h:1/", "https://h2",
	}})
	want := []string{"http://127.0.0.1:9", "http://h:1", "https://h2"}
	if got := d.memberCount(); got != len(want) {
		t.Errorf("member count = %d, want %d (dedup failed)", got, len(want))
	}
	for _, u := range want {
		if _, ok := d.members[u]; !ok {
			t.Errorf("member %q missing from pool %v", u, d.members)
		}
	}
}

// TestTuneBatchFallsBackLocally: a tuner search whose candidate batches go
// through Records over a dead pool completes by local fallback, one per
// shard, and ranks exactly as an in-process search does.
func TestTuneBatchFallsBackLocally(t *testing.T) {
	dead := newStubWorker(t, nil)
	dead.ts.Close()
	d := New(Options{Workers: []string{dead.ts.URL}, HedgeAfter: -1})

	spec, err := tune.ParseSpec("model=4B;devices=8;micro=32,64;method=vocab-1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tune.Search(context.Background(), spec, tune.StrategyExhaustive, tune.Options{Records: d.Records})
	if err != nil {
		t.Fatal(err)
	}
	local, err := tune.Search(context.Background(), spec, tune.StrategyExhaustive, tune.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, local) || res.Evaluated != 2 || res.Best == nil {
		t.Fatalf("fallback search result = %+v, local %+v", res, local)
	}
	if st := d.Stats(); st.Fallbacks != 2 || st.Remote != 0 {
		t.Errorf("stats = %+v, want 2 local fallbacks (one per single-cell shard)", st)
	}
}

// foreignAnswer is a worker's 200 answer to testGrid's 3-cell shard whose
// records name none of its cells.
var foreignAnswer = []report.Record{
	{Experiment: "other", Label: "not-this-cell"},
	{Experiment: "other", Label: "nor-this"},
	{Experiment: "other", Label: "x3"},
}

// TestShardAnswerMustNameItsCells: a worker whose answer has the right
// record count but names other cells, another grid or its cells out of
// order is refused like any bad response — the worker is charged, the shard
// falls back, and the merged records are the local ones.
func TestShardAnswerMustNameItsCells(t *testing.T) {
	g := testGrid(t)
	want := localRecords(g)
	otherGrid := append([]report.Record(nil), want...)
	for i := range otherGrid {
		otherGrid[i].Experiment = "other"
	}
	swapped := append([]report.Record(nil), want...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	for _, tt := range []struct {
		name   string
		answer []report.Record
	}{
		{"foreign cells", foreignAnswer},
		{"another grid", otherGrid},
		{"out of order", swapped},
	} {
		t.Run(tt.name, func(t *testing.T) {
			w := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				report.WriteJSON(rw, tt.answer)
			}))
			defer w.Close()
			d := New(Options{Workers: []string{w.URL}, HedgeAfter: -1})
			d.shardsPerWorker = 1
			got, err := d.Records(context.Background(), g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("records %+v, want the local ones", got)
			}
			if st := d.Stats(); st.Remote != 0 || st.Fallbacks != 1 {
				t.Errorf("stats = %+v, want the answer refused and the shard fallen back", st)
			}
			if h := d.Health(); h[0].Failures == 0 {
				t.Errorf("worker health = %+v, want the refused answer charged", h[0])
			}
		})
	}
}

// answerTransport is a worker that answers every request 200 with the same
// bytes, without a socket.
type answerTransport []byte

func (a answerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(a)), Request: r}, nil
}

// FuzzShardResponse feeds arbitrary bytes as a worker's 200 answer to a
// 3-cell shard. Records must neither panic nor hang, and must return three
// records carrying the shard's labels and grid name: the local records
// whenever the answer was refused, the worker's when it was taken.
func FuzzShardResponse(f *testing.F) {
	g := testGrid(f)
	cells := g.Expand()
	local := localRecords(g)
	for _, recs := range [][]report.Record{local, foreignAnswer, local[:2]} {
		var buf bytes.Buffer
		report.WriteJSON(&buf, recs)
		f.Add(buf.Bytes())
	}
	for _, seed := range []string{"", "null", "[]", "[{},{},{}]", `{"error":{"code":"x"}}`, `[{"label":"` + strings.Repeat("x", 5000)} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		d := New(Options{Workers: []string{"http://worker.test"}, HedgeAfter: -1})
		d.shardsPerWorker = 1
		d.client = &http.Client{Transport: answerTransport(body)}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		recs, err := d.Records(ctx, g, nil)
		if err != nil {
			t.Fatalf("Records: %v", err)
		}
		if len(recs) != len(cells) {
			t.Fatalf("%d records for %d cells", len(recs), len(cells))
		}
		for i := range recs {
			if recs[i].Label != cells[i].Label || recs[i].Experiment != g.Name {
				t.Fatalf("record %d names %q of %q, want %q of %q", i, recs[i].Label, recs[i].Experiment, cells[i].Label, g.Name)
			}
		}
		switch st := d.Stats(); {
		case st.Remote == 1 && st.Fallbacks == 0:
		case st.Remote == 0 && st.Fallbacks == 1:
			if !reflect.DeepEqual(recs, local) {
				t.Fatalf("refused answer, but records %+v differ from the local ones", recs)
			}
		default:
			t.Fatalf("stats = %+v, want one shard answered remotely or by fallback", st)
		}
	})
}

// TestAttemptTimeoutUnwedgesStalledPool: a worker that hangs without
// closing its connection (the SIGSTOP / partition shape) must not wedge
// the request — the attempt deadline fails it, the circuit records a real
// failure, and the shard completes via local fallback.
func TestAttemptTimeoutUnwedgesStalledPool(t *testing.T) {
	g := testGrid(t)
	stalled := newStubWorker(t, func(r *http.Request) {
		<-r.Context().Done() // never answers; unblocks only when abandoned
	})
	d := New(Options{Workers: []string{stalled.ts.URL}, HedgeAfter: -1})
	d.shardsPerWorker = 1
	d.attemptTimeout = 50 * time.Millisecond
	start := time.Now()
	got, err := d.Records(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("dispatch took %v; the attempt timeout did not fire", elapsed)
	}
	if !reflect.DeepEqual(got, localRecords(g)) {
		t.Error("fallback records differ from local sweep")
	}
	if st := d.Stats(); st.Fallbacks == 0 {
		t.Errorf("stats = %+v, want fallbacks > 0", st)
	}
	// The stall was charged to the worker, not excused as a cancellation.
	if h := d.Health(); h[0].Failures == 0 {
		t.Errorf("stalled worker health = %+v, want recorded failures", h[0])
	}
}

// TestEndlessShardBodyFallsBack: a member that answers 200 and then streams
// a body with no end — up to 16 MiB of one JSON string, far past any shard
// response, and then silence — must lose its attempt as soon as the
// coordinator has read what a real response could hold, well inside the
// two-minute attempt deadline: the coordinator hangs up within a second, the
// shard falls back to byte-identical local records, and the member is
// charged the failure.
func TestEndlessShardBodyFallsBack(t *testing.T) {
	g := testGrid(t)
	chunk := []byte(strings.Repeat("x", 64<<10))
	hungUp := make(chan time.Duration, 16) // one per shard attempt at most
	endless := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		io.Copy(io.Discard, r.Body) // so net/http cancels r.Context() when the client leaves
		rw.Write([]byte(`[{"label":"`))
		for sent := 0; sent < 16<<20; sent += len(chunk) {
			if _, err := rw.Write(chunk); err != nil {
				select {
				case hungUp <- time.Since(start):
				default:
				}
				return
			}
		}
		<-r.Context().Done()
	}))
	defer endless.Close()
	d := New(Options{Workers: []string{endless.URL}, HedgeAfter: -1})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := d.Records(ctx, g, nil)
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if !reflect.DeepEqual(got, localRecords(g)) {
		t.Error("fallback records differ from local sweep")
	}
	if st := d.Stats(); st.Fallbacks == 0 || st.Remote != 0 {
		t.Errorf("stats = %+v, want fallbacks and no remote answers", st)
	}
	if h := d.Health(); h[0].Failures == 0 {
		t.Errorf("endless worker health = %+v, want recorded failures", h[0])
	}
	select {
	case after := <-hungUp:
		if after > time.Second {
			t.Errorf("the coordinator hung up %v after its shard request, want within a second", after)
		}
	case <-time.After(5 * time.Second):
		t.Error("the coordinator never hung up on the endless body")
	}
}
