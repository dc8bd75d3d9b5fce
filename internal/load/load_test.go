package load

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCountsRequests(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write([]byte(`[]`))
	}))
	defer ts.Close()

	rep, err := Run(context.Background(), ts.URL, Options{VUs: 4, Duration: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 {
		t.Fatal("no requests completed")
	}
	// The deadline only stops new requests: the ones in flight finish and
	// are counted, so the client's attempts match the server's count exactly.
	if got := served.Load(); got != int64(rep.Attempts) {
		t.Errorf("server saw %d requests, report claims %d attempts", got, rep.Attempts)
	}
	if rep.Errors != 0 || rep.NonOK != 0 {
		t.Errorf("errors = %d, nonOK = %d, want 0", rep.Errors, rep.NonOK)
	}
	if rep.ScheduledRPS <= 0 {
		t.Errorf("ScheduledRPS = %v", rep.ScheduledRPS)
	}
	if rep.BytesRead < int64(rep.OK)*2 {
		t.Errorf("BytesRead = %d for %d requests", rep.BytesRead, rep.OK)
	}
	if rep.P50Ms <= 0 || rep.P50Ms > rep.P90Ms || rep.P90Ms > rep.P99Ms || rep.P99Ms > rep.MaxMs {
		t.Errorf("percentiles not monotone: p50 %v p90 %v p99 %v max %v",
			rep.P50Ms, rep.P90Ms, rep.P99Ms, rep.MaxMs)
	}
	if rep.Attempts != rep.OK || rep.Scheduled != rep.Attempts || rep.Dropped != 0 {
		t.Errorf("scheduled %d, attempts %d, ok %d, dropped %d; with zero errors the first three must match",
			rep.Scheduled, rep.Attempts, rep.OK, rep.Dropped)
	}
	if rep.Scenario != "closed-loop" || rep.MaxVUs != 4 || len(rep.Stages) != 1 || rep.Stages[0].OK != rep.OK {
		t.Errorf("closed-loop shape: scenario %q, VUs %d, stages %+v", rep.Scenario, rep.MaxVUs, rep.Stages)
	}
	if !rep.ThresholdsOK || len(rep.Thresholds) != 0 {
		t.Errorf("no thresholds given: ok=%v %+v", rep.ThresholdsOK, rep.Thresholds)
	}
}

func TestRunCountsNonOK(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer ts.Close()

	rep, err := Run(context.Background(), ts.URL, Options{VUs: 2, Duration: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NonOK == 0 || rep.OK != 0 || rep.StatusCodes["500"] != rep.NonOK {
		t.Errorf("NonOK = %d, OK = %d, status %v; want every response a 500", rep.NonOK, rep.OK, rep.StatusCodes)
	}
}

func TestRunCountsTransportErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // refuse every connection

	rep, err := Run(context.Background(), ts.URL, Options{VUs: 2, Duration: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors == 0 {
		t.Error("connection refusals were not counted as errors")
	}
	if rep.OK+rep.NonOK != 0 {
		t.Errorf("responses = %d, want 0", rep.OK+rep.NonOK)
	}
	// Errored attempts still count as offered load: a server refusing every
	// connection must not score 0 req/s attempted.
	if rep.Attempts == 0 || rep.Attempts != rep.Errors {
		t.Errorf("Attempts = %d, Errors = %d; every refusal is an attempt", rep.Attempts, rep.Errors)
	}
	if rep.ScheduledRPS <= 0 {
		t.Errorf("ScheduledRPS = %v, want >0 offered load even when everything errors", rep.ScheduledRPS)
	}
}

// TestRunAccountingInvariants drives the closed loop against servers with
// different failure mixes and pins the ledger identities
// Scheduled == Attempts + Dropped and Attempts == OK + NonOK + Errors plus
// the per-mode expectations.
func TestRunAccountingInvariants(t *testing.T) {
	tests := []struct {
		name       string
		handler    http.HandlerFunc
		closed     bool // close the listener before the run
		wantErrors bool
		wantNonOK  bool
	}{
		{
			name:    "all ok",
			handler: func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) },
		},
		{
			name: "all 500",
			handler: func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "boom", http.StatusInternalServerError)
			},
			wantNonOK: true,
		},
		{
			name: "mixed 200 and 503",
			handler: func() http.HandlerFunc {
				var n atomic.Int64
				return func(w http.ResponseWriter, r *http.Request) {
					if n.Add(1)%2 == 0 {
						http.Error(w, "shed", http.StatusServiceUnavailable)
						return
					}
					w.Write([]byte("ok"))
				}
			}(),
			wantNonOK: true,
		},
		{
			name:       "connection refused",
			handler:    func(w http.ResponseWriter, r *http.Request) {},
			closed:     true,
			wantErrors: true,
		},
		{
			name: "connection dropped mid-response",
			handler: func(w http.ResponseWriter, r *http.Request) {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close()
				}
			},
			wantErrors: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ts := httptest.NewServer(tt.handler)
			if tt.closed {
				ts.Close()
			} else {
				defer ts.Close()
			}
			rep, err := Run(context.Background(), ts.URL, Options{VUs: 2, Duration: 80 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Attempts != rep.OK+rep.NonOK+rep.Errors {
				t.Errorf("ledger broken: Attempts %d != OK %d + NonOK %d + Errors %d",
					rep.Attempts, rep.OK, rep.NonOK, rep.Errors)
			}
			if rep.Scheduled != rep.Attempts+rep.Dropped || rep.Dropped != 0 {
				t.Errorf("ledger broken: Scheduled %d, Attempts %d, Dropped %d (a closed loop never drops)",
					rep.Scheduled, rep.Attempts, rep.Dropped)
			}
			if rep.Attempts == 0 {
				t.Error("no attempts recorded at all")
			}
			if rep.ScheduledRPS <= 0 {
				t.Errorf("ScheduledRPS = %v, want >0", rep.ScheduledRPS)
			}
			if tt.wantErrors && rep.Errors == 0 {
				t.Error("expected transport errors, saw none")
			}
			if !tt.wantErrors && rep.Errors != 0 {
				t.Errorf("Errors = %d, want 0", rep.Errors)
			}
			if tt.wantNonOK && rep.NonOK == 0 {
				t.Error("expected non-200 responses, saw none")
			}
		})
	}
}

// TestRunSeparatesNonOKLatencies pins the percentile rule: a server that
// sheds half its traffic with instant 503s must not be able to flatter the
// headline p50/p99, which cover 200-OK responses only. OK responses sleep
// 30ms, so if instant 503s leaked into the OK percentiles, P50 would
// collapse below 30.
func TestRunSeparatesNonOKLatencies(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 0 {
			http.Error(w, "shed", http.StatusServiceUnavailable) // instant
			return
		}
		time.Sleep(30 * time.Millisecond)
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	rep, err := Run(context.Background(), ts.URL, Options{VUs: 4, Duration: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.NonOK == 0 {
		t.Fatalf("need both outcomes: ok=%d non-ok=%d", rep.OK, rep.NonOK)
	}
	if rep.P50Ms < 30 {
		t.Errorf("OK p50 = %.2fms < 30ms: instant 503s leaked into the OK percentiles", rep.P50Ms)
	}
	if rep.StatusCodes["503"] != rep.NonOK {
		t.Errorf("status codes %v: want all %d non-OK responses classified as 503", rep.StatusCodes, rep.NonOK)
	}
}

// TestRunRequestTimeout: a hung server trips the per-request safety timeout
// and the stall is counted as a transport error, not silently dropped.
func TestRunRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release) // LIFO: unblock handlers before ts.Close waits on them

	rep, err := Run(context.Background(), ts.URL, Options{
		VUs:            2,
		Duration:       40 * time.Millisecond,
		RequestTimeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors == 0 || rep.Attempts != rep.Errors {
		t.Errorf("hung requests must surface as errored attempts: attempts %d errors %d",
			rep.Attempts, rep.Errors)
	}
}

// TestRunCancel: a request the caller's cancel aborts mid-flight is still an
// attempt (an errored one), so the closed loop's ledger identities hold
// after a cancel too.
func TestRunCancel(t *testing.T) {
	release := make(chan struct{})
	arrived := make(chan struct{}, 3) // one per VU: each then hangs
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		arrived <- struct{}{}
		<-release
	}))
	defer ts.Close()
	defer close(release)

	// Cancel once every VU's request is in flight at the server.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for i := 0; i < 3; i++ {
			<-arrived
		}
		cancel()
	}()
	rep, err := Run(ctx, ts.URL, Options{VUs: 3, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DurationS > 3 {
		t.Fatalf("cancelled run took %.1fs", rep.DurationS)
	}
	if rep.Attempts != 3 || rep.Errors != 3 || rep.Scheduled != rep.Attempts+rep.Dropped {
		t.Fatalf("after cancel: scheduled %d, attempts %d, errors %d, dropped %d; want the 3 aborted requests counted",
			rep.Scheduled, rep.Attempts, rep.Errors, rep.Dropped)
	}
	if got := served.Load(); got != int64(rep.Attempts) {
		t.Fatalf("server saw %d requests, report claims %d attempts", got, rep.Attempts)
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{Scenario: "closed-loop", MaxVUs: 2, Scheduled: 10, Attempts: 10, OK: 10,
		DurationS: 1, ScheduledRPS: 10, OKRPS: 10, P50Ms: 1, P90Ms: 2, P99Ms: 3, MaxMs: 4, ThresholdsOK: true}
	if s := rep.Summary(); !strings.Contains(s, "closed-loop, 2 VUs") || !strings.Contains(s, "(10 req/s)") ||
		!strings.HasSuffix(s, "thresholds pass") {
		t.Errorf("Summary() = %q", s)
	}
	rep.ThresholdsOK = false
	rep.Thresholds = []ThresholdResult{{Spec: "p99<2ms", Metric: "p99", Value: 3}}
	if s := rep.Summary(); !strings.HasSuffix(s, "thresholds FAIL: p99<2ms (value 3)") {
		t.Errorf("Summary() = %q", s)
	}
	var b strings.Builder
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"scheduled_rps": 10`) || !strings.Contains(b.String(), `"max_vus": 2`) {
		t.Errorf("WriteJSON = %s", b.String())
	}
}

// TestPercentile is the table-driven pin of the nearest-rank quantile math,
// including the degenerate inputs (n=0, n=1) and exact rank boundaries
// (q·n integral) that the old int(q·n) indexing got wrong by one.
func TestPercentile(t *testing.T) {
	ten := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(i + 1)
	}
	tests := []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{"empty", nil, 0.5, 0},
		{"empty p99", []time.Duration{}, 0.99, 0},
		{"single p01", ten[:1], 0.01, 1},
		{"single p50", ten[:1], 0.50, 1},
		{"single p99", ten[:1], 0.99, 1},
		// Exact boundary: q·n = 5 exactly → 5th sample (nearest rank), not 6th.
		{"p50 of 10", ten, 0.50, 5},
		{"p90 of 10", ten, 0.90, 9},
		// Non-integral rank rounds up: 0.99·10 = 9.9 → 10th.
		{"p99 of 10", ten, 0.99, 10},
		{"p25 of 10", ten, 0.25, 3},
		// Exact boundary at scale: 0.99·100 = 99 → 99th sample exactly.
		{"p99 of 100", hundred, 0.99, 99},
		{"p50 of 100", hundred, 0.50, 50},
		{"p01 of 100", hundred, 0.01, 1},
		// Two samples: p50 is the first, anything above is the second.
		{"p50 of 2", ten[:2], 0.50, 1},
		{"p51 of 2", ten[:2], 0.51, 2},
		// Clamped extremes.
		{"q=0", ten, 0, 1},
		{"q=1", ten, 1, 10},
		{"q>1", ten, 1.5, 10},
		{"q<0", ten, -0.5, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Percentile(tt.sorted, tt.q); got != tt.want {
				t.Errorf("Percentile(n=%d, q=%v) = %v, want %v", len(tt.sorted), tt.q, got, tt.want)
			}
		})
	}
}

// TestPercentileMonotone: for any q1 <= q2, p(q1) <= p(q2).
func TestPercentileMonotone(t *testing.T) {
	d := []time.Duration{3, 7, 7, 12, 40, 41, 100}
	qs := []float64{0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 0.99, 1}
	for i := 1; i < len(qs); i++ {
		lo, hi := Percentile(d, qs[i-1]), Percentile(d, qs[i])
		if lo > hi {
			t.Errorf("Percentile(%v) = %v > Percentile(%v) = %v", qs[i-1], lo, qs[i], hi)
		}
	}
}
