package load

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestURLTemplate(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		i    int
		want string
	}{
		{"http://x/api?micro=16", 7, "http://x/api?micro=16"},
		{"http://x/api?micro={i}", 7, "http://x/api?micro=7"},
		{"http://x/api?micro={64+i%499}", 0, "http://x/api?micro=64"},
		{"http://x/api?micro={64+i%499}", 500, "http://x/api?micro=65"},
		{"http://x/api?micro={64+i%499}&m=4B", 1, "http://x/api?micro=65&m=4B"},
	} {
		fn, err := NewURLTemplate(tc.raw)
		if err != nil {
			t.Fatalf("NewURLTemplate(%q): %v", tc.raw, err)
		}
		if got := fn(tc.i); got != tc.want {
			t.Errorf("template %q at i=%d: %q, want %q", tc.raw, tc.i, got, tc.want)
		}
	}
	for _, bad := range []string{
		"http://x/{i", "http://x/{i}/{i}", "http://x/{j}", "http://x/{64+i%0}", "http://x/{a+i%5}",
	} {
		if _, err := NewURLTemplate(bad); err == nil {
			t.Errorf("NewURLTemplate(%q) accepted", bad)
		}
	}
}

// TestRunOpenLoopInvariants drives a deliberately slow handler with far more
// offered load than one VU can carry and checks the ledger identities the
// whole engine is built on: Scheduled == Attempts + Dropped and
// Attempts == OK + NonOK + Errors, with drops actually happening (open-loop,
// never silent backpressure) and the per-stage rows summing to the totals.
func TestRunOpenLoopInvariants(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		time.Sleep(20 * time.Millisecond)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	sc := &Scenario{Name: "flood", StartRate: 400, Stages: []Stage{
		{Target: 400, Duration: 250 * time.Millisecond},
		{Target: 400, Duration: 250 * time.Millisecond},
	}}
	th, err := ParseThresholds("dropped_rate<1%,p50<10s")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), srv.URL+"/?i={i}", Options{
		Scenario:   sc,
		VUs:        2, // 2 VUs × 50/s each ≪ 400/s offered → guaranteed drops
		Thresholds: th,
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Scheduled != rep.Attempts+rep.Dropped {
		t.Fatalf("Scheduled %d != Attempts %d + Dropped %d", rep.Scheduled, rep.Attempts, rep.Dropped)
	}
	if rep.Attempts != rep.OK+rep.NonOK+rep.Errors {
		t.Fatalf("Attempts %d != OK %d + NonOK %d + Errors %d", rep.Attempts, rep.OK, rep.NonOK, rep.Errors)
	}
	if rep.Dropped == 0 {
		t.Fatal("saturated VU pool recorded zero drops — open-loop semantics lost")
	}
	if rep.Errors != 0 || rep.NonOK != 0 {
		t.Fatalf("unexpected failures: %d errors, %d non-OK", rep.Errors, rep.NonOK)
	}
	if int64(rep.Attempts) != hits.Load() {
		t.Fatalf("client counted %d attempts, server saw %d", rep.Attempts, hits.Load())
	}
	// ~200 arrivals scheduled regardless of how slow the server is.
	if rep.Scheduled < 150 || rep.Scheduled > 250 {
		t.Fatalf("scheduled %d arrivals, want ~200", rep.Scheduled)
	}

	var sch, drop, att, okN int
	for _, st := range rep.Stages {
		sch += st.Scheduled
		drop += st.Dropped
		att += st.Attempts
		okN += st.OK
	}
	if sch != rep.Scheduled || drop != rep.Dropped || att != rep.Attempts || okN != rep.OK {
		t.Fatalf("stage rows (%d,%d,%d,%d) do not sum to totals (%d,%d,%d,%d)",
			sch, drop, att, okN, rep.Scheduled, rep.Dropped, rep.Attempts, rep.OK)
	}

	// Thresholds: the drop gate must fail (most arrivals dropped), the
	// latency gate holds, and the run verdict is the conjunction.
	if rep.ThresholdsOK {
		t.Fatalf("thresholds_ok=true with %d%% drops: %+v", 100*rep.Dropped/rep.Scheduled, rep.Thresholds)
	}
	byMetric := map[string]ThresholdResult{}
	for _, r := range rep.Thresholds {
		byMetric[r.Metric] = r
	}
	if byMetric["dropped_rate"].OK {
		t.Fatalf("dropped_rate gate passed at %g%%", byMetric["dropped_rate"].Value)
	}
	if !byMetric["p50"].OK {
		t.Fatalf("p50<10s gate failed: %+v", byMetric["p50"])
	}
	if rep.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestRunOpenLoopSheddingClassification: 429 responses carrying the uniform
// envelope and Retry-After land in ErrorCodes / RetryAfter429 / status map.
func TestRunOpenLoopSheddingClassification(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 0 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"shed_overload","message":"busy"}}`))
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	sc, err := ParseStages("100:300ms")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), srv.URL, Options{
		Scenario: sc, VUs: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NonOK == 0 {
		t.Fatal("no 429s recorded")
	}
	if rep.StatusCodes["429"] != rep.NonOK {
		t.Fatalf("status map %v does not match %d non-OK", rep.StatusCodes, rep.NonOK)
	}
	if rep.ErrorCodes["shed_overload"] != rep.NonOK {
		t.Fatalf("error codes %v: want %d shed_overload", rep.ErrorCodes, rep.NonOK)
	}
	if rep.RetryAfter429 != rep.NonOK {
		t.Fatalf("retry_after_429 %d, want %d (every 429 carried the header)", rep.RetryAfter429, rep.NonOK)
	}
	// No thresholds given: the verdict is vacuously true.
	if !rep.ThresholdsOK {
		t.Fatal("thresholds_ok=false with no thresholds")
	}
}

// TestRunOpenLoopCancel: cancelling the context stops the schedule early but
// still returns a consistent report.
func TestRunOpenLoopCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	sc, err := ParseStages("50:10s")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	rep, err := Run(ctx, srv.URL, Options{Scenario: sc, VUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el > 3*time.Second {
		t.Fatalf("cancelled run took %s", el)
	}
	if rep.Scheduled != rep.Attempts+rep.Dropped {
		t.Fatalf("Scheduled %d != Attempts %d + Dropped %d after cancel", rep.Scheduled, rep.Attempts, rep.Dropped)
	}
}

func TestRunOpenLoopBadInputs(t *testing.T) {
	if _, err := Run(context.Background(), "http://x", Options{Scenario: &Scenario{Name: "empty"}}); err == nil {
		t.Fatal("scenario without stages accepted")
	}
	sc, _ := ParseStages("10:1s")
	if _, err := Run(context.Background(), "http://x/{oops", Options{Scenario: sc}); err == nil {
		t.Fatal("bad URL template accepted")
	}
}
