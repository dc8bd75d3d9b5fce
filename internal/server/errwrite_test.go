package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
)

// failingWriter errors every Write — a client that vanished, a proxy that
// reset the connection. Headers and status still record so tests can see
// what the handler intended.
type failingWriter struct {
	header http.Header
	status int
}

func (w *failingWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}
func (w *failingWriter) WriteHeader(code int) { w.status = code }
func (w *failingWriter) Write([]byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return 0, errors.New("connection reset by peer")
}

// logRecorder captures Options.Logf output.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (l *logRecorder) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logRecorder) joined() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

func newRecordingServer(t *testing.T) (*Server, *logRecorder) {
	t.Helper()
	rec := &logRecorder{}
	s := New(Options{Logf: rec.logf})
	t.Cleanup(func() { s.Close(context.Background()) })
	return s, rec
}

// TestHealthzWriteFailureLogged is the regression test for the silently
// dropped Encode error: a healthz response that cannot be written must leave
// a log line, not vanish.
func TestHealthzWriteFailureLogged(t *testing.T) {
	s, rec := newRecordingServer(t)
	w := &failingWriter{}
	r := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	s.handleHealthz(w, r)

	if w.status != http.StatusOK {
		t.Errorf("status = %d; encoding succeeded so the failure is write-side", w.status)
	}
	if got := rec.joined(); !strings.Contains(got, "healthz") || !strings.Contains(got, "connection reset") {
		t.Errorf("write failure not logged; log = %q", got)
	}
}

// TestHealthzEncodesBeforeWriting: the body is staged in a buffer, so a
// working writer receives exactly one Write of the complete document —
// no chance of a half-written 200.
func TestHealthzEncodesBeforeWriting(t *testing.T) {
	s, rec := newRecordingServer(t)
	w := httptest.NewRecorder()
	s.handleHealthz(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), `"status": "ok"`) {
		t.Errorf("body = %s", w.Body.String())
	}
	if rec.joined() != "" {
		t.Errorf("healthy path logged: %q", rec.joined())
	}
}

// TestWriteErrorFailureLogged: the JSON error body failing to reach the
// client is logged with the intended status code.
func TestWriteErrorFailureLogged(t *testing.T) {
	s, rec := newRecordingServer(t)
	w := &failingWriter{}
	r := httptest.NewRequest(http.MethodGet, "/api/v1/sweep", nil)
	s.writeError(w, r, http.StatusBadRequest, ErrInvalidParameter, nil, "bad thing: %d", 42)

	if w.status != http.StatusBadRequest {
		t.Errorf("status = %d, want 400 (header write still happens)", w.status)
	}
	if got := rec.joined(); !strings.Contains(got, "400") || !strings.Contains(got, "connection reset") {
		t.Errorf("error-body write failure not logged; log = %q", got)
	}
	// Every Logf line carries request identity — route and trace ID — even
	// when (as here, with no middleware) both are unknown placeholders.
	if got := rec.joined(); !strings.Contains(got, "route=") || !strings.Contains(got, "trace=") {
		t.Errorf("log line missing request identity; log = %q", got)
	}
}

// TestLogfCarriesRouteAndTraceID: a write failure on a request that came
// through the real middleware logs the resolved route label and the same
// trace ID the client got in X-Trace-Id.
func TestLogfCarriesRouteAndTraceID(t *testing.T) {
	s, rec := newRecordingServer(t)
	h := s.Handler()

	// Drive the middleware with a recorder to learn the trace ID, then
	// replay the identical request against a failing writer.
	probe := httptest.NewRecorder()
	h.ServeHTTP(probe, httptest.NewRequest(http.MethodGet, "/api/v1/experiments/nope", nil))
	if probe.Header().Get("X-Trace-Id") == "" {
		t.Fatal("API response missing X-Trace-Id")
	}

	w := &failingWriter{}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/experiments/nope", nil))
	got := rec.joined()
	if !strings.Contains(got, "route=/api/v1/experiments/{name}") {
		t.Errorf("log missing the resolved route label; log = %q", got)
	}
	// The second request's trace ID differs from the probe's, but the log
	// line must carry a real 32-hex ID, not the "-" placeholder.
	if strings.Contains(got, "trace=-") || !strings.Contains(got, "trace=") {
		t.Errorf("log missing a real trace ID; log = %q", got)
	}
}

// TestWriteErrorDefaultLogf: constructing a server without Logf must not
// leave the field nil (the default is log.Printf).
func TestWriteErrorDefaultLogf(t *testing.T) {
	s := New(Options{})
	defer s.Close(context.Background())
	if s.opt.Logf == nil {
		t.Fatal("default Logf is nil")
	}
	// Exercising the path must not panic even with the real logger.
	r := httptest.NewRequest(http.MethodGet, "/api/v1/sweep", nil)
	s.writeError(&failingWriter{}, r, http.StatusInternalServerError, ErrInternal, nil, "x")
}

// TestSweepWriteFailureLogged: a sweep body that cannot be written leaves a
// log line naming the route, both on the miss that encoded it and on the
// hit that wrote the stored bytes.
func TestSweepWriteFailureLogged(t *testing.T) {
	s, rec := newRecordingServer(t)
	h := s.Handler()
	for i, outcome := range []string{"miss", "hit"} {
		w := &failingWriter{}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/sweep?grid="+url.QueryEscape(smallGrid), nil))
		if w.status != http.StatusOK || w.header.Get("X-Cache") != outcome {
			t.Fatalf("request %d: status %d, X-Cache %q, want 200 %s", i, w.status, w.header.Get("X-Cache"), outcome)
		}
		got := rec.joined()
		if n := strings.Count(got, "connection reset"); n != i+1 {
			t.Fatalf("after the %s: %d logged write failures, want %d; log = %q", outcome, n, i+1, got)
		}
		if strings.Count(got, "route=/api/v1/sweep") != i+1 {
			t.Errorf("after the %s: log lines do not name the route; log = %q", outcome, got)
		}
	}
}

// TestJobWriteFailureLogged: the optimize 202 and a job poll that cannot be
// written are logged with their routes.
func TestJobWriteFailureLogged(t *testing.T) {
	s, rec := newRecordingServer(t)
	h := s.Handler()
	w := &failingWriter{}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/optimize?scenario=4b-quick", nil))
	if w.status != http.StatusAccepted {
		t.Fatalf("optimize status = %d, want 202", w.status)
	}
	if got := rec.joined(); !strings.Contains(got, "route=/api/v1/optimize") || !strings.Contains(got, "connection reset") {
		t.Errorf("optimize write failure not logged with its route; log = %q", got)
	}
	snaps := s.jobs.List()
	if len(snaps) != 1 {
		t.Fatalf("%d jobs, want 1", len(snaps))
	}
	w = &failingWriter{}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+snaps[0].ID, nil))
	if w.status != http.StatusOK {
		t.Fatalf("job GET status = %d", w.status)
	}
	if got := rec.joined(); !strings.Contains(got, "route=/api/v1/jobs/{id}") || strings.Count(got, "connection reset") != 2 {
		t.Errorf("job GET write failure not logged with its route; log = %q", got)
	}
}

// TestEncodeFailureIsUncached500: records JSON cannot encode (a NaN metric)
// answer an enveloped 500, and the failure is not cached — the next request
// computes again.
func TestEncodeFailureIsUncached500(t *testing.T) {
	s, _ := newRecordingServer(t)
	nan := func(sweep.Cell) (*sim.Result, error) { return &sim.Result{IterTime: math.NaN()}, nil }
	g := &sweep.Grid{Name: "nan", Cells: []sweep.Cell{{Label: "nan", Eval: nan}}}
	for i := 1; i <= 2; i++ {
		w := httptest.NewRecorder()
		s.respond(w, httptest.NewRequest(http.MethodGet, "/api/v1/sweep", nil), "sweep", cacheKey("sweep", g),
			func() (*sweep.Grid, error) { return g, nil })
		var env ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || w.Code != http.StatusInternalServerError ||
			env.Error.Code != ErrInternal || !strings.Contains(env.Error.Message, "encoding records") {
			t.Fatalf("request %d: status %d, body %s; want an enveloped 500 naming the encode", i, w.Code, w.Body.Bytes())
		}
		if st := s.CacheStats(); st.Misses != int64(i) || st.Entries != 0 {
			t.Fatalf("request %d: cache %+v, want %d misses and nothing stored", i, st, i)
		}
	}
}
