package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"vocabpipe/internal/jobs"
)

// doReq issues one request against ts and returns status, body and headers.
func doReq(t *testing.T, ts *httptest.Server, method, path, body string) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	// Every case answers at once. The deadline turns a request that waits
	// instead, such as one queued past a full admitter, into a failure.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

// checkEnvelope asserts the uniform error contract on a response: the
// expected status, Content-Type application/json, a body that decodes into
// ErrorEnvelope with exactly the expected stable code and a non-empty human
// message — and, on every 429, a positive integer Retry-After header.
func checkEnvelope(t *testing.T, status int, body []byte, hdr http.Header, wantStatus int, wantCode ErrCode) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status = %d, want %d (body %s)", status, wantStatus, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("body is not an error envelope: %v (%s)", err, body)
	}
	if env.Error.Code != wantCode {
		t.Errorf("code = %q, want %q (message %q)", env.Error.Code, wantCode, env.Error.Message)
	}
	if env.Error.Message == "" {
		t.Errorf("empty error message: %s", body)
	}
	// No extra top-level keys: the envelope is {"error":{...}} and nothing else.
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil || len(top) != 1 {
		t.Errorf("envelope has extra top-level keys: %s", body)
	}
	if status == http.StatusTooManyRequests {
		ra := hdr.Get("Retry-After")
		if sec, err := strconv.Atoi(ra); err != nil || sec < 1 {
			t.Errorf("429 Retry-After = %q, want a positive integer", ra)
		}
	}
}

// TestErrorEnvelopeConformance sweeps every endpoint × failure mode and
// asserts each failure speaks the one envelope dialect with its documented
// stable code. Failure modes that need special server shape (shedding, a
// full job queue) build their own server; the rest share one.
func TestErrorEnvelopeConformance(t *testing.T) {
	type tc struct {
		name        string
		opts        *Options // nil: shared default server
		prep        func(t *testing.T, s *Server)
		method      string
		path        string
		body        string
		wantStatus  int
		wantCode    ErrCode
		wantDetails map[string]any // nil: not checked
	}
	oversizeSpec := url.QueryEscape("model=4B,10B;method=baseline,vocab-1,vocab-2;vocab=32k,64k,128k,256k;seq=1024,2048")
	cases := []tc{
		{name: "sweep missing grid", method: "GET", path: "/api/v1/sweep",
			wantStatus: 400, wantCode: ErrMissingParameter},
		{name: "sweep bad grid", method: "GET", path: "/api/v1/sweep?grid=" + url.QueryEscape("model=900B"),
			wantStatus: 400, wantCode: ErrInvalidGrid},
		{name: "sweep oversize cells", opts: &Options{MaxCells: 16}, method: "GET",
			path:       "/api/v1/sweep?grid=" + oversizeSpec,
			wantStatus: 400, wantCode: ErrTooManyCells},
		{name: "schedule missing params", method: "GET", path: "/api/v1/schedule",
			wantStatus: 400, wantCode: ErrMissingParameter},
		{name: "schedule unknown config", method: "GET", path: "/api/v1/schedule?config=900B&method=baseline",
			wantStatus: 400, wantCode: ErrInvalidParameter},
		{name: "schedule bad micro", method: "GET", path: "/api/v1/schedule?config=4B&method=baseline&micro=zero",
			wantStatus: 400, wantCode: ErrInvalidParameter},
		{name: "schedule oversize micro", method: "GET", path: "/api/v1/schedule?config=4B&method=baseline&micro=100000",
			wantStatus: 400, wantCode: ErrTooManyMicro},
		{name: "schedule oversize devices", method: "GET", path: "/api/v1/schedule?config=4B&method=baseline&devices=100000",
			wantStatus: 400, wantCode: ErrTooManyDevices},
		{name: "unknown experiment", method: "GET", path: "/api/v1/experiments/nope",
			wantStatus: 404, wantCode: ErrUnknownExperiment},
		{name: "shard bad body", method: "POST", path: "/api/v1/shard", body: "{not json",
			wantStatus: 400, wantCode: ErrInvalidBody},
		{name: "optimize bad body", method: "POST", path: "/api/v1/optimize", body: "{not json",
			wantStatus: 400, wantCode: ErrInvalidBody},
		{name: "optimize no input", method: "POST", path: "/api/v1/optimize",
			wantStatus: 400, wantCode: ErrMissingParameter},
		{name: "optimize both inputs", method: "POST", path: "/api/v1/optimize?scenario=4b-quick&spec=" + url.QueryEscape("model=4B"),
			wantStatus: 400, wantCode: ErrInvalidParameter},
		{name: "optimize bad spec", method: "POST", path: "/api/v1/optimize?spec=" + url.QueryEscape("model=900B"),
			wantStatus: 400, wantCode: ErrInvalidSpec},
		{name: "optimize unknown strategy", method: "POST", path: "/api/v1/optimize?scenario=4b-quick&strategy=warp",
			wantStatus: 400, wantCode: ErrInvalidParameter},
		{name: "job not found", method: "GET", path: "/api/v1/jobs/j999999",
			wantStatus: 404, wantCode: ErrJobNotFound},
		{name: "job cancel not found", method: "DELETE", path: "/api/v1/jobs/j999999",
			wantStatus: 404, wantCode: ErrJobNotFound},
		{name: "job events not found", method: "GET", path: "/api/v1/jobs/j999999/events",
			wantStatus: 404, wantCode: ErrJobNotFound},
		{name: "unversioned path", method: "POST", path: "/api/optimize?scenario=4b-quick",
			wantStatus: 404, wantCode: ErrUnversionedPath, wantDetails: map[string]any{"path": "/api/v1/optimize"}},
		{
			// Shed: one slot, no queue; occupy the slot so the next compute
			// request must shed deterministically.
			name: "admission shed", opts: &Options{MaxInFlight: 1, AdmitQueue: -1},
			prep: func(t *testing.T, s *Server) {
				release, ok, _, _ := s.admit.admit(context.Background(), classCompute)
				if !ok {
					t.Fatal("could not occupy the admission slot")
				}
				t.Cleanup(release)
			},
			method: "GET", path: sweepPath(smallGrid),
			wantStatus: 429, wantCode: ErrShedOverload,
		},
		{
			// Job-queue overflow: one busy worker, pending capacity 1, both
			// filled before the request lands.
			name: "optimize queue full", opts: &Options{JobWorkers: 1, JobCapacity: 1},
			prep: func(t *testing.T, s *Server) {
				block := make(chan struct{})
				t.Cleanup(func() { close(block) })
				hang := func(ctx context.Context, report func(jobs.Progress)) (any, error) {
					select {
					case <-ctx.Done():
						return nil, ctx.Err()
					case <-block:
						return nil, nil
					}
				}
				if _, err := s.jobs.Submit("blocker", hang); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(2 * time.Second)
				for s.jobs.Stats().Running != 1 {
					if time.Now().After(deadline) {
						t.Fatal("blocker never started running")
					}
					time.Sleep(time.Millisecond)
				}
				if _, err := s.jobs.Submit("filler", hang); err != nil {
					t.Fatal(err)
				}
			},
			method: "POST", path: "/api/v1/optimize?scenario=4b-quick",
			wantStatus: 429, wantCode: ErrQueueFull,
		},
	}

	_, shared := newTestServer(t, Options{})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := shared
			if c.opts != nil {
				var s *Server
				s, ts = newTestServer(t, *c.opts)
				if c.prep != nil {
					c.prep(t, s)
				}
			} else if c.prep != nil {
				t.Fatal("prep requires dedicated opts")
			}
			status, body, hdr := doReq(t, ts, c.method, c.path, c.body)
			checkEnvelope(t, status, body, hdr, c.wantStatus, c.wantCode)
			if c.wantDetails != nil {
				var env ErrorEnvelope
				if err := json.Unmarshal(body, &env); err != nil || !reflect.DeepEqual(env.Error.Details, c.wantDetails) {
					t.Errorf("details = %v, want %v", env.Error.Details, c.wantDetails)
				}
			}
		})
	}
}

// TestJobViewCanonicalEverywhere: the optimize 202 body, the job list entry
// and the poll response all serialize the same canonical jobView for the
// same job once it is terminal.
func TestJobViewCanonicalEverywhere(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submitOptimize(t, ts, "?scenario=4b-quick&strategy=beam", "")
	snap := pollJob(t, ts, id)
	if snap.State != jobs.StateDone {
		t.Fatalf("job state = %s", snap.State)
	}

	_, pollBody, _ := get(t, ts, "/api/v1/jobs/"+id)
	var fromPoll jobView
	if err := json.Unmarshal(pollBody, &fromPoll); err != nil {
		t.Fatalf("poll body is not a jobView: %v", err)
	}
	if fromPoll.Poll != "/api/v1/jobs/"+id || fromPoll.Events != "/api/v1/jobs/"+id+"/events" {
		t.Errorf("poll/events URLs = %q, %q", fromPoll.Poll, fromPoll.Events)
	}

	_, listBody, _ := get(t, ts, "/api/v1/jobs")
	var list []jobView
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatalf("list body is not []jobView: %v", err)
	}
	found := false
	for _, v := range list {
		if v.ID == id {
			found = true
			if v.Poll != fromPoll.Poll || v.Events != fromPoll.Events || v.State != fromPoll.State {
				t.Errorf("list view %+v != poll view %+v", v, fromPoll)
			}
		}
	}
	if !found {
		t.Fatalf("job %s missing from list", id)
	}
}

// TestAdmissionCheapClassification: a request whose key is already cached is
// admitted as cheap — visible in the /healthz admission counters.
func TestAdmissionCheapClassification(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	path := sweepPath(smallGrid)
	if st, body, _ := get(t, ts, path); st != http.StatusOK {
		t.Fatalf("warm-up status %d (%s)", st, body)
	}
	if c := s.admit.stats().AdmittedCheap; c != 0 {
		t.Fatalf("cold request classified cheap (%d)", c)
	}
	if st, _, hdr := get(t, ts, path); st != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("second hit: status %d, X-Cache %q", st, hdr.Get("X-Cache"))
	}
	st := s.admit.stats()
	if st.AdmittedCheap != 1 || st.Admitted != 2 {
		t.Fatalf("admission stats after hit: %+v", st)
	}

	// /healthz reports the same numbers.
	_, body, _ := get(t, ts, "/healthz")
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Admission.AdmittedCheap != 1 || h.Admission.MaxInFlight == 0 {
		t.Fatalf("healthz admission = %+v", h.Admission)
	}
}
