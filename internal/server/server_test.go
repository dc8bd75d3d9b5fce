package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vocabpipe/internal/cluster"
	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/experiments"
	"vocabpipe/internal/jobs"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/tune"
)

// smallGrid is a 2-cell spec cheap enough to sweep in every test.
const smallGrid = "model=4B;method=baseline,vocab-1;vocab=32k;micro=16"

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("server Close: %v", err)
		}
	})
	return s, ts
}

// get fetches path and returns status + body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, body, resp.Header
}

// wantJSONError asserts a failing response carries the uniform envelope
// {"error":{"code":...,"message":...}} with the expected message fragment
// and a non-empty machine code.
func wantJSONError(t *testing.T, status int, body []byte, wantStatus int, fragment string) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status = %d, want %d (body %s)", status, wantStatus, body)
	}
	var e ErrorEnvelope
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, body)
	}
	if e.Error.Code == "" {
		t.Errorf("error body missing machine code: %s", body)
	}
	if e.Error.Message == "" || !strings.Contains(e.Error.Message, fragment) {
		t.Errorf("error message = %q, want it to contain %q", e.Error.Message, fragment)
	}
}

func sweepPath(spec string) string {
	return "/api/v1/sweep?grid=" + url.QueryEscape(spec)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body, hdr := get(t, ts, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("bad health body: %v (%s)", err, body)
	}
	if h.Status != "ok" || h.Requests < 1 {
		t.Errorf("health = %+v", h)
	}
}

// TestSweepEndpoint proves the happy path emits exactly the records the
// sweep engine computes, byte-identical to `vpbench -json` serialization.
func TestSweepEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	status, body, hdr := get(t, ts, sweepPath(smallGrid))
	if status != http.StatusOK {
		t.Fatalf("status = %d (body %s)", status, body)
	}
	if got := hdr.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}

	g, err := sweep.ParseGrid(smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := report.WriteJSON(&want, sweep.Run(g, sweep.Options{}).Records()); err != nil {
		t.Fatal(err)
	}
	if string(body) != want.String() {
		t.Errorf("response is not byte-identical to vpbench -json records:\ngot  %s\nwant %s", body, want.String())
	}

	// Second identical request is a cache hit with the same bytes.
	status, body2, hdr := get(t, ts, sweepPath(smallGrid))
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("second request: status %d, X-Cache %q, want 200 hit", status, hdr.Get("X-Cache"))
	}
	if string(body2) != string(body) {
		t.Error("cache hit returned different bytes")
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit 1 miss", st)
	}
}

// TestSweepCanonicalKeyAliases proves two spellings of the same grid share
// one cache entry ("vocab=32k" vs "vocab=32768").
func TestSweepCanonicalKeyAliases(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	if status, body, _ := get(t, ts, sweepPath("model=4B;method=baseline;vocab=32k;micro=16")); status != 200 {
		t.Fatalf("status %d (%s)", status, body)
	}
	_, _, hdr := get(t, ts, sweepPath("model=4B;method=baseline;vocab=32768;micro=16"))
	if got := hdr.Get("X-Cache"); got != "hit" {
		t.Errorf("alias spelling X-Cache = %q, want hit", got)
	}
	if st := s.CacheStats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

func TestSweepErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	tests := []struct {
		name       string
		path       string
		wantStatus int
		fragment   string
	}{
		{"missing grid param", "/api/v1/sweep", http.StatusBadRequest, "missing required query parameter"},
		{"malformed clause", sweepPath("model4B"), http.StatusBadRequest, "not key=value"},
		{"unknown model", sweepPath("model=900B"), http.StatusBadRequest, "unknown model"},
		{"unknown key", sweepPath("model=4B;flux=9"), http.StatusBadRequest, "unknown grid key"},
		{"no model", sweepPath("seq=2048"), http.StatusBadRequest, "needs at least one model"},
		{"oversized microbatch", sweepPath("model=4B;method=baseline;micro=1000000"), http.StatusBadRequest, "microbatches, limit"},
		{"oversized devices", sweepPath("model=4B;method=baseline;devices=100000"), http.StatusBadRequest, "devices, limit"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			status, body, _ := get(t, ts, tt.path)
			wantJSONError(t, status, body, tt.wantStatus, tt.fragment)
		})
	}
}

// TestOversizedGrid proves the cell-count guard rejects big cross products
// with a JSON 400 before any simulation runs.
func TestOversizedGrid(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxCells: 4})
	// 2 vocabs × 5 methods = 10 cells > 4.
	status, body, _ := get(t, ts, sweepPath("model=4B;vocab=32k,64k;method=1f1b"))
	wantJSONError(t, status, body, http.StatusBadRequest, "limit 4")
}

func TestScheduleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body, _ := get(t, ts, "/api/v1/schedule?config=4B&method=vocab-1&vocab=32768&micro=16")
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, body)
	}
	var recs []report.Record
	if err := json.Unmarshal(body, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Model != "4B" || r.Method != "vocab-1" || r.Vocab != 32768 || r.NumMicro != 16 {
		t.Errorf("record = %+v", r)
	}
	if r.Error != "" || r.IterTimeS <= 0 || r.MFUPct <= 0 {
		t.Errorf("record metrics = %+v", r)
	}
}

func TestScheduleErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	tests := []struct {
		name       string
		path       string
		wantStatus int
		fragment   string
	}{
		{"missing params", "/api/v1/schedule", http.StatusBadRequest, "required"},
		{"unknown config", "/api/v1/schedule?config=2T&method=baseline", http.StatusBadRequest, "unknown config"},
		{"unknown method", "/api/v1/schedule?config=4B&method=warp", http.StatusBadRequest, "unknown method"},
		{"bad seq", "/api/v1/schedule?config=4B&method=baseline&seq=-2", http.StatusBadRequest, "bad seq"},
		{"bad micro", "/api/v1/schedule?config=4B&method=baseline&micro=zz", http.StatusBadRequest, "bad micro"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			status, body, _ := get(t, ts, tt.path)
			wantJSONError(t, status, body, tt.wantStatus, tt.fragment)
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body, _ := get(t, ts, "/api/v1/experiments/table99")
	wantJSONError(t, status, body, http.StatusNotFound, "unknown experiment")
	// The error names the valid experiments so the client can self-correct.
	if !strings.Contains(string(body), "table5") {
		t.Errorf("error body should list valid names: %s", body)
	}
}

// TestThunderingHerd fires concurrent identical requests at a cold key and
// proves the sweep computed once: 1 miss, everyone else a hit or coalesced
// dedup. Run under -race this also proves the serving path is race-clean.
func TestThunderingHerd(t *testing.T) {
	s, ts := newTestServer(t, Options{Parallel: 2})
	const herd = 16
	var wg sync.WaitGroup
	bodies := make([]string, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, _ := get(t, ts, sweepPath(smallGrid))
			if status != http.StatusOK {
				t.Errorf("status = %d", status)
			}
			bodies[i] = string(body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < herd; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d saw different bytes", i)
		}
	}
	st := s.CacheStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (thundering herd must compute once)", st.Misses)
	}
	if st.Hits+st.Deduped != herd-1 {
		t.Errorf("stats = %+v, want %d coalesced/hit", st, herd-1)
	}
}

// TestCellErrorsAre200 pins the contract that per-cell simulation failures
// are payload, not transport errors — matching vpbench's error records.
func TestCellErrorsAre200(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct{ grid, wantErr string }{
		{"model=4B;method=baseline;devices=7", "not divisible"}, // 32 % 7 != 0
		{"model=4B;method=redis;devices=64", "exceed"},          // 64 stages, 32 layers
	} {
		status, body, _ := get(t, ts, sweepPath(tc.grid))
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200 with error records", tc.grid, status)
		}
		var recs []report.Record
		if err := json.Unmarshal(body, &recs); err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || !strings.Contains(recs[0].Error, tc.wantErr) {
			t.Errorf("%s: records = %+v, want one error record containing %q", tc.grid, recs, tc.wantErr)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/api/v1/sweep", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
}

// recordsJSON is the body vpbench -json prints for g: report.WriteJSON of a
// direct sweep.Run, the bytes every cached route must serve.
func recordsJSON(t *testing.T, g *sweep.Grid) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, sweep.Run(g, sweep.Options{}).Records()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantCachedBody drives one cached route: the first request must miss, then
// concurrent repeats must hit. Every response must carry exactly want with a
// Content-Length that matches it. Under -race the concurrent hits also prove
// that no response writes into the stored body the others are reading.
func wantCachedBody(t *testing.T, ts *httptest.Server, method, path string, reqBody, want []byte) {
	t.Helper()
	fetch := func(wantCache string) error {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(reqBody))
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		switch {
		case err != nil:
			return err
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("%s %s: status %d (%s)", method, path, resp.StatusCode, body)
		case resp.Header.Get("X-Cache") != wantCache:
			return fmt.Errorf("%s %s: X-Cache %q, want %q", method, path, resp.Header.Get("X-Cache"), wantCache)
		case resp.ContentLength != int64(len(body)):
			return fmt.Errorf("%s %s: Content-Length %d, body %d bytes", method, path, resp.ContentLength, len(body))
		case !bytes.Equal(body, want):
			return fmt.Errorf("%s %s (%s): body differs from report.WriteJSON of a direct sweep:\ngot  %s\nwant %s",
				method, path, wantCache, body, want)
		}
		return nil
	}
	if err := fetch("miss"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fetch("hit"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestExperimentEndpoints serves every registered experiment: the miss and
// the hits must all be the bytes `vpbench -json` prints for the grid.
func TestExperimentEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment grids in -short mode")
	}
	_, ts := newTestServer(t, Options{})
	for _, name := range experiments.Names() {
		t.Run(name, func(t *testing.T) {
			fn, _ := experiments.Grid(name)
			wantCachedBody(t, ts, http.MethodGet, "/api/v1/experiments/"+name, nil, recordsJSON(t, fn()))
		})
	}
}

// TestCachedRouteBodies is TestExperimentEndpoints for the other cached
// routes: a multi-cell sweep, a schedule cell and a worker shard.
func TestCachedRouteBodies(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	g, err := sweep.ParseGrid(smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	wantCachedBody(t, ts, http.MethodGet, "/api/v1/sweep?grid="+url.QueryEscape(smallGrid), nil, recordsJSON(t, g))

	cfg, _ := costmodel.ConfigByName("4B")
	cfg = cfg.WithVocab(32 * 1024)
	cfg.NumMicro = 16
	sched := &sweep.Grid{Name: "schedule", Configs: []costmodel.Config{cfg}, Methods: []sim.Method{sim.Vocab1}}
	wantCachedBody(t, ts, http.MethodGet, "/api/v1/schedule?config=4B&method=vocab-1&vocab=32768&micro=16", nil, recordsJSON(t, sched))

	body := shardBody(t, g, sweep.Range{Start: 0, End: 2})
	var req cluster.ShardRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	sub, err := req.ToGrid()
	if err != nil {
		t.Fatal(err)
	}
	wantCachedBody(t, ts, http.MethodPost, "/api/v1/shard", body, recordsJSON(t, sub))
}

func TestGridKeyDeterministic(t *testing.T) {
	g1, err := sweep.ParseGrid(smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sweep.ParseGrid(smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Key() != g2.Key() {
		t.Errorf("Key() differs across parses:\n%s\n%s", g1.Key(), g2.Key())
	}
	if g1.Key() == "" || !strings.Contains(g1.Key(), "4B/seq2048/V32k/baseline") {
		t.Errorf("Key() = %q", g1.Key())
	}
	// Different microbatch count must produce a different key even though
	// the cell labels are identical.
	g3, err := sweep.ParseGrid("model=4B;method=baseline,vocab-1;vocab=32k;micro=32")
	if err != nil {
		t.Fatal(err)
	}
	if g3.Key() == g1.Key() {
		t.Error("Key() ignores the microbatch override")
	}
	// Vocab sizes inside the same 1 KiB bucket share a cell label ("V32k")
	// but are different experiments — they must not share a cache key.
	g4, err := sweep.ParseGrid("model=4B;method=baseline,vocab-1;vocab=33000;micro=16")
	if err != nil {
		t.Fatal(err)
	}
	if g4.Key() == g1.Key() {
		t.Error("Key() collides for vocab 32768 vs 33000 (label truncates to V32k)")
	}
}

func TestStartLocal(t *testing.T) {
	s := New(Options{})
	baseURL, stop, err := StartLocal(s)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

// benchCachedHit measures the in-process cache-hit path of one GET target
// on a server built with opt: the warm-up request computes and stores the
// body, so every timed request is a repeat that resolves through the
// request-identity index.
func benchCachedHit(b *testing.B, opt Options, path string) {
	s := New(opt)
	defer s.Close(context.Background())
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			b.Fatalf("status %d, X-Cache %q; want 200 hit", rec.Code, rec.Header().Get("X-Cache"))
		}
	}
	if b.N > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	}
}

// BenchmarkSweepCached: the 2-cell smallGrid sweep.
func BenchmarkSweepCached(b *testing.B) { benchCachedHit(b, Options{}, sweepPath(smallGrid)) }

// BenchmarkSweep20CellCached: a 20-cell sweep (4 vocabularies × the five
// 1F1B methods).
func BenchmarkSweep20CellCached(b *testing.B) {
	benchCachedHit(b, Options{}, sweepPath("model=4B;vocab=32k,64k,128k,256k;method=1f1b;micro=16"))
}

// scheduleHitPath is one schedule cell, the target of the schedule hit
// benchmarks and the tracing allocation budget.
const scheduleHitPath = "/api/v1/schedule?config=4B&method=vocab-1&vocab=32768&micro=16"

// BenchmarkScheduleCached: one schedule cell.
func BenchmarkScheduleCached(b *testing.B) { benchCachedHit(b, Options{}, scheduleHitPath) }

// BenchmarkScheduleCachedUntraced: the same hit with tracing disabled, so
// the difference from BenchmarkScheduleCached is what tracing costs.
func BenchmarkScheduleCachedUntraced(b *testing.B) {
	benchCachedHit(b, Options{TraceCapacity: -1}, scheduleHitPath)
}

// BenchmarkTable5Cached: the 120-cell table5 grid, whose canonical key is
// over 9 KB.
func BenchmarkTable5Cached(b *testing.B) { benchCachedHit(b, Options{}, "/api/v1/experiments/table5") }

// --- auto-tuner job endpoints ---

// pollJob polls /api/v1/jobs/{id} until the job reaches a terminal state.
func pollJob(t *testing.T, ts *httptest.Server, id string) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, body, _ := get(t, ts, "/api/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("poll status = %d (%s)", status, body)
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("bad snapshot: %v (%s)", err, body)
		}
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never finished")
	return jobs.Snapshot{}
}

// submitOptimize POSTs an optimize request and returns the accepted job id.
func submitOptimize(t *testing.T, ts *httptest.Server, query string, body string) string {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	resp, err := http.Post(ts.URL+"/api/v1/optimize"+query, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("optimize status = %d (%s)", resp.StatusCode, raw)
	}
	// The 202 body is the canonical job schema, same as a poll would return.
	var acc jobView
	if err := json.Unmarshal(raw, &acc); err != nil || acc.ID == "" {
		t.Fatalf("bad 202 body: %v (%s)", err, raw)
	}
	if want := "/api/v1/jobs/" + acc.ID; acc.Poll != want || resp.Header.Get("Location") != want {
		t.Errorf("poll = %q, Location = %q, want %q", acc.Poll, resp.Header.Get("Location"), want)
	}
	return acc.ID
}

// decodeTuneResult re-decodes a snapshot's result (an any holding
// map[string]any after JSON round-tripping) into a tune.Result.
func decodeTuneResult(t *testing.T, snap jobs.Snapshot) *tune.Result {
	t.Helper()
	raw, err := json.Marshal(snap.Result)
	if err != nil {
		t.Fatal(err)
	}
	var res tune.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result is not a tune.Result: %v (%s)", err, raw)
	}
	return &res
}

// TestOptimizeRoundTrip is the acceptance path: POST a named scenario, poll
// the job to completion, read the ranked result.
func TestOptimizeRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submitOptimize(t, ts, "?scenario=4b-quick&strategy=beam", "")
	snap := pollJob(t, ts, id)
	if snap.State != jobs.StateDone {
		t.Fatalf("state = %s (error %q)", snap.State, snap.Error)
	}
	if snap.Progress.Done == 0 || snap.Progress.Done != snap.Progress.Total {
		t.Errorf("final progress = %+v", snap.Progress)
	}
	res := decodeTuneResult(t, snap)
	if res.Scenario != "4b-quick" || res.Strategy != tune.StrategyBeam {
		t.Errorf("result header = %+v", res)
	}
	if res.Best == nil || res.Feasible == 0 || len(res.Candidates) != res.Evaluated {
		t.Fatalf("result shape = best %v, feasible %d, %d candidates for %d evaluated",
			res.Best, res.Feasible, len(res.Candidates), res.Evaluated)
	}
	if res.Best.Label != res.Candidates[0].Label || !res.Best.Feasible {
		t.Errorf("best = %+v", res.Best)
	}
	// The job list knows the finished job.
	status, body, _ := get(t, ts, "/api/v1/jobs")
	if status != http.StatusOK || !strings.Contains(string(body), id) {
		t.Errorf("job list (status %d) missing %s: %s", status, id, body)
	}
}

// TestOptimizeInlineSpec submits a constraint spec in the JSON body.
func TestOptimizeInlineSpec(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submitOptimize(t, ts, "", `{"spec":"model=4B;devices=8;micro=32,64;method=vocab-1,vocab-2","strategy":"exhaustive"}`)
	snap := pollJob(t, ts, id)
	if snap.State != jobs.StateDone {
		t.Fatalf("state = %s (error %q)", snap.State, snap.Error)
	}
	res := decodeTuneResult(t, snap)
	if res.Evaluated != 4 || res.Strategy != tune.StrategyExhaustive {
		t.Errorf("result = evaluated %d strategy %s", res.Evaluated, res.Strategy)
	}
}

// openJobStore opens a job WAL in dir, closed after the test's servers
// (cleanups run last-registered first, so open it before newTestServer).
func openJobStore(t *testing.T, dir string) *jobs.FileStore {
	t.Helper()
	store, err := jobs.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestOptimizeRehydratesStoredPayloads: a restarted server resumes queued
// optimize jobs from payloads as the store holds them — a scenario or an
// inline spec, a strategy or none (the default) — through the resolver a
// fresh submission takes, and fails a job whose payload no longer resolves
// with the reason.
func TestOptimizeRehydratesStoredPayloads(t *testing.T) {
	store := openJobStore(t, t.TempDir())
	for i, payload := range []string{
		`{"scenario":"4b-quick","strategy":"beam"}`,
		`{"spec":"model=4B;devices=8;micro=32,64;method=vocab-1,vocab-2","strategy":"exhaustive"}`,
		`{"scenario":"4b-quick"}`,
		`{"scenario":"no-such-scenario","strategy":"beam"}`,
	} {
		if err := store.Put(jobs.Record{ID: fmt.Sprintf("j%d", i+1), Name: "optimize",
			State: jobs.StateQueued, Payload: json.RawMessage(payload), CreatedAt: time.Unix(2000, 0).UTC()}); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t, Options{JobStore: store, Parallel: 1})
	for _, want := range []struct {
		id       string
		strategy tune.Strategy
	}{{"j1", tune.StrategyBeam}, {"j2", tune.StrategyExhaustive}, {"j3", tune.StrategyBeam}} {
		snap := pollJob(t, ts, want.id)
		if snap.State != jobs.StateDone {
			t.Fatalf("%s: state = %s (error %q)", want.id, snap.State, snap.Error)
		}
		if res := decodeTuneResult(t, snap); res.Strategy != want.strategy || res.Best == nil {
			t.Errorf("%s: strategy %s, best %v; want %s with a best candidate", want.id, res.Strategy, res.Best, want.strategy)
		}
	}
	if snap := pollJob(t, ts, "j4"); snap.State != jobs.StateFailed || !strings.Contains(snap.Error, `unknown scenario "no-such-scenario"`) {
		t.Errorf("j4: state %s, error %q; want failed naming the unknown scenario", snap.State, snap.Error)
	}
}

// TestOptimizeResumesKindTaggedWAL: a jobs.wal written before the job kind
// was dropped — every record tagged "kind":"optimize" — still resumes. The
// job caught mid-run and the queued one both finish with the strategies
// their payloads recorded.
func TestOptimizeResumesKindTaggedWAL(t *testing.T) {
	dir := t.TempDir()
	wal := `{"op":"put","rec":{"id":"j1","name":"optimize/4b-quick/exhaustive","kind":"optimize","payload":{"scenario":"4b-quick","strategy":"exhaustive"},"state":"queued","progress":{"done":0,"total":0},"created_at":"2026-10-17T12:00:00Z"}}
{"op":"put","rec":{"id":"j2","name":"optimize/4b-quick/anneal","kind":"optimize","payload":{"scenario":"4b-quick","strategy":"anneal"},"state":"queued","progress":{"done":0,"total":0},"created_at":"2026-10-17T12:00:01Z"}}
{"op":"put","rec":{"id":"j1","name":"optimize/4b-quick/exhaustive","kind":"optimize","payload":{"scenario":"4b-quick","strategy":"exhaustive"},"state":"running","progress":{"done":3,"total":12,"note":"4B/seq2048/V256k/vocab-1"},"created_at":"2026-10-17T12:00:00Z","started_at":"2026-10-17T12:00:02Z"}}
`
	if err := os.WriteFile(filepath.Join(dir, "jobs.wal"), []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	store := openJobStore(t, dir)
	_, ts := newTestServer(t, Options{JobStore: store, Parallel: 1})
	for id, strategy := range map[string]tune.Strategy{"j1": tune.StrategyExhaustive, "j2": tune.StrategyAnneal} {
		snap := pollJob(t, ts, id)
		if snap.State != jobs.StateDone {
			t.Fatalf("%s: state = %s (error %q)", id, snap.State, snap.Error)
		}
		if res := decodeTuneResult(t, snap); res.Strategy != strategy || res.Best == nil {
			t.Errorf("%s: strategy %s, best %v; want %s with a best candidate", id, res.Strategy, res.Best, strategy)
		}
	}
}

func TestOptimizeErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxCells: 10})
	tests := []struct {
		name       string
		query      string
		body       string
		wantStatus int
		fragment   string
	}{
		{"no input", "", "", http.StatusBadRequest, "provide spec"},
		{"both inputs", "?scenario=4b-quick&spec=model%3D4B", "", http.StatusBadRequest, "mutually exclusive"},
		{"unknown scenario", "?scenario=nope", "", http.StatusBadRequest, "unknown scenario"},
		{"bad spec", "?spec=model%3D900B", "", http.StatusBadRequest, "unknown model"},
		{"unknown strategy", "?scenario=4b-quick&strategy=warp", "", http.StatusBadRequest, "unknown strategy"},
		{"bad body", "", "{not json", http.StatusBadRequest, "bad JSON body"},
		{"devices over server cap", "?spec=" + url.QueryEscape("model=4B;devices=2048"), "", http.StatusBadRequest, "device count 2048 out of range [1, 1024]"},
		// The method axis is omitted here, but it defaults to 7 methods, so
		// the 2 device counts make 14 candidates — the cap must apply to the
		// defaulted space, not the raw spec.
		{"defaulted space over the cell cap", "?spec=" + url.QueryEscape("model=4B;devices=8,16"), "", http.StatusBadRequest, "14 candidates, limit 10"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var rd io.Reader
			if tt.body != "" {
				rd = strings.NewReader(tt.body)
			}
			resp, err := http.Post(ts.URL+"/api/v1/optimize"+tt.query, "application/json", rd)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			wantJSONError(t, resp.StatusCode, body, tt.wantStatus, tt.fragment)
		})
	}
}

// TestOptimizeCancel covers the DELETE path deterministically: with one job
// worker occupied by a search, a second submission is still queued when the
// cancel lands, so it must go straight to cancelled without ever running.
func TestOptimizeCancel(t *testing.T) {
	_, ts := newTestServer(t, Options{JobWorkers: 1, Parallel: 1})
	blocker := submitOptimize(t, ts, "?scenario=4b-quick&strategy=exhaustive", "")
	queued := submitOptimize(t, ts, "?scenario=4b-quick&strategy=anneal", "")

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+queued, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	if snap := pollJob(t, ts, queued); snap.State != jobs.StateCancelled {
		t.Errorf("cancelled job state = %s", snap.State)
	}
	// The blocker is unaffected and completes.
	if snap := pollJob(t, ts, blocker); snap.State != jobs.StateDone {
		t.Errorf("blocker state = %s (error %q)", snap.State, snap.Error)
	}
	// Unknown job ids 404 on both verbs.
	status, body, _ := get(t, ts, "/api/v1/jobs/j999999")
	wantJSONError(t, status, body, http.StatusNotFound, "unknown job")
}

// TestDisconnectedClientCancelsSweep pins the request-context satellite: a
// request whose context is already cancelled must not burn a full sweep, and
// the aborted computation must not be cached.
func TestDisconnectedClientCancelsSweep(t *testing.T) {
	s := New(Options{Parallel: 1})
	t.Cleanup(func() { s.Close(context.Background()) })
	h := s.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the handler runs
	req := httptest.NewRequest(http.MethodGet, sweepPath(smallGrid), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if rec.Code != StatusClientClosedRequest {
		t.Errorf("status = %d, want %d", rec.Code, StatusClientClosedRequest)
	}
	st := s.CacheStats()
	if st.Entries != 0 {
		t.Errorf("aborted sweep was cached: %+v", st)
	}

	// A later healthy request recomputes the same grid successfully — the
	// abort poisoned nothing.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, sweepPath(smallGrid), nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("follow-up status = %d", rec2.Code)
	}
	if st := s.CacheStats(); st.Entries != 1 {
		t.Errorf("follow-up not cached: %+v", st)
	}
}
