package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vocabpipe/internal/cluster"
	"vocabpipe/internal/obs"
	"vocabpipe/internal/trace"
)

// detTracer builds a tracer whose clock steps 1ms per call from a fixed
// epoch and whose IDs count up from a per-tracer offset — every exported
// timestamp and ID is reproducible, which is what makes the e2e trace
// assertions below exact instead of smoke.
func detTracer(service string, idOffset uint64) *obs.Tracer {
	var mu sync.Mutex
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	ticks := 0
	seq := idOffset
	return obs.NewTracer(obs.Options{
		Capacity: 16,
		Service:  service,
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			ticks++
			return t0.Add(time.Duration(ticks) * time.Millisecond)
		},
		Rand: func() uint64 {
			mu.Lock()
			defer mu.Unlock()
			seq++
			return seq
		},
	})
}

// fetchTrace GETs a debug trace export and decodes it through the same
// reader the simulator's Chrome traces use — the round-trip the acceptance
// criteria demand.
func fetchTrace(t *testing.T, url string) []trace.Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("fetching trace: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: HTTP %d: %s", resp.StatusCode, body)
	}
	events, err := trace.ReadChromeTrace(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("export does not round-trip through ReadChromeTrace: %v", err)
	}
	return events
}

func eventByName(events []trace.Event, name string) *trace.Event {
	for i := range events {
		if events[i].Name == name {
			return &events[i]
		}
	}
	return nil
}

func mustEvent(t *testing.T, events []trace.Event, name string) *trace.Event {
	t.Helper()
	e := eventByName(events, name)
	if e == nil {
		t.Fatalf("trace lacks span %q; have %v", name, spanNames(events))
	}
	return e
}

// TestTraceExportSingleNode: one miss-then-hit request pair; the miss's
// trace shows the full request→cache.lookup→compute→admission chain, the
// hit's trace is the root and its lookup alone — no compute, no admission —
// and both wear the IDs their X-Trace-Id headers promised.
func TestTraceExportSingleNode(t *testing.T) {
	s := New(Options{Parallel: 1, Tracer: detTracer("vpserve", 0)})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(url string) (string, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
		}
		return resp.Header.Get("X-Trace-Id"), resp.Header.Get("X-Cache")
	}

	missID, c1 := get(ts.URL + "/api/v1/sweep?grid=" + url.QueryEscape(smallGrid))
	hitID, c2 := get(ts.URL + "/api/v1/sweep?grid=" + url.QueryEscape(smallGrid))
	if c1 != "miss" || c2 != "hit" {
		t.Fatalf("cache outcomes = %q, %q; want miss, hit", c1, c2)
	}
	if missID == "" || hitID == "" || missID == hitID {
		t.Fatalf("trace IDs = %q, %q; want two distinct non-empty IDs", missID, hitID)
	}

	miss := fetchTrace(t, ts.URL+"/api/v1/debug/traces/"+missID)
	for _, want := range []string{"GET /api/v1/sweep", "admission", "cache.lookup", "compute"} {
		mustEvent(t, miss, want)
	}
	for _, e := range miss {
		if e.Args["trace_id"] != missID {
			t.Errorf("span %q carries trace %q, want %q", e.Name, e.Args["trace_id"], missID)
		}
	}
	if got := mustEvent(t, miss, "cache.lookup").Args["outcome"]; got != "miss" {
		t.Errorf("lookup outcome = %q", got)
	}
	adm, cmp := mustEvent(t, miss, "admission"), mustEvent(t, miss, "compute")
	if adm.Args["parent_id"] != cmp.Args["span_id"] || adm.Args["outcome"] != "admitted" {
		t.Errorf("admission span parent %q outcome %q; want a child of compute %q, admitted",
			adm.Args["parent_id"], adm.Args["outcome"], cmp.Args["span_id"])
	}

	hit := fetchTrace(t, ts.URL+"/api/v1/debug/traces/"+hitID)
	if names := spanNames(hit); len(names) != 2 || eventByName(hit, "GET /api/v1/sweep") == nil ||
		eventByName(hit, "cache.lookup") == nil {
		t.Errorf("cache hit spans = %v, want exactly the root and cache.lookup", names)
	}
	if got := mustEvent(t, hit, "cache.lookup").Args["outcome"]; got != "hit" {
		t.Errorf("hit lookup outcome = %q", got)
	}
}

// TestRemoteTraceReadIsBounded: on a coordinator whose one member answers
// the trace fetch with a well-formed export just past remoteTraceBytes —
// one event whose name alone fills the bound — the merged export reads no
// further than the bound, drops that member's half like any unreadable one,
// and answers with the coordinator's own spans. An endless body is cut at
// the same bound.
func TestRemoteTraceReadIsBounded(t *testing.T) {
	oversized := []byte(`[{"name":"` + strings.Repeat("x", remoteTraceBytes) +
		`","cat":"vpserve","ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]`)
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/api/v1/debug/traces/") {
			http.NotFound(w, r)
			return
		}
		w.Write(oversized)
	}))
	defer member.Close()
	s := New(Options{Parallel: 1, Tracer: detTracer("vpserve", 0),
		Cluster: &cluster.Options{Workers: []string{member.URL}, HedgeAfter: -1}})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One schedule cell computes in-process, so the trace is the
	// coordinator's alone.
	resp, err := http.Get(ts.URL + "/api/v1/schedule?config=4B&method=vocab-1&micro=16")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Trace-Id")
	if resp.StatusCode != http.StatusOK || id == "" {
		t.Fatalf("schedule: HTTP %d, trace %q", resp.StatusCode, id)
	}
	events := fetchTrace(t, ts.URL+"/api/v1/debug/traces/"+id)
	mustEvent(t, events, "GET /api/v1/schedule")
	for _, e := range events {
		if e.Pid != 0 {
			t.Errorf("event from process %d (name %d bytes) merged; a half past the bound must be dropped", e.Pid, len(e.Name))
		}
	}
}

// TestHungMemberKeepsLiveTraceHalf: members are asked for their trace
// halves all at once, so a member that never answers hides no other
// member's half, even when it sorts first and asking in turn would spend
// the whole deadline on it. The live member's events merge re-stamped with
// its sorted index + 1.
func TestHungMemberKeepsLiveTraceHalf(t *testing.T) {
	a, b := httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)
	baseURL := func(ts *httptest.Server) string { return "http://" + ts.Listener.Addr().String() }
	hung, live := a, b
	if baseURL(b) < baseURL(a) {
		hung, live = b, a
	}
	hung.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // never answers; unblocks when the coordinator gives up
	})
	live.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/api/v1/debug/traces/") {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`[{"name":"live member span","cat":"vpserve","ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]`))
	})
	for _, ts := range []*httptest.Server{a, b} {
		ts.Start()
		defer ts.Close()
	}
	s := New(Options{Parallel: 1, Tracer: detTracer("vpserve", 0),
		Cluster: &cluster.Options{Workers: []string{baseURL(hung), baseURL(live)}, HedgeAfter: -1}})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/v1/schedule?config=4B&method=vocab-1&micro=16")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Trace-Id")
	if resp.StatusCode != http.StatusOK || id == "" {
		t.Fatalf("schedule: HTTP %d, trace %q", resp.StatusCode, id)
	}
	events := fetchTrace(t, ts.URL+"/api/v1/debug/traces/"+id)
	mustEvent(t, events, "GET /api/v1/schedule")
	if e := mustEvent(t, events, "live member span"); e.Pid != 2 {
		t.Errorf("live member's event under pid %d, want 2 (sorted second, after the hung member)", e.Pid)
	}
}

func spanNames(events []trace.Event) []string {
	names := make([]string, len(events))
	for i, e := range events {
		names[i] = e.Name
	}
	return names
}

// TestTraceEndpointsErrorModes: bad IDs 400, unknown IDs 404, disabled
// tracing 409 with no X-Trace-Id minted anywhere.
func TestTraceEndpointsErrorModes(t *testing.T) {
	s := New(Options{Parallel: 1, Tracer: detTracer("vpserve", 0)})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status := func(url string) int {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(ts.URL + "/api/v1/debug/traces/zzz"); got != http.StatusBadRequest {
		t.Errorf("bad trace id -> %d, want 400", got)
	}
	if got := status(ts.URL + "/api/v1/debug/traces/0123456789abcdef0123456789abcdef"); got != http.StatusNotFound {
		t.Errorf("unknown trace id -> %d, want 404", got)
	}
	if got := status(ts.URL + "/api/v1/debug/traces?limit=bogus"); got != http.StatusBadRequest {
		t.Errorf("bad limit -> %d, want 400", got)
	}

	off := New(Options{Parallel: 1, TraceCapacity: -1})
	defer off.Close(context.Background())
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	resp, err := http.Get(tsOff.URL + "/api/v1/sweep?grid=" + url.QueryEscape(smallGrid))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Trace-Id") != "" {
		t.Error("tracing disabled but X-Trace-Id minted")
	}
	if got := status(tsOff.URL + "/api/v1/debug/traces"); got != http.StatusConflict {
		t.Errorf("trace list with tracing off -> %d, want 409", got)
	}
}

// TestTraceListNewestFirst: the listing the dashboard polls.
func TestTraceListNewestFirst(t *testing.T) {
	s := New(Options{Parallel: 1, Tracer: detTracer("vpserve", 0)})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var last string
	for _, grid := range []string{smallGrid, "model=4B;method=baseline;vocab=48k;micro=16"} {
		resp, err := http.Get(ts.URL + "/api/v1/sweep?grid=" + url.QueryEscape(grid))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		last = resp.Header.Get("X-Trace-Id")
	}
	resp, err := http.Get(ts.URL + "/api/v1/debug/traces?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), last) {
		t.Errorf("limit=1 listing does not lead with the newest trace %s: %s", last, body)
	}
	if !strings.Contains(string(body), `"root":"GET /api/v1/sweep"`) {
		t.Errorf("listing missing root span name: %s", body)
	}
}

// TestDashboardAndPprofWiring: the embedded dashboard always serves; pprof
// only behind Options.Debug.
func TestDashboardAndPprofWiring(t *testing.T) {
	s := New(Options{Parallel: 1})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard -> HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("dashboard Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), "vpserve dashboard") {
		t.Error("dashboard body missing its title")
	}
	if resp.Header.Get("X-Trace-Id") != "" {
		t.Error("dashboard request minted a trace")
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -debug -> %d, want 404", resp.StatusCode)
	}

	dbg := New(Options{Parallel: 1, Debug: true})
	defer dbg.Close(context.Background())
	tsDbg := httptest.NewServer(dbg.Handler())
	defer tsDbg.Close()
	resp, err = http.Get(tsDbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -debug -> %d, want 200", resp.StatusCode)
	}
}

// TestSlowRequestLog: a request over the threshold leaves one Logf line
// carrying method, status, route and trace ID.
func TestSlowRequestLog(t *testing.T) {
	rec := &logRecorder{}
	s := New(Options{Parallel: 1, SlowRequest: time.Nanosecond, Logf: rec.logf})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/v1/sweep?grid=" + url.QueryEscape(smallGrid))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Trace-Id")

	got := rec.joined()
	if !strings.Contains(got, "slow request") ||
		!strings.Contains(got, "route=/api/v1/sweep") ||
		!strings.Contains(got, "trace="+id) {
		t.Errorf("slow-request log missing identity; log = %q", got)
	}
}

// hitCost is what one in-process cached hit on scheduleHitPath costs a server
// built with opt: heap objects and bytes allocated per request, averaged
// over n requests after a warm-up that computes and stores the body.
func hitCost(t *testing.T, opt Options, n int) (allocs, bytes float64) {
	t.Helper()
	s := New(opt)
	defer s.Close(context.Background())
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, scheduleHitPath, nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("status %d, X-Cache %q; want 200 hit", rec.Code, rec.Header().Get("X-Cache"))
		}
	}
	serve()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Start on a fresh heap: a collection inside the window would add the
	// runtime's own reallocations (sync.Pool's per-P arrays) to the count.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestTracedHitAllocationBudget: every request stays traced, so tracing a
// cached hit may cost at most 3 heap objects (the trace's block, the
// context carrying its root, the X-Trace-Id value) and 1.4 KB over the
// same hit with tracing disabled. The hit itself writes the stored body as
// it is: measured 22 allocations traced and 19 untraced (23 and 20 under
// -race), most of them net/http's request and header plumbing. A hit that
// re-encoded its body would cost dozens more.
func TestTracedHitAllocationBudget(t *testing.T) {
	const n = 200
	const onBudget, offBudget = 27, 24
	onAllocs, onBytes := hitCost(t, Options{}, n)
	offAllocs, offBytes := hitCost(t, Options{TraceCapacity: -1}, n)
	t.Logf("traced hit: %.1f allocs, %.0f B; untraced: %.1f allocs, %.0f B", onAllocs, onBytes, offAllocs, offBytes)
	if d := onAllocs - offAllocs; d > 3 {
		t.Errorf("tracing a hit costs %.1f more allocations, want at most 3", d)
	}
	if d := onBytes - offBytes; d > 1400 {
		t.Errorf("tracing a hit costs %.0f more bytes, want at most 1400", d)
	}
	if onAllocs > onBudget || offAllocs > offBudget {
		t.Errorf("a cached hit costs %.1f allocations traced and %.1f untraced, budgets %d and %d",
			onAllocs, offAllocs, onBudget, offBudget)
	}
}

// TestRootSpanNameAndStatusAttr: the strings the middleware records per
// request are prebuilt, and each reads exactly as the string it replaced.
func TestRootSpanNameAndStatusAttr(t *testing.T) {
	for _, tt := range []struct {
		method, pattern, route, want string
		prebuilt                     bool // the pattern is the name
	}{
		{"GET", "GET /api/v1/schedule", "/api/v1/schedule", "GET /api/v1/schedule", true},
		{"POST", "POST /api/v1/shard", "/api/v1/shard", "POST /api/v1/shard", true},
		{"HEAD", "GET /api/v1/sweep", "/api/v1/sweep", "HEAD /api/v1/sweep", false},
		{"GET", "", "other", "GET other", false},
	} {
		var got string
		allocs := testing.AllocsPerRun(10, func() { got = rootSpanName(tt.method, tt.pattern, tt.route) })
		if got != tt.want {
			t.Errorf("rootSpanName(%q, %q, %q) = %q, want %q", tt.method, tt.pattern, tt.route, got, tt.want)
		}
		if tt.prebuilt && allocs != 0 {
			t.Errorf("naming %q allocates %v objects, want 0", tt.pattern, allocs)
		}
	}
	for code := 100; code < 600; code++ {
		if got := statusAttr(code); got != strconv.Itoa(code) {
			t.Errorf("statusAttr(%d) = %q", code, got)
		}
		if got, want := statusClass(code), strconv.Itoa(code/100)+"xx"; got != want {
			t.Errorf("statusClass(%d) = %q, want %q", code, got, want)
		}
	}
	var attr, class string
	if n := testing.AllocsPerRun(10, func() { attr, class = statusAttr(503), statusClass(503) }); n != 0 {
		t.Errorf("status strings %q, %q cost %v allocations, want 0", attr, class, n)
	}
	if got := http.CanonicalHeaderKey(obs.TraceParentHeader); got != traceParentKey {
		t.Errorf("canonical traceparent key is %q, not %q", got, traceParentKey)
	}
}

// TestTraceParentAdoption: a well-formed traceparent makes the request's
// root a child of the caller's span; a rejected one starts a fresh trace,
// even when the IDs it carries are themselves well formed.
func TestTraceParentAdoption(t *testing.T) {
	s := New(Options{Parallel: 1})
	defer s.Close(context.Background())
	h := s.Handler()
	const ids = "4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7"
	for _, tt := range []struct {
		header string
		adopt  bool
	}{
		{"00-" + ids + "-01", true},
		{"00-" + ids + "-XY", false},   // flags not hex
		{"00-" + ids + "-01-x", false}, // version 00 carries no suffix
		{"00-" + strings.ToUpper(ids) + "-01", false},
	} {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/jobs", nil)
		req.Header.Set(obs.TraceParentHeader, tt.header)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		tid := rec.Header().Get("X-Trace-Id")
		if adopted := tid == ids[:32]; adopted != tt.adopt {
			t.Errorf("traceparent %q: X-Trace-Id %s, adopted=%v, want %v", tt.header, tid, adopted, tt.adopt)
		}
	}
}
