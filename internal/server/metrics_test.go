package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// ---- hand-rolled exposition parser ----
//
// Deliberately independent of internal/metrics: it re-implements the
// Prometheus text-format rules from the spec so a rendering bug in the
// registry cannot hide behind a shared helper.

type expoSample struct {
	name   string
	labels map[string]string
	value  float64
}

type expoFamily struct {
	name    string
	help    string
	typ     string
	samples []expoSample
}

// sampleFamily maps a sample name to its family name: histogram series
// carry _bucket/_sum/_count suffixes on the declared family name.
func sampleFamily(name string, families map[string]*expoFamily) string {
	if _, ok := families[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if f, ok2 := families[base]; ok2 && f.typ == "histogram" {
				return base
			}
		}
	}
	return ""
}

// parseExposition parses the text format strictly: HELP and TYPE must
// precede a family's samples, label values must unescape, every non-comment
// line must parse as a sample belonging to a declared family.
func parseExposition(t *testing.T, text string) map[string]*expoFamily {
	t.Helper()
	families := map[string]*expoFamily{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("malformed HELP line: %q", line)
			}
			if _, dup := families[name]; dup {
				t.Fatalf("family %q declared twice", name)
			}
			families[name] = &expoFamily{name: name, help: help}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			f, ok := families[name]
			if !ok {
				t.Fatalf("TYPE before HELP for %q", name)
			}
			if len(f.samples) > 0 {
				t.Fatalf("TYPE for %q after its samples", name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown TYPE %q for %q", typ, name)
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}
		name, labels, value := parseSampleLine(t, line)
		famName := sampleFamily(name, families)
		if famName == "" {
			t.Fatalf("sample %q has no declared family (line %q)", name, line)
		}
		f := families[famName]
		if f.typ == "" {
			t.Fatalf("samples for %q before its TYPE", famName)
		}
		f.samples = append(f.samples, expoSample{name: name, labels: labels, value: value})
	}
	return families
}

func parseSampleLine(t *testing.T, line string) (string, map[string]string, float64) {
	t.Helper()
	labels := map[string]string{}
	name := line
	rest := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		body := line[i+1:]
		end := -1
		// Scan for the closing brace outside a quoted value.
		inQuote := false
		for j := 0; j < len(body); j++ {
			switch body[j] {
			case '\\':
				if inQuote {
					j++
				}
			case '"':
				inQuote = !inQuote
			case '}':
				if !inQuote {
					end = j
				}
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			t.Fatalf("unterminated label set: %q", line)
		}
		for _, pair := range splitLabelPairs(t, body[:end]) {
			k, v, found := strings.Cut(pair, "=")
			if !found {
				t.Fatalf("malformed label pair %q in %q", pair, line)
			}
			unq, err := unescapeLabelValue(v)
			if err != nil {
				t.Fatalf("bad label value %q in %q: %v", v, line, err)
			}
			labels[k] = unq
		}
		rest = strings.TrimSpace(body[end+1:])
	} else {
		i := strings.IndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("no value on sample line %q", line)
		}
		name, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	value, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("bad sample value %q on line %q: %v", rest, line, err)
	}
	return name, labels, value
}

// splitLabelPairs splits k="v",k2="v2" on commas outside quotes.
func splitLabelPairs(t *testing.T, s string) []string {
	t.Helper()
	if s == "" {
		return nil
	}
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

func unescapeLabelValue(quoted string) (string, error) {
	if len(quoted) < 2 || quoted[0] != '"' || quoted[len(quoted)-1] != '"' {
		return "", fmt.Errorf("not quoted")
	}
	body := quoted[1 : len(quoted)-1]
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		if body[i] != '\\' {
			b.WriteByte(body[i])
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("dangling backslash")
		}
		switch body[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			return "", fmt.Errorf("bad escape \\%c", body[i])
		}
	}
	return b.String(), nil
}

// checkHistogram asserts the spec invariants for one histogram family:
// cumulative non-decreasing buckets terminated by +Inf, with the +Inf
// bucket equal to _count, per labeled series.
func checkHistogram(t *testing.T, f *expoFamily) {
	t.Helper()
	type series struct {
		buckets []expoSample // in exposition order
		sum     float64
		count   float64
		hasSum  bool
		hasCnt  bool
	}
	byKey := map[string]*series{}
	key := func(labels map[string]string) string {
		var parts []string
		for k, v := range labels {
			if k == "le" {
				continue
			}
			parts = append(parts, k+"="+v)
		}
		// map iteration order is random; normalize
		for i := 0; i < len(parts); i++ {
			for j := i + 1; j < len(parts); j++ {
				if parts[j] < parts[i] {
					parts[i], parts[j] = parts[j], parts[i]
				}
			}
		}
		return strings.Join(parts, ",")
	}
	get := func(labels map[string]string) *series {
		k := key(labels)
		if byKey[k] == nil {
			byKey[k] = &series{}
		}
		return byKey[k]
	}
	for _, s := range f.samples {
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			if _, ok := s.labels["le"]; !ok {
				t.Errorf("%s: bucket sample without le label", f.name)
			}
			get(s.labels).buckets = append(get(s.labels).buckets, s)
		case strings.HasSuffix(s.name, "_sum"):
			sr := get(s.labels)
			sr.sum, sr.hasSum = s.value, true
		case strings.HasSuffix(s.name, "_count"):
			sr := get(s.labels)
			sr.count, sr.hasCnt = s.value, true
		default:
			t.Errorf("%s: unexpected histogram sample %q", f.name, s.name)
		}
	}
	for k, sr := range byKey {
		if !sr.hasSum || !sr.hasCnt {
			t.Errorf("%s{%s}: missing _sum or _count", f.name, k)
			continue
		}
		if len(sr.buckets) == 0 {
			t.Errorf("%s{%s}: no buckets", f.name, k)
			continue
		}
		last := sr.buckets[len(sr.buckets)-1]
		if last.labels["le"] != "+Inf" {
			t.Errorf("%s{%s}: buckets not terminated by +Inf (last le=%q)", f.name, k, last.labels["le"])
		}
		if last.value != sr.count {
			t.Errorf("%s{%s}: bucket(+Inf) = %v != _count = %v", f.name, k, last.value, sr.count)
		}
		prevLe := ""
		prev := -1.0
		for _, b := range sr.buckets {
			if b.value < prev {
				t.Errorf("%s{%s}: buckets not cumulative: le=%q %v after le=%q %v",
					f.name, k, b.labels["le"], b.value, prevLe, prev)
			}
			prev, prevLe = b.value, b.labels["le"]
		}
	}
}

func scrape(t *testing.T, ts *httptest.Server) (string, map[string]*expoFamily) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), parseExposition(t, string(raw))
}

// TestMetricsScrapeAllocationBudget pins the cost of the observability
// spine's most expensive operation: rendering every family on a server that
// has served one sweep and one /healthz. Measured: 819 allocations per
// scrape, 934–937 under -race, where sync.Pool drops some of the buffers it
// is handed.
func TestMetricsScrapeAllocationBudget(t *testing.T) {
	const budget = 1110
	s := New(Options{CacheSize: 16, Parallel: 1})
	defer s.Close(context.Background())
	h := s.Handler()
	serve := func(target string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", target, rec.Code)
		}
	}
	serve(sweepPath("model=4B;method=baseline;vocab=32k;micro=16"))
	serve("/healthz")
	allocs := testing.AllocsPerRun(20, func() { serve("/metrics") })
	t.Logf("/metrics scrape: %v allocations", allocs)
	if allocs > budget {
		t.Errorf("a /metrics scrape made %v allocations, budget %d", allocs, budget)
	}
}

// TestMetricsExposition is the conformance test: traffic on several routes,
// then a strict parse of /metrics with per-type invariant checks, then a
// second scrape under concurrent load asserting counter monotonicity.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Traffic: one computed sweep, one cache hit, a 400, a 404, healthz.
	get(t, ts, sweepPath(smallGrid))
	get(t, ts, sweepPath(smallGrid))
	get(t, ts, "/api/v1/sweep") // missing grid → 400
	if resp, err := http.Get(ts.URL + "/no/such/path"); err == nil {
		resp.Body.Close()
	}
	get(t, ts, "/healthz")

	_, fams := scrape(t, ts)

	// Every family is fully declared and every sample well typed.
	for name, f := range fams {
		if f.typ == "" {
			t.Errorf("family %q missing TYPE", name)
		}
		if f.help == "" {
			t.Errorf("family %q has empty HELP", name)
		}
		if f.typ == "histogram" {
			checkHistogram(t, f)
		}
	}

	// The expected spine families exist.
	for _, want := range []string{
		"vpserve_http_requests_total",
		"vpserve_http_request_duration_seconds",
		"vpserve_cache_hits_total",
		"vpserve_cache_misses_total",
		"vpserve_cache_dedup_total",
		"vpserve_cache_evictions_total",
		"vpserve_cache_entries",
		"vpserve_cache_capacity",
		"vpserve_request_index_entries",
		"vpserve_request_index_resolved_total",
		"vpserve_jobs_queued",
		"vpserve_jobs_running",
		"vpserve_jobs_submitted_total",
		"vpserve_jobs_done_total",
		"vpserve_jobs_failed_total",
		"vpserve_jobs_cancelled_total",
		"vpserve_jobs_pruned_total",
		"vpserve_sse_streams_active",
		"vpserve_uptime_seconds",
	} {
		if fams[want] == nil {
			t.Errorf("family %q missing from exposition", want)
		}
	}

	// Route/code labeling: the sweep traffic above must appear under its mux
	// pattern with the right status classes.
	reqs := fams["vpserve_http_requests_total"]
	if reqs == nil {
		t.Fatal("no request counter family")
	}
	find := func(route, code string) float64 {
		for _, s := range reqs.samples {
			if s.labels["route"] == route && s.labels["code"] == code {
				return s.value
			}
		}
		return -1
	}
	if v := find("/api/v1/sweep", "2xx"); v < 2 {
		t.Errorf(`requests{route="/api/v1/sweep",code="2xx"} = %v, want >= 2`, v)
	}
	if v := find("/api/v1/sweep", "4xx"); v < 1 {
		t.Errorf(`requests{route="/api/v1/sweep",code="4xx"} = %v, want >= 1`, v)
	}
	if v := find("other", "4xx"); v < 1 {
		t.Errorf(`requests{route="other",code="4xx"} = %v, want >= 1 (unmatched path)`, v)
	}
	if v := find("/healthz", "2xx"); v < 1 {
		t.Errorf(`requests{route="/healthz",code="2xx"} = %v, want >= 1`, v)
	}

	// Cache counters went through the expected transitions: one miss
	// (computed) then one hit.
	if v := fams["vpserve_cache_misses_total"].samples[0].value; v < 1 {
		t.Errorf("cache misses = %v, want >= 1", v)
	}
	if v := fams["vpserve_cache_hits_total"].samples[0].value; v < 1 {
		t.Errorf("cache hits = %v, want >= 1", v)
	}
	// The repeated sweep resolved its key through the request-identity
	// index; the 400 left no entry.
	if v := fams["vpserve_request_index_resolved_total"].samples[0].value; v != 1 {
		t.Errorf("index resolved = %v, want 1", v)
	}
	if v := fams["vpserve_request_index_entries"].samples[0].value; v != 1 {
		t.Errorf("index entries = %v, want 1", v)
	}

	// Second scrape under concurrent request load: counters only go up, and
	// the exposition stays parseable while being written to. -race makes
	// this a data-race probe too.
	before := fams
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				resp, err := http.Get(ts.URL + "/healthz")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 10; j++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()

	_, after := scrape(t, ts)
	for name, f := range before {
		if f.typ != "counter" && f.typ != "histogram" {
			continue
		}
		g := after[name]
		if g == nil {
			t.Errorf("family %q disappeared between scrapes", name)
			continue
		}
		for _, s := range f.samples {
			cur, ok := findSample(g, s.name, s.labels)
			if !ok {
				t.Errorf("series %v of %q disappeared between scrapes", s.labels, s.name)
				continue
			}
			if cur < s.value {
				t.Errorf("%s%v went backwards: %v -> %v", s.name, s.labels, s.value, cur)
			}
		}
	}
	hz := findCounterTotal(after["vpserve_http_requests_total"], "/healthz")
	if hzBefore := findCounterTotal(before["vpserve_http_requests_total"], "/healthz"); hz < hzBefore+100 {
		t.Errorf("healthz counter rose %v -> %v, want +100 from the load loop", hzBefore, hz)
	}
}

func findSample(f *expoFamily, name string, labels map[string]string) (float64, bool) {
	for _, s := range f.samples {
		if s.name != name || len(s.labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.value, true
		}
	}
	return 0, false
}

// findCounterTotal sums a route's request counter across code classes.
func findCounterTotal(f *expoFamily, route string) float64 {
	if f == nil {
		return 0
	}
	var total float64
	for _, s := range f.samples {
		if s.labels["route"] == route {
			total += s.value
		}
	}
	return total
}

// TestMetricsJobCounters: job lifecycle transitions land in the queue
// families exposed at /metrics.
func TestMetricsJobCounters(t *testing.T) {
	_, ts := newTestServer(t, Options{JobWorkers: 1})
	id := submitOptimize(t, ts, "?scenario=4b-quick&strategy=beam", "")
	pollJob(t, ts, id)

	_, fams := scrape(t, ts)
	if v := fams["vpserve_jobs_submitted_total"].samples[0].value; v != 1 {
		t.Errorf("jobs submitted = %v, want 1", v)
	}
	if v := fams["vpserve_jobs_done_total"].samples[0].value; v != 1 {
		t.Errorf("jobs done = %v, want 1", v)
	}
	if v := fams["vpserve_jobs_running"].samples[0].value; v != 0 {
		t.Errorf("jobs running = %v, want 0 after completion", v)
	}
}

func TestStatusClass(t *testing.T) {
	tests := []struct {
		status int
		want   string
	}{
		{0, "2xx"}, {200, "2xx"}, {202, "2xx"}, {304, "3xx"},
		{400, "4xx"}, {404, "4xx"}, {StatusClientClosedRequest, "4xx"},
		{500, "5xx"}, {503, "5xx"},
	}
	for _, tt := range tests {
		if got := statusClass(tt.status); got != tt.want {
			t.Errorf("statusClass(%d) = %q, want %q", tt.status, got, tt.want)
		}
	}
}
