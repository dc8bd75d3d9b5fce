package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/experiments"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/tune"
)

// indexStats reads the request-identity index's two families off /metrics.
func indexStats(t *testing.T, ts *httptest.Server) (entries, resolved float64) {
	t.Helper()
	_, fams := scrape(t, ts)
	for _, name := range []string{"vpserve_request_index_entries", "vpserve_request_index_resolved_total"} {
		if f := fams[name]; f == nil || len(f.samples) != 1 {
			t.Fatalf("family %s missing or not a single sample", name)
		}
	}
	return fams["vpserve_request_index_entries"].samples[0].value,
		fams["vpserve_request_index_resolved_total"].samples[0].value
}

// scheduleGridFor is the grid GET /api/v1/schedule builds for a 4B vocab-1
// cell at 32k vocabulary.
func scheduleGridFor(micro int) *sweep.Grid {
	cfg, _ := costmodel.ConfigByName("4B")
	cfg = cfg.WithVocab(32 * 1024)
	cfg.NumMicro = micro
	return &sweep.Grid{Name: "schedule", Configs: []costmodel.Config{cfg}, Methods: []sim.Method{sim.Vocab1}}
}

func schedulePath(micro int) string {
	return fmt.Sprintf("/api/v1/schedule?config=4B&method=vocab-1&vocab=32768&micro=%d", micro)
}

// cacheLookups reads the result cache's hit and miss counters off /metrics.
func cacheLookups(t *testing.T, ts *httptest.Server) (hits, misses float64) {
	t.Helper()
	_, fams := scrape(t, ts)
	for _, name := range []string{"vpserve_cache_hits_total", "vpserve_cache_misses_total"} {
		if f := fams[name]; f == nil || len(f.samples) != 1 {
			t.Fatalf("family %s missing or not a single sample", name)
		}
	}
	return fams["vpserve_cache_hits_total"].samples[0].value, fams["vpserve_cache_misses_total"].samples[0].value
}

// TestIndexRepeatHits: on each GET compute route, a repeated request answers
// the first response's bytes as a cache hit, and it resolved its key
// through the index — the resolved counter rises by one per repeat. It
// looks its canonical key up in the result cache once: the cache's hit
// counter rises by exactly one and its miss counter not at all.
func TestIndexRepeatHits(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for i, path := range []string{sweepPath(smallGrid), schedulePath(16), "/api/v1/experiments/fig1"} {
		status, first, hdr := get(t, ts, path)
		if status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
			t.Fatalf("%s: first request status %d, X-Cache %q; want 200 miss", path, status, hdr.Get("X-Cache"))
		}
		if entries, resolved := indexStats(t, ts); entries != float64(i+1) || resolved != float64(i) {
			t.Fatalf("%s: after the first request index has %v entries, %v resolved; want %d, %d", path, entries, resolved, i+1, i)
		}
		hits, misses := cacheLookups(t, ts)
		status, again, hdr := get(t, ts, path)
		if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
			t.Fatalf("%s: repeat status %d, X-Cache %q; want 200 hit", path, status, hdr.Get("X-Cache"))
		}
		if !bytes.Equal(again, first) {
			t.Errorf("%s: repeat returned different bytes", path)
		}
		if entries, resolved := indexStats(t, ts); entries != float64(i+1) || resolved != float64(i+1) {
			t.Errorf("%s: after the repeat index has %v entries, %v resolved; want %d, %d", path, entries, resolved, i+1, i+1)
		}
		if h, m := cacheLookups(t, ts); h != hits+1 || m != misses {
			t.Errorf("%s: the repeat moved cache hits %v → %v and misses %v → %v; want one more hit and no miss",
				path, hits, h, misses, m)
		}
	}
}

// TestIndexEntryOutlivesBody: an index entry whose body was evicted sends
// the request down the compute path with the key it resolved, and the
// recomputed body is the first response's bytes. A shard POST does the
// evicting: shards are never indexed, so A's entry survives its body.
func TestIndexEntryOutlivesBody(t *testing.T) {
	s, ts := newTestServer(t, Options{CacheSize: 1})
	a := sweepPath(smallGrid)
	status, first, _ := get(t, ts, a)
	if status != http.StatusOK {
		t.Fatalf("GET A: status %d (%s)", status, first)
	}
	b, err := sweep.ParseGrid("model=4B;method=vocab-2;vocab=64k;micro=16")
	if err != nil {
		t.Fatal(err)
	}
	if status, body, _ := postShard(t, ts, shardBody(t, b, sweep.Range{Start: 0, End: 1})); status != http.StatusOK {
		t.Fatalf("POST shard B: status %d (%s)", status, body)
	}
	ga, err := sweep.ParseGrid(smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cache.Get(cacheKey("sweep", ga)); ok {
		t.Fatal("A's body survived a capacity-1 cache after B, want it evicted")
	}
	if entries, _ := indexStats(t, ts); entries != 1 {
		t.Fatalf("index entries = %v after the shard POST, want A's 1", entries)
	}
	status, again, hdr := get(t, ts, a)
	if status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("GET A again: status %d, X-Cache %q; want 200 miss", status, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(again, first) {
		t.Errorf("recomputed body differs from the first:\ngot  %s\nwant %s", again, first)
	}
	if _, resolved := indexStats(t, ts); resolved != 1 {
		t.Errorf("index resolved = %v, want 1 (A's second GET)", resolved)
	}
}

// TestIndexSkipsPOST: two different shard bodies on one URL are two grids,
// and each gets its own records; the index never sees either.
func TestIndexSkipsPOST(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	g, err := sweep.ParseGrid(smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, r := range []sweep.Range{{Start: 0, End: 1}, {Start: 1, End: 2}} {
		status, body, _ := postShard(t, ts, shardBody(t, g, r))
		if status != http.StatusOK {
			t.Fatalf("shard %v: status %d (%s)", r, status, body)
		}
		sub := sweep.Subgrid(g, g.Expand(), r)
		if want := recordsJSON(t, sub); !bytes.Equal(body, want) {
			t.Errorf("shard %v: body differs from a direct sweep of its cells:\ngot  %s\nwant %s", r, body, want)
		}
		bodies = append(bodies, body)
	}
	if bytes.Equal(bodies[0], bodies[1]) {
		t.Error("two different shard bodies on one URL answered the same bytes")
	}
	if entries, resolved := indexStats(t, ts); entries != 0 || resolved != 0 {
		t.Errorf("index has %v entries, %v resolved after shard POSTs; want 0, 0", entries, resolved)
	}
}

// TestIndexSkipsClientErrors: a rejected request leaves no entry, so every
// repeat is parsed and rejected again with the same enveloped error.
func TestIndexSkipsClientErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxCells: 4})
	for _, tc := range []struct {
		path   string
		status int
		code   ErrCode
	}{
		{sweepPath("model=4B;vocab=32k,64k;method=1f1b"), http.StatusBadRequest, ErrTooManyCells},
		{sweepPath("model=900B"), http.StatusBadRequest, ErrInvalidGrid},
		{"/api/v1/schedule?config=4B&method=nope", http.StatusBadRequest, ErrInvalidParameter},
		{"/api/v1/experiments/nope", http.StatusNotFound, ErrUnknownExperiment},
	} {
		status, first, _ := get(t, ts, tc.path)
		var env ErrorEnvelope
		if err := json.Unmarshal(first, &env); err != nil || status != tc.status || env.Error.Code != tc.code {
			t.Fatalf("%s: status %d, body %s; want %d with code %s", tc.path, status, first, tc.status, tc.code)
		}
		status, again, _ := get(t, ts, tc.path)
		if status != tc.status || !bytes.Equal(again, first) {
			t.Errorf("%s: repeat answered %d %s, want the first %d %s", tc.path, status, again, tc.status, first)
		}
	}
	if entries, resolved := indexStats(t, ts); entries != 0 || resolved != 0 {
		t.Errorf("index has %v entries, %v resolved after client errors only; want 0, 0", entries, resolved)
	}
}

// TestIndexTargetsAreDistinct: the index keys on the escaped path, so a
// request whose decoded path holds a '?' cannot reach another request's
// entry. Keyed on the decoded path, the second request below would spell
// "/api/v1/experiments/fig1?x?", the first one's target, and be answered
// with fig1's records instead of a 404.
func TestIndexTargetsAreDistinct(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if status, body, _ := get(t, ts, "/api/v1/experiments/fig1?x?"); status != http.StatusOK {
		t.Fatalf("fig1 with an unread query: status %d (%s)", status, body)
	}
	status, body, _ := get(t, ts, "/api/v1/experiments/fig1%3Fx")
	wantJSONError(t, status, body, http.StatusNotFound, `unknown experiment "fig1?x"`)
}

// TestIndexSkipsLongTargets: a target longer than the key it resolves to —
// here the small grid plus an unread 200-byte parameter — is served
// correctly every time but never remembered, so padding cannot grow the
// index past the keys it points at.
func TestIndexSkipsLongTargets(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	g, err := sweep.ParseGrid(smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	path := sweepPath(smallGrid) + "&pad=" + strings.Repeat("x", 200)
	u, err := url.Parse(path)
	if err != nil {
		t.Fatal(err)
	}
	target, key := u.EscapedPath()+"?"+u.RawQuery, cacheKey("sweep", g)
	if len(target) <= len(key) {
		t.Fatalf("target is %d bytes, key %d: the test needs a target longer than its key", len(target), len(key))
	}
	want := recordsJSON(t, g)
	for i, wantCache := range []string{"miss", "hit"} {
		status, body, hdr := get(t, ts, path)
		if status != http.StatusOK || hdr.Get("X-Cache") != wantCache || !bytes.Equal(body, want) {
			t.Fatalf("request %d: status %d, X-Cache %q, body %s; want 200 %s with the grid's records", i, status, hdr.Get("X-Cache"), body, wantCache)
		}
	}
	if entries, resolved := indexStats(t, ts); entries != 0 || resolved != 0 {
		t.Errorf("index has %v entries, %v resolved after padded targets only; want 0, 0", entries, resolved)
	}
}

// TestIndexConcurrentEviction runs goroutines over more targets than the
// capacity, so bodies and index entries are both evicted and recomputed
// while other requests resolve through the index. Two targets spell one
// grid differently and so share a body entry. Every response must be its
// target's reference bytes; under -race this also checks the index's
// locking and the lazy parse on the compute goroutine.
func TestIndexConcurrentEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{CacheSize: 3})
	type target struct {
		path string
		want []byte
	}
	var targets []target
	for micro := 16; micro < 24; micro++ {
		targets = append(targets, target{schedulePath(micro), recordsJSON(t, scheduleGridFor(micro))})
	}
	g, err := sweep.ParseGrid(smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	sweepBody := recordsJSON(t, g)
	targets = append(targets,
		target{sweepPath(smallGrid), sweepBody},
		target{sweepPath(strings.Replace(smallGrid, "vocab=32k", "vocab=32768", 1)), sweepBody})

	const workers, perWorker = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tg := targets[(w*7+i*3)%len(targets)]
				resp, err := http.Get(ts.URL + tg.path)
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(buf.Bytes(), tg.want) {
					t.Errorf("%s: status %d, err %v, body %s; want 200 with the reference body", tg.path, resp.StatusCode, err, buf.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	if st := s.CacheStats(); st.Evictions == 0 {
		t.Errorf("body cache never evicted (%+v): the test must churn it", st)
	}
	if st := s.index.Stats(); st.Evictions == 0 || st.Entries > 3 {
		t.Errorf("index stats %+v: want evictions and at most 3 entries", st)
	}
	if _, resolved := indexStats(t, ts); resolved == 0 {
		t.Error("no request resolved through the index")
	}
}

// TestOversizedGridRejectedBeforeExpansion sends an 889-byte query whose
// repeated axes multiply to 1,058,400 cells (six models × 60 seqs × 60
// vocabs × 49 methods). The size guard must count the cross product rather
// than build it: the 400 costs about a hundred allocations, where expanding
// first cost over a million.
func TestOversizedGridRejectedBeforeExpansion(t *testing.T) {
	list := func(v string, n int) string { return strings.TrimSuffix(strings.Repeat(v+",", n), ",") }
	spec := "model=4B,10B,21B,7B,16B,30B;seq=" + list("2048", 60) + ";vocab=" + list("32k", 60) + ";method=" + list("all", 7)
	req := httptest.NewRequest(http.MethodGet, sweepPath(spec), nil)
	if n := len(req.URL.RawQuery); n != 889 {
		t.Fatalf("query is %d bytes, want 889", n)
	}
	s, _ := newTestServer(t, Options{})
	h := s.Handler()
	var rec *httptest.ResponseRecorder
	allocs := testing.AllocsPerRun(3, func() {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
	})
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest || env.Error.Code != ErrTooManyCells {
		t.Fatalf("status %d, body %s; want 400 too_many_cells", rec.Code, rec.Body.Bytes())
	}
	if cells := env.Error.Details["cells"]; cells != float64(6*60*60*49) {
		t.Errorf("details.cells = %v, want %d", cells, 6*60*60*49)
	}
	if allocs >= 1000 {
		t.Errorf("rejecting the grid took %.0f allocations, want under 1,000", allocs)
	}
	t.Logf("rejected %d cells with %.0f allocations per request", 6*60*60*49, allocs)
}

// TestCheckGridMatchesExpansion pins checkGrid, which reads configs and
// never expands, to the guard it replaced, which expanded every cell and
// checked each in order: same verdict, same message, same details. In the
// hand-edited grid the third model asks for 2,048 devices, past
// tune.MaxDevices, so its offending cells sit behind clean configs and
// behind the seq and vocab axes.
func TestCheckGridMatchesExpansion(t *testing.T) {
	cfg, _ := costmodel.ConfigByName("10B")
	cfg.Devices = 4096
	table5, _ := experiments.Grid("table5")
	explicit := &sweep.Grid{Name: "shard",
		Cells: append(table5().Expand()[:2], sweep.Cell{Label: "custom", Config: cfg, Method: sim.Vocab1})}
	grids := map[string]*sweep.Grid{"explicit cells": explicit}
	for _, spec := range []string{
		smallGrid,
		"model=4B,10B,21B;seq=4096,2048;vocab=64k,32k;method=1f1b",
		"model=4B,10B;seq=4096,2048;vocab=64k,32k;method=vhalf,1f1b;micro=5000",
		"model=21B;vocab=256k;method=redis;devices=2048",
		"model=4B;micro=5000;devices=2048",
		"model=7B,16B;seq=2048;method=vocab-2",
	} {
		g, err := sweep.ParseGrid(spec)
		if err != nil {
			t.Fatal(err)
		}
		grids[spec] = g
	}
	behind, err := sweep.ParseGrid("model=4B,10B,21B;seq=4096,2048;vocab=64k,32k;method=1f1b")
	if err != nil {
		t.Fatal(err)
	}
	behind.Configs[2].Devices = 2048
	grids["third model over the device cap"] = behind
	s := &Server{opt: Options{MaxCells: 4096}}
	rejected := 0
	for name, g := range grids {
		got, want := s.checkGrid(g), expandedCheckGrid(s, g.Expand())
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: checkGrid = %+v, want %+v", name, got, want)
		}
		if want != nil {
			rejected++
		}
	}
	if rejected < 4 {
		t.Errorf("only %d grids rejected, the table must exercise rejections", rejected)
	}
}

// expandedCheckGrid is the size guard as it was before checkGrid stopped
// expanding: given a grid's expanded cells, check each in expansion order.
func expandedCheckGrid(s *Server, cells []sweep.Cell) *reqError {
	if len(cells) > s.opt.MaxCells {
		return badRequest(ErrTooManyCells, map[string]any{"cells": len(cells), "limit": s.opt.MaxCells},
			"grid expands to %d cells, limit %d", len(cells), s.opt.MaxCells)
	}
	for i := range cells {
		if m := cells[i].Config.NumMicro; m > tune.MaxMicro {
			return badRequest(ErrTooManyMicro, map[string]any{"cell": cells[i].Label, "micro": m, "limit": tune.MaxMicro},
				"cell %q asks for %d microbatches, limit %d", cells[i].Label, m, tune.MaxMicro)
		}
		if d := cells[i].Config.Devices; d > tune.MaxDevices {
			return badRequest(ErrTooManyDevices, map[string]any{"cell": cells[i].Label, "devices": d, "limit": tune.MaxDevices},
				"cell %q asks for %d devices, limit %d", cells[i].Label, d, tune.MaxDevices)
		}
	}
	return nil
}
