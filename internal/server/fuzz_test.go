package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vocabpipe/internal/cluster"
	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/tune"
)

// FuzzGridQuery drives arbitrary grid specs down the HTTP query →
// sweep.ParseGrid path. Invariants: the parser never panics; a spec that
// fails to parse surfaces as a 400 with a JSON error body (never a 500 or a
// hang); a spec that parses yields a stable canonical Key across repeated
// parses (the property the result cache depends on), and it and every cell
// label equal their fmt references. NumCells equals the expansion's length,
// and the size guard, which never expands, refuses exactly what checking
// every expanded cell refuses. The accept path stops at the size guards
// rather than running simulations, so the fuzzer stays fast.
func FuzzGridQuery(f *testing.F) {
	f.Add("model=4B;method=baseline,vocab-1;vocab=32k;micro=16")
	f.Add("model=4B,10B;seq=2048,4096;vocab=32k,256k;method=1f1b")
	f.Add("model=7B;method=vhalf")
	f.Add("model=4B;devices=7;method=baseline")
	f.Add("model=4B,21B;seq=4096,2048;vocab=64k;method=vocab-2,1f1b")
	f.Add("model=10B;micro=5000;devices=64")
	f.Add("model=")
	f.Add(";;;")
	f.Add("model=4B;model=4B")
	f.Add("model=4B;micro=0")
	f.Add("vocab=32k")
	f.Add("model=4B;seq=¼")
	f.Add("grid=model%3D4B")
	f.Add(strings.Repeat("model=4B;", 40))

	// MaxCells 0 rejects every parseable grid before simulation: the fuzzer
	// exercises parsing, canonicalization and the error path, not the sweep.
	s := New(Options{MaxCells: 1})
	s.opt.MaxCells = 0 // below any real grid; bypasses the >0 default
	h := s.Handler()
	// guard holds a small cell cap; fuzzed micro and devices values reach
	// both per-cell rejections (tune.MaxMicro, tune.MaxDevices).
	guard := &Server{opt: Options{MaxCells: 64}}

	f.Fuzz(func(t *testing.T, spec string) {
		g, parseErr := sweep.ParseGrid(spec)

		req := httptest.NewRequest(http.MethodGet, "/api/v1/sweep?grid="+url.QueryEscape(spec), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic

		if parseErr != nil || spec == "" {
			// Empty spec reads as a missing parameter; both are client errors.
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("spec %q: parse err %v but HTTP %d", spec, parseErr, rec.Code)
			}
			var e ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
				t.Fatalf("spec %q: 400 without envelope error body: %v (%s)", spec, err, rec.Body.Bytes())
			}
			return
		}

		// Parse succeeded: the canonical key must round-trip — identical on a
		// second parse, never empty, and covering every expanded cell.
		g2, err := sweep.ParseGrid(spec)
		if err != nil {
			t.Fatalf("spec %q: second parse failed: %v", spec, err)
		}
		k1, k2 := g.Key(), g2.Key()
		if k1 != k2 {
			t.Fatalf("spec %q: Key not deterministic:\n%q\n%q", spec, k1, k2)
		}
		if k1 == "" {
			t.Fatalf("spec %q: empty canonical key", spec)
		}
		cells := g.Expand()
		if strings.Count(k1, "|") != len(cells) {
			t.Fatalf("spec %q: key %q does not cover all %d cells", spec, k1, len(cells))
		}
		if n := g.NumCells(); n != len(cells) {
			t.Fatalf("spec %q: NumCells %d, Expand built %d cells", spec, n, len(cells))
		}
		// The size guard counts and reads configs instead of expanding; it
		// must refuse exactly what checking every expanded cell refused.
		if got, want := guard.checkGrid(g), expandedCheckGrid(guard, cells); !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %q: checkGrid = %+v, expanded check = %+v", spec, got, want)
		}
		checkKeyAndLabels(t, "spec "+strconv.Quote(spec), g)
		// With MaxCells forced to 0 the handler must reject even valid specs
		// at the size guard — still a clean JSON 400.
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("spec %q: want size-guard 400, got %d", spec, rec.Code)
		}
	})
}

// FuzzShardRequest drives arbitrary bytes down the POST /api/v1/shard
// decode path: JSON into a cluster.ShardRequest, ToGrid, then the size
// guards. Invariants: nothing panics; an input is refused, or every cell it
// yields carries a label and is a zoo model's shape (name, layers, heads,
// hidden, microbatch size) within the per-cell microbatch and device caps,
// one cell per wire cell and no more than MaxCells. The handler itself, with
// MaxCells forced to 0, answers every input with an enveloped 400 and never
// simulates.
func FuzzShardRequest(f *testing.F) {
	g, err := sweep.ParseGrid(smallGrid)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(cluster.NewShardRequest(g, g.Expand(), sweep.Range{Start: 0, End: 2}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"grid":"g","range":{"start":0,"end":1},"cells":[{"label":"a","method":"vocab-1","config":` +
		`{"Name":"4B","Layers":1024,"Heads":24,"Hidden":3072,"Seq":2048,"MicroBatch":1,"NumMicro":256,"Vocab":32768,"Devices":1024}}]}`))
	f.Add([]byte(`{"grid":"g","range":{"start":0,"end":1},"cells":[{"label":"a","method":"baseline","config":` +
		`{"Name":"5B","Layers":32,"Heads":24,"Hidden":3072,"Seq":2048,"MicroBatch":1,"NumMicro":16,"Vocab":32768,"Devices":8}}]}`))
	f.Add([]byte(`{"grid":"g","range":{"start":0,"end":1},"cells":[{"label":"a","method":"1f1b","config":` +
		`{"Name":"21B","Layers":64,"Heads":40,"Hidden":5120,"Seq":4096,"MicroBatch":1,"NumMicro":5000,"Vocab":262144,"Devices":64}}]}`))
	// No devices: a layout divides by the device count, and a negative one
	// sizes a slice.
	f.Add([]byte(`{"grid":"g","range":{"start":0,"end":1},"cells":[{"label":"x","method":"vocab-1","config":` +
		`{"Name":"4B","Layers":32,"Heads":24,"Hidden":3072,"Seq":2048,"MicroBatch":1,"NumMicro":16,"Vocab":32768,"Devices":0}}]}`))
	f.Add([]byte(`{"grid":"g","range":{"start":0,"end":1},"cells":[{"label":"x","method":"baseline","config":` +
		`{"Name":"4B","Layers":32,"Heads":24,"Hidden":3072,"Seq":2048,"MicroBatch":1,"NumMicro":16,"Vocab":32768,"Devices":-1}}]}`))
	f.Add([]byte(`{"grid":"g","range":{"start":0,"end":1},"cells":[{"label":"x","method":"baseline","config":` +
		`{"Name":"4B","Layers":32,"Heads":24,"Hidden":3072,"Seq":2048,"MicroBatch":1,"NumMicro":0,"Vocab":32768,"Devices":8}}]}`))
	f.Add([]byte(`{"grid":"g","range":{"start":0,"end":5},"cells":[{"label":"a","method":"baseline"}]}`))
	f.Add([]byte(`{"grid":"g","cells":[]}`))
	f.Add([]byte(`{nope`))
	f.Add([]byte(`null`))

	guard := &Server{opt: Options{MaxCells: 64}}
	s := New(Options{MaxCells: 1})
	s.opt.MaxCells = 0 // every grid that decodes is refused at the size guard
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/shard", bytes.NewReader(body)))
		var e ErrorEnvelope
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error.Code == "" {
			t.Fatalf("body %q: HTTP %d %s, want an enveloped 400", body, rec.Code, rec.Body.Bytes())
		}

		var req cluster.ShardRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return
		}
		g, err := req.ToGrid()
		if err != nil || guard.checkGrid(g) != nil {
			return
		}
		if len(g.Cells) != len(req.Cells) || len(g.Cells) > guard.opt.MaxCells {
			t.Fatalf("body %q: %d cells from %d on the wire, limit %d", body, len(g.Cells), len(req.Cells), guard.opt.MaxCells)
		}
		for _, c := range g.Cells {
			z, ok := costmodel.ConfigByName(c.Config.Name)
			if !ok || c.Label == "" {
				t.Fatalf("body %q: accepted cell %q of model %q", body, c.Label, c.Config.Name)
			}
			if c.Config.Layers != z.Layers || c.Config.Heads != z.Heads || c.Config.Hidden != z.Hidden || c.Config.MicroBatch != z.MicroBatch {
				t.Fatalf("body %q: accepted cell %q of shape %+v, not %s's", body, c.Label, c.Config, z.Name)
			}
			if c.Config.NumMicro > tune.MaxMicro || c.Config.Devices > tune.MaxDevices || c.Config.NumMicro < 1 || c.Config.Devices < 1 {
				t.Fatalf("body %q: accepted cell %q past the caps: %+v", body, c.Label, c.Config)
			}
		}
	})
}

// FuzzJoinBody drives arbitrary bytes down POST /api/v1/cluster/join on a
// coordinator with no seeds, as the body and as the ?url= parameter. Each
// input meets a fresh dispatcher. Invariants: nothing panics and nothing
// answers 5xx; every refusal is an enveloped 400; a 200 adds the pool's one
// member under a canonical URL — NormalizeURL returns it unchanged — that
// Members() holds; and a second join of that URL answers "added":false.
func FuzzJoinBody(f *testing.F) {
	f.Add([]byte(`{"url":"127.0.0.1:8081"}`), "")
	f.Add([]byte(`{"url":"http://w1:8081/"}`), "")
	f.Add([]byte(`{"url":"ignored:1"}`), "https://h2")
	f.Add([]byte(``), "w2:8082")
	f.Add([]byte(`{"url":"ftp://w:1"}`), "")
	f.Add([]byte(`{"url":"http://h:1/path"}`), "")
	f.Add([]byte(`{"url":`), "")
	f.Add([]byte(`["url"]`), "")
	f.Add([]byte(`null`), "")
	f.Add([]byte(``), "\xe4")     // not UTF-8: JSON would echo another URL
	f.Add([]byte(``), "00!0%800") // nor once unescaped

	s := New(Options{Cluster: &cluster.Options{}})
	f.Cleanup(func() { s.Close(context.Background()) })
	h := s.Handler()
	join := func(t *testing.T, target string, body []byte) (joinResponse, *httptest.ResponseRecorder) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))) // must not panic
		var r joinResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
				t.Fatalf("%s: 200 with a bad body: %v (%s)", target, err, rec.Body.Bytes())
			}
		}
		return r, rec
	}

	f.Fuzz(func(t *testing.T, body []byte, query string) {
		s.cluster = cluster.New(cluster.Options{})
		target := "/api/v1/cluster/join"
		if query != "" {
			target += "?url=" + url.QueryEscape(query)
		}
		r, rec := join(t, target, body)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			var e ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
				t.Fatalf("body %q, url %q: 400 without an envelope: %v (%s)", body, query, err, rec.Body.Bytes())
			}
			return
		default:
			t.Fatalf("body %q, url %q: HTTP %d %s, want 200 or an enveloped 400", body, query, rec.Code, rec.Body.Bytes())
		}
		if u, err := cluster.NormalizeURL(r.URL); err != nil || u != r.URL {
			t.Fatalf("body %q, url %q: joined as %q, which normalizes to %q (%v)", body, query, r.URL, u, err)
		}
		if m := s.cluster.Members(); !r.Added || r.Members != 1 || !reflect.DeepEqual(m, []string{r.URL}) {
			t.Fatalf("body %q, url %q: join answered %+v, members %v; want %q added as the only member", body, query, r, m, r.URL)
		}
		again, rec := join(t, "/api/v1/cluster/join?url="+url.QueryEscape(r.URL), nil)
		if rec.Code != http.StatusOK || again.Added || again.URL != r.URL || again.Members != 1 {
			t.Fatalf("rejoining %q: HTTP %d %+v, want 200 with added=false", r.URL, rec.Code, again)
		}
	})
}

// FuzzOptimizeBody drives arbitrary bytes down POST /api/v1/optimize on a
// server whose job queue is closed, so an accepted submission answers 503
// shutting_down instead of running a search. Invariants: nothing panics or
// answers 500, and every answer is an envelope; the answer is 503 exactly
// when resolve and checkTuneSpec, called directly on the body decoded as
// the handler decodes it, accept it; and a body whose JSON value runs past
// the 64-KiB cap answers 400 invalid_body.
func FuzzOptimizeBody(f *testing.F) {
	const limit = 64 << 10
	f.Add([]byte(`{"scenario":"4b-quick"}`))
	f.Add([]byte(`{"scenario":"4b-quick","strategy":"anneal"}`))
	f.Add([]byte(`{"spec":"model=4B;devices=8;micro=32,64;method=vocab-1,vocab-2","strategy":"exhaustive"}`))
	f.Add([]byte(`{"spec":"model=4B;devices=4096"}`))
	f.Add([]byte(`{"spec":"model=4B","scenario":"4b-quick"}`))
	f.Add([]byte(`{"scenario":"nope"}`))
	f.Add([]byte(`{"scenario":"4b-quick","strategy":"greedy"}`))
	f.Add([]byte(`{"strategy":"beam"}`))
	f.Add([]byte(`{"scenario":`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"spec":"` + strings.Repeat("a", limit) + `"}`))
	f.Add(append([]byte(`{"scenario":"4b-quick"}`), bytes.Repeat([]byte(" "), limit)...))

	s := New(Options{})
	if err := s.Close(context.Background()); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/optimize", bytes.NewReader(body))) // must not panic
		var e ErrorEnvelope
		if rec.Code == http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error.Code == "" {
			t.Fatalf("body %q: HTTP %d %s, want an enveloped refusal", body, rec.Code, rec.Body.Bytes())
		}

		// The handler's decode: one JSON value, read through the cap.
		var req optimizeRequest
		err := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit)).Decode(&req)
		if err != nil && !errors.Is(err, io.EOF) {
			if rec.Code != http.StatusBadRequest || e.Error.Code != ErrInvalidBody {
				t.Fatalf("body %q: decode error %v, but HTTP %d %s", body, err, rec.Code, e.Error.Code)
			}
			return
		}
		spec, _, refused := req.resolve()
		if refused == nil {
			refused = s.checkTuneSpec(spec)
		}
		if accepted := refused == nil; accepted != (rec.Code == http.StatusServiceUnavailable) {
			t.Fatalf("body %q: resolve+checkTuneSpec accepted=%v (%+v), but HTTP %d %s", body, accepted, refused, rec.Code, e.Error.Code)
		}
		if rec.Code == http.StatusServiceUnavailable && e.Error.Code != ErrShuttingDown {
			t.Fatalf("body %q: 503 with code %s, want %s", body, e.Error.Code, ErrShuttingDown)
		}

		// Whatever the handler's reader does, a first JSON value that does
		// not end inside the cap is refused as a bad body.
		var v json.RawMessage
		dec := json.NewDecoder(bytes.NewReader(body))
		if len(body) > limit && (dec.Decode(&v) != nil || dec.InputOffset() > limit) {
			if rec.Code != http.StatusBadRequest || e.Error.Code != ErrInvalidBody {
				t.Fatalf("%d-byte body whose value runs past the %d-byte cap: HTTP %d %s, want 400 %s", len(body), limit, rec.Code, e.Error.Code, ErrInvalidBody)
			}
		}
	})
}
