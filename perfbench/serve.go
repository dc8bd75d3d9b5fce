package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/experiments"
	"vocabpipe/internal/report"
	"vocabpipe/internal/server"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/trace"
)

// Request mix and key ranges of serve-mixed. Cold requests are single-cell
// /api/v1/schedule lookups over every paper configuration (all six models,
// each with its own method family, both sequence lengths, four vocabulary
// sizes) at a microbatch count drawn from a range of their own, so a cold
// key never repeats and never matches the set-up's cache fill.
const (
	coldShare       = 0.10
	coldMicroLo     = 16 // window cold keys: micro in [coldMicroLo, coldMicroHi)
	coldMicroHi     = 144
	fillMicroLo     = 2  // set-up cache fill: micro in [fillMicroLo, coldMicroLo)
	traceSampleRate = 16 // traced run: read back every 16th request's server spans
	coldSampleKeep  = 64 // cold bodies re-checked after the window
	coldSampleEvery = 8
	overheadRounds  = 4
	overheadBlock   = 400
)

// hotShapes fixes the hot sweep grids' axis sizes (models, seqs, vocabs,
// methods), 1 to 20 cells each. The seed picks the values on each axis, so
// response sizes, and the hit latencies that follow from them, do not
// depend on the seed.
var hotShapes = [][4]int{
	{1, 1, 1, 1}, {1, 1, 1, 2}, {1, 1, 1, 3}, {1, 1, 2, 2}, {1, 1, 1, 5},
	{1, 2, 1, 3}, {1, 2, 2, 2}, {1, 1, 3, 3}, {1, 2, 1, 5}, {1, 1, 4, 3},
	{1, 1, 3, 5}, {1, 2, 4, 2}, {1, 2, 3, 3}, {1, 1, 4, 5}, {1, 1, 1, 1},
	{2, 1, 1, 1}, {1, 1, 2, 1}, {2, 1, 2, 2}, {1, 2, 2, 1}, {3, 1, 1, 2},
	{1, 1, 4, 1}, {2, 2, 1, 2}, {1, 2, 4, 1}, {3, 2, 1, 1}, {2, 1, 2, 5},
	{1, 2, 2, 5}, {2, 2, 4, 1}, {3, 1, 4, 1}, {2, 2, 1, 5}, {1, 1, 2, 5},
}

// families pairs each model group with the methods it runs.
var families = []struct {
	models  []string
	methods []sim.Method
}{
	{[]string{"4B", "10B", "21B"}, sim.OneF1BMethods},
	{[]string{"7B", "16B", "30B"}, sim.VHalfMethods},
}

// coldCell is one single-cell schedule request.
type coldCell struct {
	model  string
	method sim.Method
	seq    int
	vocab  int
	micro  int
}

func (c coldCell) path() string {
	return fmt.Sprintf("/api/v1/schedule?config=%s&method=%s&seq=%d&vocab=%d&micro=%d",
		c.model, c.method, c.seq, c.vocab, c.micro)
}

// grid is the grid the server builds for the request.
func (c coldCell) grid() *sweep.Grid {
	cfg, _ := costmodel.ConfigByName(c.model)
	cfg = cfg.WithSeq(c.seq).WithVocab(c.vocab)
	cfg.NumMicro = c.micro
	return &sweep.Grid{Name: "schedule", Configs: []costmodel.Config{cfg}, Methods: []sim.Method{c.method}}
}

// coldCells lists every cell with micro in [lo, hi), in a seeded order.
func coldCells(rng *rand.Rand, lo, hi int) []coldCell {
	var out []coldCell
	for _, f := range families {
		for _, model := range f.models {
			for _, m := range f.methods {
				for _, seq := range costmodel.SeqLengths {
					for _, v := range costmodel.VocabSizes {
						for micro := lo; micro < hi; micro++ {
							out = append(out, coldCell{model, m, seq, v, micro})
						}
					}
				}
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hotReq is one member of the pre-warmed hot set.
type hotReq struct {
	path  string
	grid  func() (*sweep.Grid, error) // the grid the server builds for it
	body  []byte                      // the set-up response every hit must equal
	cells int
}

// hotSet builds the six experiment grids plus one sweep grid per hot shape.
func hotSet(rng *rand.Rand) []hotReq {
	var hot []hotReq
	for _, name := range experiments.Names() {
		fn, _ := experiments.Grid(name)
		hot = append(hot, hotReq{path: "/api/v1/experiments/" + name,
			grid: func() (*sweep.Grid, error) { return fn(), nil }})
	}
	pick := func(n int, from []string) []string {
		idx := rng.Perm(len(from))[:n]
		out := make([]string, n)
		for i, j := range idx {
			out[i] = from[j]
		}
		return out
	}
	ints := func(v []int) []string {
		out := make([]string, len(v))
		for i, x := range v {
			out[i] = fmt.Sprint(x)
		}
		return out
	}
	for _, sh := range hotShapes {
		f := families[0]
		if sh[3] <= len(families[1].methods) && rng.Intn(2) == 1 {
			f = families[1]
		}
		methods := make([]string, len(f.methods))
		for i, m := range f.methods {
			methods[i] = m.String()
		}
		spec := fmt.Sprintf("model=%s;seq=%s;vocab=%s;method=%s;micro=%d",
			strings.Join(pick(sh[0], f.models), ","),
			strings.Join(pick(sh[1], ints(costmodel.SeqLengths)), ","),
			strings.Join(pick(sh[2], ints(costmodel.VocabSizes)), ","),
			strings.Join(pick(sh[3], methods), ","),
			32+rng.Intn(64))
		hot = append(hot, hotReq{path: "/api/v1/sweep?grid=" + url.QueryEscape(spec),
			grid: func() (*sweep.Grid, error) { return sweep.ParseGrid(spec) }})
	}
	return hot
}

// serveMixed is the service's real mix: repeated dashboard and script
// queries beside fresh exploration, from two closed-loop connections
// against an in-process server with default options.
type serveMixed struct {
	srv     *server.Server
	base    string
	stop    func()
	client  *http.Client
	clients int
	seed    int64
	hot     []hotReq
	cold    []coldCell
	next    atomic.Int64 // next unused cold cell
	sample  []coldSample // cold bodies to re-check after the window
	traced  serveTrace
}

type coldSample struct {
	cell coldCell
	body []byte
}

func setupServeMixed(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	srv := server.New(server.Options{})
	base, stop, err := server.StartLocal(srv)
	if err != nil {
		return nil, err
	}
	clients := min(2, runtime.NumCPU())
	s := &serveMixed{srv: srv, base: base, stop: stop, clients: clients, seed: seed,
		client: newClient(clients), cold: coldCells(rng, coldMicroLo, coldMicroHi)}
	var buf bytes.Buffer
	// Fill the cache to capacity from keys the window never uses, so the
	// window starts with the eviction churn it keeps.
	capacity := srv.CacheStats().Capacity
	for _, c := range coldCells(rng, fillMicroLo, coldMicroLo) {
		if srv.CacheStats().Entries >= capacity {
			break
		}
		if _, _, err := getInto(s.client, base+c.path(), &buf); err != nil {
			s.close()
			return nil, fmt.Errorf("serve-mixed: cache fill: %w", err)
		}
	}
	if n := srv.CacheStats().Entries; n < capacity {
		s.close()
		return nil, fmt.Errorf("serve-mixed: cache fill reached %d of %d entries", n, capacity)
	}
	// Warm the hot set: a miss computes and stores each body, a second
	// request must hit and return the same bytes.
	s.hot = hotSet(rng)
	for i := range s.hot {
		h := &s.hot[i]
		if _, _, err := getInto(s.client, base+h.path, &buf); err != nil {
			s.close()
			return nil, fmt.Errorf("serve-mixed: warming %s: %w", h.path, err)
		}
		h.body = bytes.Clone(buf.Bytes())
		var recs []report.Record
		if err := json.Unmarshal(h.body, &recs); err != nil {
			s.close()
			return nil, fmt.Errorf("serve-mixed: %s: %w", h.path, err)
		}
		for _, r := range recs {
			if r.Error != "" {
				s.close()
				return nil, fmt.Errorf("serve-mixed: %s: cell %s failed: %s", h.path, r.Label, r.Error)
			}
		}
		h.cells = len(recs)
	}
	for _, h := range s.hot {
		outcome, _, err := getInto(s.client, base+h.path, &buf)
		if err != nil || outcome != "hit" || !bytes.Equal(buf.Bytes(), h.body) {
			s.close()
			return nil, fmt.Errorf("serve-mixed: hot %s not served from cache (X-Cache %q, err %v)", h.path, outcome, err)
		}
	}
	return s, nil
}

func (s *serveMixed) close() {
	s.stop()
	s.client.CloseIdleConnections()
	s.srv.Close(context.Background())
}

// newClient returns a client that holds at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// getInto fetches url into buf and returns the X-Cache and X-Trace-Id
// headers; any status but 200 is an error.
func getInto(c *http.Client, url string, buf *bytes.Buffer) (string, string, error) {
	buf.Reset()
	resp, err := c.Get(url)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return resp.Header.Get("X-Cache"), resp.Header.Get("X-Trace-Id"), nil
}

// clientStats is one connection's share of a window.
type clientStats struct {
	rng         *rand.Rand // the connection's hot-key stream
	n           int        // requests sent
	lat         histogram
	ops, failed int
	cells       int
	sample      []coldSample
	tr          serveTrace
}

// window runs both connections in slices of at most refEvery. Between
// slices, with both connections idle, it samples refLoop.
func (s *serveMixed) window(d time.Duration, rec *recorder) windowResult {
	s.traced = serveTrace{}
	before := s.srv.CacheStats()
	stats := make([]*clientStats, s.clients)
	for g := range stats {
		stats[g] = &clientStats{rng: rand.New(rand.NewSource(s.seed*1000 + int64(g) + 1))}
	}
	w := windowResult{lat: &histogram{}}
	var ops atomic.Int64 // op IDs across both connections
	for w.elapsed < d {
		w.clock.tick()
		start := time.Now()
		deadline := start.Add(min(refEvery, d-w.elapsed))
		var wg sync.WaitGroup
		for g := range stats {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s.loop(g, deadline, rec, &ops, stats[g])
			}(g)
		}
		wg.Wait()
		w.elapsed += time.Since(start)
	}
	s.sample = s.sample[:0]
	for _, st := range stats {
		w.lat.merge(&st.lat)
		w.ops += st.ops
		w.failed += st.failed
		w.cells += st.cells
		s.sample = append(s.sample, st.sample...)
		s.traced.merge(st.tr)
	}
	after := s.srv.CacheStats()
	s.traced.cacheHits = after.Hits + after.Deduped - before.Hits - before.Deduped
	s.traced.cacheLookups = s.traced.cacheHits + after.Misses - before.Misses
	s.traced.evictions = after.Evictions - before.Evictions
	s.traced.elapsed = w.elapsed
	// Cold bodies are checked against a direct sweep after the window, so
	// the check costs the window nothing.
	bad := s.recheckCold(nil)
	w.failed += bad
	w.heapMB = retainedHeapMB()
	return w
}

// loop is one closed-loop connection until deadline: each request waits for
// the previous reply. Connection g draws hot keys from its own seeded stream
// and takes cold cells from the shared never-repeating list.
func (s *serveMixed) loop(g int, deadline time.Time, rec *recorder, ops *atomic.Int64, st *clientStats) {
	rng := st.rng
	var buf, tbuf bytes.Buffer
	for ; time.Now().Before(deadline); st.n++ {
		n := st.n
		op := int(ops.Add(1))
		var path string
		var want []byte
		var cold coldCell
		cells := 1
		isCold := rng.Float64() < coldShare
		if isCold {
			cold = s.cold[int(s.next.Add(1)-1)%len(s.cold)]
			path = cold.path()
		} else {
			h := &s.hot[rng.Intn(len(s.hot))]
			path, want, cells = h.path, h.body, h.cells
		}
		sampled := rec != nil && n%traceSampleRate == 0
		var sp int
		if sampled {
			sp = rec.begin("http GET", 0, op, g)
		}
		t0 := time.Now()
		outcome, tid, err := getInto(s.client, s.base+path, &buf)
		lat := time.Since(t0)
		if sampled {
			rec.end(sp)
		}
		st.ops++
		ok := err == nil && (isCold || bytes.Equal(buf.Bytes(), want))
		if !ok {
			st.failed++
			st.lat.fail()
			continue
		}
		st.lat.record(lat)
		st.cells += cells
		if isCold && len(st.sample) < coldSampleKeep/s.clients && n%coldSampleEvery == 0 {
			st.sample = append(st.sample, coldSample{cold, bytes.Clone(buf.Bytes())})
		}
		if rec == nil {
			continue
		}
		st.tr.request(outcome, lat)
		if sampled {
			if err := st.tr.readBack(s.client, s.base, tid, outcome, lat, rec, sp, op, &tbuf); err != nil {
				st.tr.readErrs++
			}
		}
	}
}

// recheckCold compares each sampled cold body with report.WriteJSON of a
// direct sweep.Run on the same single-cell grid, returning the mismatches.
// With a recorder it also times Results.Records per grid.
func (s *serveMixed) recheckCold(rec *recorder) int {
	bad := 0
	var buf bytes.Buffer
	for _, c := range s.sample {
		res := sweep.Run(c.cell.grid(), sweep.Options{})
		sp := rec.begin("sweep.Results.Records", 0, 0, 0)
		recs := res.Records()
		if d := rec.end(sp); rec != nil {
			s.traced.records.addDur(d, time.Microsecond)
		}
		buf.Reset()
		if err := report.WriteJSON(&buf, recs); err != nil || !bytes.Equal(buf.Bytes(), c.body) {
			bad++
		}
	}
	return bad
}

// serveTrace accumulates the traced window's per-layer figures.
type serveTrace struct {
	hitUS, missMS       mean
	transportUS, selfUS mean
	admitCheap          mean // µs
	admitCompute        mean // µs
	lookupSelfUS        mean
	computeMS           mean
	spans               mean
	records             mean // µs, from the cold re-check
	readErrs            int
	// breakdown: Σ root children + root self against the root, per trace
	partsUS, rootUS float64
	cacheHits       int64
	cacheLookups    int64
	evictions       int64
	elapsed         time.Duration
}

func (t *serveTrace) merge(o serveTrace) {
	t.hitUS.merge(o.hitUS)
	t.missMS.merge(o.missMS)
	t.transportUS.merge(o.transportUS)
	t.selfUS.merge(o.selfUS)
	t.admitCheap.merge(o.admitCheap)
	t.admitCompute.merge(o.admitCompute)
	t.lookupSelfUS.merge(o.lookupSelfUS)
	t.computeMS.merge(o.computeMS)
	t.spans.merge(o.spans)
	t.readErrs += o.readErrs
	t.partsUS += o.partsUS
	t.rootUS += o.rootUS
}

// request files one client latency under the cache outcome.
func (t *serveTrace) request(outcome string, lat time.Duration) {
	switch outcome {
	case "hit":
		t.hitUS.addDur(lat, time.Microsecond)
	case "miss":
		t.missMS.addDur(lat, time.Millisecond)
	}
}

// readBack fetches the server's spans for one request by its X-Trace-Id and
// folds them into the per-layer figures.
func (t *serveTrace) readBack(c *http.Client, base, tid, outcome string, lat time.Duration,
	rec *recorder, parent, op int, buf *bytes.Buffer) error {
	if _, _, err := getInto(c, base+"/api/v1/debug/traces/"+tid, buf); err != nil {
		return err
	}
	events, err := trace.ReadChromeTrace(buf)
	if err != nil {
		return err
	}
	rec.addServer(events, parent, op)
	b, err := breakDownServer(events)
	if err != nil {
		return err
	}
	t.spans.add(float64(len(events)))
	t.transportUS.add(float64(lat)/1e3 - b.root)
	t.selfUS.add(b.self)
	t.partsUS += b.children + b.self
	t.rootUS += b.root
	if b.class == "cheap" {
		t.admitCheap.add(b.admission)
	} else {
		t.admitCompute.add(b.admission)
	}
	if outcome == "hit" {
		t.lookupSelfUS.add(b.lookupSelf)
	}
	if b.compute > 0 {
		t.computeMS.add(b.compute / 1e3)
	}
	return nil
}

// serverBreakdown splits one request's server trace, in microseconds.
type serverBreakdown struct {
	root, self, children float64 // root span; its self time; Σ its children
	admission            float64
	class                string
	lookupSelf           float64
	compute              float64
}

// breakDownServer reads a request trace: the root span (no parent), its
// admission and cache.lookup children, and compute under the lookup.
func breakDownServer(events []trace.Event) (serverBreakdown, error) {
	var b serverBreakdown
	byID := map[string]trace.Event{}
	var rootID string
	for _, e := range events {
		byID[e.Args["span_id"]] = e
		if e.Args["parent_id"] == "" {
			rootID = e.Args["span_id"]
		}
	}
	root, ok := byID[rootID]
	if !ok {
		return b, fmt.Errorf("trace has no root span")
	}
	span := func(e trace.Event) interval { return interval{e.Ts, e.Ts + e.Dur} }
	var rootKids []interval
	var lookup *trace.Event
	var lookupKids []interval
	for i, e := range events {
		switch e.Args["parent_id"] {
		case rootID:
			rootKids = append(rootKids, span(e))
			b.children += e.Dur
			switch e.Name {
			case "admission":
				b.admission, b.class = e.Dur, e.Args["class"]
			case "cache.lookup":
				lookup = &events[i]
			}
		}
	}
	if lookup != nil {
		for _, e := range events {
			if e.Args["parent_id"] == lookup.Args["span_id"] {
				lookupKids = append(lookupKids, span(e))
				if e.Name == "compute" {
					b.compute = e.Dur
				}
			}
		}
		b.lookupSelf = selfTime(span(*lookup), lookupKids)
	}
	b.root = root.Dur
	b.self = selfTime(span(root), rootKids)
	return b, nil
}

func (s *serveMixed) layers(rec *recorder, m layerValues) int {
	t := &s.traced
	m["http.hit_us"] = t.hitUS.value()
	m["http.miss_ms"] = t.missMS.value()
	m["http.transport_us"] = t.transportUS.value()
	m["server.self_us"] = t.selfUS.value()
	m["admission.wait_us.cheap"] = t.admitCheap.value()
	m["admission.wait_us.compute"] = t.admitCompute.value()
	m["cache.lookup_self_us"] = t.lookupSelfUS.value()
	m["server.compute_ms"] = t.computeMS.value()
	m["obs.spans_per_req"] = t.spans.value()
	if t.cacheLookups > 0 {
		m["cache.hit_pct"] = 100 * float64(t.cacheHits) / float64(t.cacheLookups)
	}
	m["cache.evictions_per_s"] = float64(t.evictions) / t.elapsed.Seconds()
	failed := t.readErrs

	// Records per cold grid, timed on the re-check of the traced window's
	// sample; Key and WriteJSON per hot grid, the work every hit repeats.
	failed += s.recheckCold(rec)
	m["sweep.records_us"] = t.records.value()
	var key, encode mean
	var buf bytes.Buffer
	for _, h := range s.hot {
		g, err := h.grid()
		if err != nil {
			failed++
			continue
		}
		var recs []report.Record
		if err := json.Unmarshal(h.body, &recs); err != nil {
			failed++
			continue
		}
		sp := rec.begin("sweep.Grid.Key", 0, 0, 0)
		g.Key()
		key.addDur(rec.end(sp), time.Microsecond)
		buf.Reset()
		sp = rec.begin("report.WriteJSON", 0, 0, 0)
		report.WriteJSON(&buf, recs)
		encode.addDur(rec.end(sp), time.Microsecond)
		if !bytes.Equal(buf.Bytes(), h.body) {
			failed++
		}
	}
	m["sweep.key_us"] = key.value()
	m["report.encode_us"] = encode.value()

	// The cells the cold requests simulated, measured layer by layer.
	var cells []sweep.Cell
	for _, c := range s.cold[:min(int(s.next.Load()), 256)] {
		cells = append(cells, c.grid().Expand()...)
	}
	probeCells(cells, rec, 0).fill(m)

	overhead, err := s.tracingOverheadUS(rec)
	if err != nil {
		failed++
	}
	m["obs.overhead_us"] = overhead
	return failed
}

// tracingOverheadUS is the median hit latency on this server minus that on
// a second server built with tracing off, over the same hot set, measured
// in alternating blocks so host drift hits both alike.
func (s *serveMixed) tracingOverheadUS(rec *recorder) (float64, error) {
	sp := rec.begin("probe.obs_overhead", 0, 0, 0)
	defer rec.end(sp)
	plain := server.New(server.Options{TraceCapacity: -1})
	defer plain.Close(context.Background())
	base, stop, err := server.StartLocal(plain)
	if err != nil {
		return 0, err
	}
	defer stop()
	var buf bytes.Buffer
	for _, h := range s.hot {
		if _, _, err := getInto(s.client, base+h.path, &buf); err != nil {
			return 0, err
		}
	}
	var on, off histogram
	for r := 0; r < overheadRounds; r++ {
		for _, side := range []struct {
			base string
			h    *histogram
		}{{s.base, &on}, {base, &off}} {
			for i := 0; i < overheadBlock; i++ {
				h := &s.hot[i%len(s.hot)]
				t0 := time.Now()
				if _, _, err := getInto(s.client, side.base+h.path, &buf); err != nil {
					return 0, err
				}
				side.h.record(time.Since(t0))
			}
		}
	}
	return (on.quantile(0.5) - off.quantile(0.5)) * 1e3, nil
}
