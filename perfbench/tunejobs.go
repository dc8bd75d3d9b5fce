package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"time"

	"vocabpipe/internal/experiments"
	"vocabpipe/internal/server"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/tune"
)

// heapAtOp is the tune-jobs op after which the live heap is read. The job
// history and the trace ring grow with every search until they reach their
// caps, so the heap is read at a fixed op count instead of at the end.
const heapAtOp = 24

// tuneJobs cycles one client through every named scenario × strategy. Each
// search is a POST /api/v1/optimize, then a read of the job's event stream
// up to its terminal frame: no polling. One op is one search; the latency
// percentiles are per cycle of all searches, because the searches' own
// durations differ by type. The seed sets the order of the cycle.
type tuneJobs struct {
	srv      *server.Server
	base     string
	stop     func()
	client   *http.Client
	searches []search
	traced   tuneTrace
}

// search is one scenario × strategy and its expected result.
type search struct {
	scenario  string
	strategy  tune.Strategy
	want      []byte // JSON of a direct tune.Search, computed in set-up
	evaluated int
	quality   float64 // best score ÷ exhaustive best, %; 0 for exhaustive
}

func setupTuneJobs(seed int64) (instance, error) {
	t := &tuneJobs{}
	for _, name := range experiments.TuneNames() {
		var oracle *tune.Result
		for _, st := range []tune.Strategy{tune.StrategyExhaustive, tune.StrategyBeam, tune.StrategyAnneal} {
			spec, _ := experiments.TuneSpec(name)
			res, err := tune.Search(context.Background(), spec, st, tune.Options{})
			if err != nil {
				return nil, fmt.Errorf("tune-jobs: %s/%s: %w", name, st, err)
			}
			want, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			s := search{scenario: name, strategy: st, want: want, evaluated: res.Evaluated}
			if st == tune.StrategyExhaustive {
				oracle = res
			} else if q := tune.QualityRatio(res, oracle); !math.IsNaN(q) {
				s.quality = 100 * q
			}
			t.searches = append(t.searches, s)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(t.searches), func(i, j int) {
		t.searches[i], t.searches[j] = t.searches[j], t.searches[i]
	})
	t.srv = server.New(server.Options{})
	var err error
	if t.base, t.stop, err = server.StartLocal(t.srv); err != nil {
		return nil, err
	}
	t.client = newClient(1)
	// One untimed cycle warms the server's runners and the HTTP path.
	for i := range t.searches {
		if _, err := t.do(&t.searches[i], nil, 0); err != nil {
			t.close()
			return nil, fmt.Errorf("tune-jobs: warm-up: %w", err)
		}
	}
	return t, nil
}

func (t *tuneJobs) close() {
	t.stop()
	t.client.CloseIdleConnections()
	t.srv.Close(context.Background())
}

// jobTiming is one search as the client and the job saw it.
type jobTiming struct {
	sent, submitted, received  time.Time // client clock
	created, started, finished time.Time // job snapshot
}

// snapshot is the part of the job schema the benchmark reads.
type snapshot struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	Error      string          `json:"error"`
	Result     json.RawMessage `json:"result"`
	Events     string          `json:"events"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at"`
	FinishedAt *time.Time      `json:"finished_at"`
}

// do runs one search over HTTP and checks its result.
func (t *tuneJobs) do(s *search, rec *recorder, op int) (jobTiming, error) {
	var jt jobTiming
	sp := rec.begin("tune.search "+s.scenario+"/"+string(s.strategy), 0, op, 0)
	defer rec.end(sp)
	q := url.Values{"scenario": {s.scenario}, "strategy": {string(s.strategy)}}
	jt.sent = time.Now()
	ps := rec.begin("http POST /api/v1/optimize", sp, op, 0)
	resp, err := t.client.Post(t.base+"/api/v1/optimize?"+q.Encode(), "application/json", nil)
	if err != nil {
		return jt, err
	}
	var view snapshot
	err = json.NewDecoder(resp.Body).Decode(&view)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	jt.submitted = time.Now()
	rec.end(ps)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return jt, fmt.Errorf("optimize %s/%s: %s %v", s.scenario, s.strategy, resp.Status, err)
	}

	es := rec.begin("sse GET "+view.Events, sp, op, 0)
	data, err := t.terminalFrame(view.Events)
	jt.received = time.Now()
	rec.end(es)
	if err != nil {
		return jt, err
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return jt, fmt.Errorf("job %s: terminal frame: %w", view.ID, err)
	}
	if snap.State != "done" || snap.StartedAt == nil || snap.FinishedAt == nil {
		return jt, fmt.Errorf("job %s ended %s: %s", view.ID, snap.State, snap.Error)
	}
	if !bytes.Equal(snap.Result, s.want) {
		return jt, fmt.Errorf("job %s: result differs from a direct tune.Search", view.ID)
	}
	jt.created, jt.started, jt.finished = snap.CreatedAt, *snap.StartedAt, *snap.FinishedAt
	return jt, nil
}

// terminalFrame reads the job's SSE stream and returns the data of its
// terminal frame; the server ends the stream right after it.
func (t *tuneJobs) terminalFrame(path string) ([]byte, error) {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return nil, fmt.Errorf("GET %s: stream ended before a terminal frame: %w", path, err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if v, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			event = string(v)
			continue
		}
		if v, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			switch event {
			case "done", "failed", "cancelled":
				io.Copy(io.Discard, br)
				return v, nil
			}
		}
	}
}

func (t *tuneJobs) window(d time.Duration, rec *recorder) windowResult {
	t.traced = tuneTrace{}
	w := windowResult{lat: &histogram{}}
	start := time.Now()
	var excluded time.Duration // forced GC for the heap reading, refLoop samples
	for w.ops == 0 || time.Since(start)-excluded < d || w.ops < heapAtOp {
		cycleStart := time.Now()
		var skip time.Duration // this cycle's share of excluded
		ok := true
		for i := range t.searches {
			s := &t.searches[i]
			skip += w.clock.tick()
			w.ops++
			jt, err := t.do(s, rec, w.ops)
			if err != nil {
				w.failed++
				ok = false
			} else {
				w.cells += s.evaluated
				if rec != nil {
					t.traced.add(s, jt)
				}
			}
			if w.ops == heapAtOp {
				g0 := time.Now()
				w.heapMB = retainedHeapMB()
				skip += time.Since(g0)
			}
		}
		excluded += skip
		if ok {
			w.lat.record(time.Since(cycleStart) - skip)
		} else {
			w.lat.fail()
		}
	}
	w.elapsed = time.Since(start) - excluded
	return w
}

// tuneTrace accumulates the traced window's job figures.
type tuneTrace struct {
	submitMS, queueMS, lagMS mean
	searchMS                 map[tune.Strategy]*mean
	evaluated, quality       mean
	// breakdown: Σ queue wait + search + SSE lag against Σ client time
	partsMS, clientMS float64
}

func (tt *tuneTrace) add(s *search, jt jobTiming) {
	if tt.searchMS == nil {
		tt.searchMS = map[tune.Strategy]*mean{}
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	queue := ms(jt.started.Sub(jt.created))
	run := ms(jt.finished.Sub(jt.started))
	lag := ms(jt.received.Sub(jt.finished))
	tt.submitMS.add(ms(jt.submitted.Sub(jt.sent)))
	tt.queueMS.add(queue)
	tt.lagMS.add(lag)
	if tt.searchMS[s.strategy] == nil {
		tt.searchMS[s.strategy] = &mean{}
	}
	tt.searchMS[s.strategy].add(run)
	tt.evaluated.add(float64(s.evaluated))
	if s.strategy != tune.StrategyExhaustive {
		tt.quality.add(s.quality)
	}
	tt.partsMS += queue + run + lag
	tt.clientMS += ms(jt.received.Sub(jt.sent))
}

func (t *tuneJobs) layers(rec *recorder, m layerValues) int {
	tt := &t.traced
	m["server.submit_ms"] = tt.submitMS.value()
	m["jobs.queue_wait_ms"] = tt.queueMS.value()
	m["jobs.sse_lag_ms"] = tt.lagMS.value()
	for _, st := range []tune.Strategy{tune.StrategyExhaustive, tune.StrategyBeam, tune.StrategyAnneal} {
		if v := tt.searchMS[st]; v != nil {
			m["tune.search_ms."+string(st)] = v.value()
		}
	}
	m["tune.cells_per_search"] = tt.evaluated.value()
	m["tune.quality_pct"] = tt.quality.value()

	// Every candidate of the four scenarios, as the tuner builds its cells.
	var cells []sweep.Cell
	for _, name := range experiments.TuneNames() {
		spec, _ := experiments.TuneSpec(name)
		d := spec.Defaulted()
		for _, meth := range d.Methods {
			for _, dev := range d.Devices {
				for _, micro := range d.Micros {
					cfg := d.Base
					cfg.Devices, cfg.NumMicro = dev, micro
					cells = append(cells, sweep.Cell{Config: cfg, Method: meth})
				}
			}
		}
	}
	probeCells(cells, rec, 0).fill(m)
	m["schedule.chain_gain_pct"] = chainGainPct(cells, rec, 0)
	return 0
}
