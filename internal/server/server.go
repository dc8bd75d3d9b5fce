// Package server is the vpserve HTTP API: the sweep engine exposed as a
// queryable service. Every endpoint returns the same JSON records
// internal/report emits for `vpbench -json` — byte-identical, so a client
// cannot tell whether a result came from the CLI or the service — backed by
// an LRU cache with in-flight request deduplication (internal/cache),
// so a thundering herd on one grid computes it once. A repeated GET finds
// its cache key by its request target in a second LRU of the same size
// (gridRoute), so a hit does not parse, expand or key its grid again.
//
// Endpoints (every API route lives under /api/v1; an unversioned /api/...
// path answers an enveloped 404, code unversioned_path, naming its /api/v1
// route):
//
//	GET /healthz                      liveness + uptime + cache + admission
//	                                  statistics (+ per-worker health in
//	                                  coordinator mode)
//	GET /api/v1/sweep?grid=SPEC       user-defined grid (sweep.ParseGrid syntax)
//	GET /api/v1/schedule?config=4B&method=vocab-1[&seq=..&vocab=..&micro=..&devices=..]
//	                                  a single (config, method) cell
//	GET /api/v1/experiments/{name}    a named paper grid (internal/experiments)
//	POST /api/v1/shard                evaluate one shard of a grid (the worker
//	                                  side of distributed mode; see
//	                                  internal/cluster for the wire format)
//	POST /api/v1/cluster/join         register (or heartbeat) a worker in the
//	                                  coordinator's member pool
//	POST /api/v1/optimize             submit an auto-tuner search (internal/tune)
//	                                  as an async job; 202 + the job resource
//	GET /api/v1/jobs                  list known jobs
//	GET /api/v1/jobs/{id}             poll one job: state, progress, result
//	DELETE /api/v1/jobs/{id}          cancel a queued or running job
//	GET /api/v1/debug/traces          recent completed request traces
//	GET /api/v1/debug/traces/{id}     one trace as Chrome trace_event JSON
//	                                  (merged across workers on a coordinator)
//	GET /dashboard                    embedded zero-dependency live dashboard
//
// Tracing (internal/obs): every /api request runs under a root span whose
// trace ID is returned in the X-Trace-Id response header; cache lookup,
// compute (on a miss, with its admission wait inside it), cluster dispatch
// and per-shard attempts are child spans, and shard requests carry a
// traceparent header so worker-side spans parent under the coordinator's
// attempt across processes. Completed traces sit in a bounded ring buffer
// exported by the debug endpoints. With Options.Debug, net/http/pprof
// mounts at /debug/pprof/.
//
// Every job-bearing response — the jobs list, a job poll, the optimize 202
// body and each SSE data frame — serializes the one canonical job schema
// (jobView): the jobs.Snapshot fields plus poll/events URLs.
//
// Admission control: on the synchronous compute endpoints (sweep, schedule,
// experiments, shard), every sweep the cache has to run takes a slot of a
// bounded in-flight semaphore, waiting in a bounded FIFO accept queue when
// the slots are full (admission.go). Admission happens inside the cache's
// compute, so a cache hit or a request coalesced onto an in-flight compute
// never touches it: a warmed key stays fast during an overload of cold
// traffic. When the queue is full the compute is shed and its requests get
// 429 + Retry-After. /healthz, /metrics and the job endpoints bypass
// admission too — observability and queue management must keep answering
// precisely when the server is saturated.
//
// Distributed mode: when Options.Cluster is set, the server is a
// coordinator — grids on the synchronous endpoints (and tuner candidate
// batches) go to the cluster dispatcher, which fans shardable multi-cell
// ones out across the member pool and merges them back in deterministic
// cell order, so the response stays byte-identical to a single-node run.
// Membership is dynamic: the seed list may be empty, workers register and
// heartbeat via POST /api/v1/cluster/join, silent members are expired by
// the prober, and shard placement is cache-affine rendezvous hashing. Every
// server answers POST /api/v1/shard (shard evaluation is always local — a
// worker never re-shards), so any vpserve instance can serve as a worker.
// With Options.JobStore set, optimize jobs are durable across restarts.
//
// Errors are the uniform envelope {"error":{"code":..., "message":...,
// "details":{...}}} with a stable machine-readable code (see errors.go);
// per-cell simulation failures are not transport errors — they appear as
// error records inside a 200 response, exactly as vpbench reports them.
//
// Synchronous endpoints propagate the request context into the sweep
// engine: a client that disconnects mid-computation cancels the in-flight
// work at the next cell boundary (unless another request is coalesced onto
// the same cache key, in which case the computation continues for them).
// Long tuner searches never hold a request open — POST /api/v1/optimize
// returns immediately and the job queue (internal/jobs) owns the work.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vocabpipe/internal/cache"
	"vocabpipe/internal/cluster"
	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/experiments"
	"vocabpipe/internal/jobs"
	"vocabpipe/internal/metrics"
	"vocabpipe/internal/obs"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/tune"
)

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// recorded when the client disconnected before the response was computed.
// The client never sees it — it exists for logs and tests.
const StatusClientClosedRequest = 499

// Options tunes a Server.
type Options struct {
	// CacheSize is the total cached grid count (default 256). The
	// request-identity index in front of the cache holds as many targets.
	CacheSize int
	// Parallel is the sweep worker count per computed grid (default
	// GOMAXPROCS, the sweep engine's own default).
	Parallel int
	// MaxCells rejects grids that expand past this many cells with 400
	// (default 4096) — the serving layer's oversized-request guard. Each
	// cell's microbatch and device counts are bounded by tune.MaxMicro (4096)
	// and tune.MaxDevices (1024): cells × microbatches × devices is the real
	// work a request buys, and cell count alone does not cap it.
	MaxCells int
	// JobWorkers and JobCapacity size the async tuner-job queue (defaults 2
	// and 64): at most JobWorkers searches run concurrently, and past
	// JobCapacity pending submissions POST /api/v1/optimize answers 429.
	JobWorkers  int
	JobCapacity int
	// MaxInFlight bounds the computes running at once for the synchronous
	// compute endpoints (default 64); cache hits and coalesced requests take
	// no slot. AdmitQueue bounds how many more computes may wait for a slot
	// (default 4×MaxInFlight; negative disables waiting — every overflow
	// sheds immediately). Past both, the compute is shed and its requests
	// get 429 + Retry-After.
	MaxInFlight int
	AdmitQueue  int
	// Cluster, when non-nil, makes the server a coordinator: shardable
	// multi-cell grids are dispatched across the worker pool (seeded by
	// Cluster.Workers, which may be empty) instead of being evaluated
	// in-process. A zero Cluster.LocalParallel takes Parallel.
	Cluster *cluster.Options
	// JobStore, when non-nil, makes optimize jobs durable: submissions,
	// progress and results write through to it, and a new server over the
	// same store resumes queued jobs, re-runs ones that died mid-run and
	// still serves finished results. The caller owns the store's lifecycle
	// (close it AFTER Server.Close so the shutdown persistence lands).
	JobStore *jobs.FileStore
	// SSEHeartbeat is the idle keep-alive interval on the job event stream
	// (GET /api/v1/jobs/{id}/events): a comment line flushed so intermediaries
	// do not reap a quiet connection (default 15s).
	SSEHeartbeat time.Duration
	// Logf receives server-side error logs that have no response channel
	// left — encode/write failures on responses already in flight — plus
	// the slow-request log. Lines carry the request's route and trace ID.
	// Default log.Printf; tests inject a recorder.
	Logf func(format string, args ...any)
	// TraceCapacity sizes the completed-trace ring buffer behind
	// GET /api/v1/debug/traces (default 256; negative disables tracing
	// entirely — no spans, no X-Trace-Id, 409 on the debug endpoints).
	TraceCapacity int
	// Tracer overrides the tracer built from TraceCapacity — tests inject
	// one with a fixed clock and deterministic IDs.
	Tracer *obs.Tracer
	// SlowRequest logs any request slower than this through Logf, with its
	// route, status and trace ID (0 disables; vpserve defaults it to 1s).
	SlowRequest time.Duration
	// Debug mounts net/http/pprof at /debug/pprof/ — admission-bypassing
	// like /metrics, because profiling a saturated server is the point.
	Debug bool
}

// Server holds the handler state. Construct with New; Close releases the
// job queue when the server is retired.
type Server struct {
	opt      Options
	cache    *cache.Cache[[]byte] // encoded response bodies
	index    *cache.Cache[string] // GET request target → canonical cache key
	jobs     *jobs.Queue
	cluster  *cluster.Dispatcher // non-nil in coordinator mode
	admit    *admitter
	tracer   *obs.Tracer // nil when Options.TraceCapacity < 0
	start    time.Time
	requests atomic.Int64

	// Observability spine (see metrics.go): the registry behind GET
	// /metrics plus the instruments the HTTP middleware updates inline.
	metrics   *metrics.Registry
	httpReqs  *metrics.CounterVec   // route, code class
	httpDur   *metrics.HistogramVec // route
	sseActive *metrics.Gauge
	admitWait *metrics.Histogram // queued time of admitted requests
	resolved  *metrics.Counter   // GETs whose key came from the index
}

// New returns a Server with defaults applied.
func New(opt Options) *Server {
	if opt.CacheSize <= 0 {
		opt.CacheSize = 256
	}
	if opt.MaxCells <= 0 {
		opt.MaxCells = 4096
	}
	if opt.MaxInFlight <= 0 {
		opt.MaxInFlight = 64
	}
	switch {
	case opt.AdmitQueue < 0:
		opt.AdmitQueue = 0 // shed immediately once the slots are full
	case opt.AdmitQueue == 0:
		opt.AdmitQueue = 4 * opt.MaxInFlight
	}
	if opt.SSEHeartbeat <= 0 {
		opt.SSEHeartbeat = 15 * time.Second
	}
	if opt.Logf == nil {
		opt.Logf = log.Printf
	}
	s := &Server{
		opt:   opt,
		cache: cache.New[[]byte](opt.CacheSize),
		index: cache.New[string](opt.CacheSize),
		admit: newAdmitter(opt.MaxInFlight, opt.AdmitQueue),
		start: time.Now(),
	}
	switch {
	case opt.Tracer != nil:
		s.tracer = opt.Tracer
	case opt.TraceCapacity >= 0:
		s.tracer = obs.NewTracer(obs.Options{Capacity: opt.TraceCapacity, Service: "vpserve"})
	}
	if opt.Cluster != nil {
		// The dispatcher's in-process sweeps use the same per-grid
		// parallelism the server's own sweeps would.
		copt := *opt.Cluster
		if copt.LocalParallel == 0 {
			copt.LocalParallel = opt.Parallel
		}
		s.cluster = cluster.New(copt)
	}
	// The queue comes AFTER the dispatcher: replaying the store may resume
	// optimize jobs immediately, and their rehydrated search functions must
	// shard their candidate batches through the coordinator's dispatcher,
	// not a nil cluster.
	s.jobs = jobs.New(jobs.Options{
		Workers:   opt.JobWorkers,
		Capacity:  opt.JobCapacity,
		Store:     opt.JobStore,
		Rehydrate: s.rehydrateOptimize,
	})
	s.initMetrics()
	return s
}

// Cluster returns the coordinator's dispatcher, or nil outside coordinator
// mode. Callers use it for health probing and dispatch statistics.
func (s *Server) Cluster() *cluster.Dispatcher { return s.cluster }

// Close cancels every queued or running tuner job and waits for the job
// workers to drain (bounded by ctx). The HTTP listener is the caller's to
// shut down; Close owns only the server's background work.
func (s *Server) Close(ctx context.Context) error {
	return s.jobs.Close(ctx)
}

// Handler returns the routing handler for the API, wrapped in the metrics
// middleware: every request increments the per-route counter with its
// status class and lands its wall time in the per-route latency histogram.
// The route label is the registered mux pattern (bounded cardinality), not
// the raw URL.
//
// API routes register under /api/v1 only. An unversioned /api/... request
// resolves to no route and answers an enveloped 404 (ErrUnversionedPath)
// whose details.path names the /api/v1 route.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /dashboard", s.handleDashboard)
	if s.opt.Debug {
		// No method in the patterns: pprof's symbol endpoint accepts POST.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /api/v1/sweep", s.gridRoute("sweep", s.sweepGrid))
	mux.HandleFunc("GET /api/v1/schedule", s.gridRoute("schedule", s.scheduleGrid))
	mux.HandleFunc("GET /api/v1/experiments/{name}", s.gridRoute("experiment", experimentGrid))
	mux.HandleFunc("POST /api/v1/shard", s.handleShard)
	mux.HandleFunc("POST /api/v1/cluster/join", s.handleClusterJoin)
	mux.HandleFunc("POST /api/v1/optimize", s.handleOptimize)
	mux.HandleFunc("GET /api/v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /api/v1/debug/traces", s.handleTraceList)
	mux.HandleFunc("GET /api/v1/debug/traces/{id}", s.handleTraceGet)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		route, pattern := routeLabel(mux, r)
		ctx := context.WithValue(r.Context(), routeCtxKey{}, route)
		sw := &statusWriter{ResponseWriter: w}
		// API requests open the trace's root span; its ID is on the response
		// before the handler runs, so even a shed 429 is correlatable. An
		// incoming traceparent (a coordinator's shard attempt) adopts the
		// remote trace so worker spans nest under it across processes.
		var sp *obs.Span
		if s.tracer != nil && traced(r.URL.Path) {
			var parent obs.SpanContext
			if v := r.Header[traceParentKey]; len(v) > 0 {
				parent, _ = obs.ParseTraceParent(v[0])
			}
			sp = s.tracer.StartRoot(rootSpanName(r.Method, pattern, route), parent)
			sp.SetAttr("route", route)
			sw.traceID[0] = sp.TraceID().String()
			w.Header()["X-Trace-Id"] = sw.traceID[:]
			ctx = obs.ContextWithSpan(ctx, sp)
		}
		r = r.WithContext(ctx)
		start := time.Now()
		if rest, ok := strings.CutPrefix(r.URL.Path, "/api/"); ok && route == "other" &&
			rest != "v1" && !strings.HasPrefix(rest, "v1/") {
			v1 := "/api/v1/" + rest
			s.writeError(sw, r, http.StatusNotFound, ErrUnversionedPath, map[string]any{"path": v1},
				"unversioned API path %s: use %s", r.URL.Path, v1)
		} else {
			mux.ServeHTTP(sw, r)
		}
		elapsed := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if sp != nil {
			sp.SetAttr("status", statusAttr(status))
			sp.End()
		}
		s.httpReqs.With(route, statusClass(sw.status)).Inc()
		s.httpDur.With(route).Observe(elapsed.Seconds())
		if s.opt.SlowRequest > 0 && elapsed >= s.opt.SlowRequest {
			s.logf(r, "slow request: %s %s -> %d in %s",
				r.Method, r.URL.Path, status, elapsed.Round(time.Millisecond))
		}
	})
}

// CacheStats snapshots the result cache counters (exported for the load
// harness and perfbench).
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// Health is the /healthz response body.
type Health struct {
	Status string `json:"status"`
	// Role is "single" or "coordinator" (a worker is just a single-node
	// server another vpserve points at).
	Role     string      `json:"role"`
	UptimeS  float64     `json:"uptime_s"`
	Requests int64       `json:"requests"`
	Cache    cache.Stats `json:"cache"`
	// CacheHitRatePct duplicates Cache's derived rate so scrapers need no
	// arithmetic.
	CacheHitRatePct float64 `json:"cache_hit_rate_pct"`
	// Workers and Dispatch report the worker pool's health and the shard
	// fan-out counters in coordinator mode; absent otherwise.
	Workers  []cluster.WorkerHealth `json:"workers,omitempty"`
	Dispatch *cluster.Stats         `json:"dispatch,omitempty"`
	// Jobs reports the async queue's depth and lifecycle counters.
	Jobs jobs.Stats `json:"jobs"`
	// Admission reports the compute-endpoint admission controller: in-flight
	// slots, queue depth and shed totals.
	Admission AdmissionStats `json:"admission"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	h := Health{
		Status:          "ok",
		Role:            "single",
		UptimeS:         time.Since(s.start).Seconds(),
		Requests:        s.requests.Load(),
		Cache:           st,
		CacheHitRatePct: st.HitRatePct(),
		Jobs:            s.jobs.Stats(),
		Admission:       s.admit.stats(),
	}
	if s.cluster != nil {
		h.Role = "coordinator"
		h.Workers = s.cluster.Health()
		ds := s.cluster.Stats()
		h.Dispatch = &ds
	}
	// Encode into a buffer first: an encode failure can still become a 500
	// (nothing has been written to the wire yet) instead of a silent
	// half-response with an implicit 200.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(h); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, ErrInternal, nil, "encoding health: %v", err)
		return
	}
	s.writeBody(w, r, http.StatusOK, "healthz", buf.Bytes())
}

// reqError is a request refused before any work is done for it: the status
// and envelope fields writeError sends.
type reqError struct {
	status  int
	code    ErrCode
	msg     string
	details map[string]any
}

// badRequest builds a 400 reqError.
func badRequest(code ErrCode, details map[string]any, format string, args ...any) *reqError {
	return &reqError{http.StatusBadRequest, code, fmt.Sprintf(format, args...), details}
}

// writeReqError answers e in the uniform envelope.
func (s *Server) writeReqError(w http.ResponseWriter, r *http.Request, e *reqError) {
	s.writeError(w, r, e.status, e.code, e.details, "%s", e.msg)
}

// checkGrid applies the serving-layer size guards to a parsed grid without
// expanding it, returning a non-nil rejection when the request must be
// refused. The cell count is Grid.NumCells, which saturates instead of
// wrapping, so no cell of an oversized grid is ever built. The microbatch
// and device caps are per cell, but seq, vocab and method never change a
// cell's NumMicro or Devices: an axes grid is checked config by config, and
// the rejection names the config's first cell, the first offending cell in
// expansion order. Explicit-cell grids (shard bodies) are checked cell by
// cell.
func (s *Server) checkGrid(g *sweep.Grid) *reqError {
	n := g.NumCells()
	if n > s.opt.MaxCells {
		return badRequest(ErrTooManyCells, map[string]any{"cells": n, "limit": s.opt.MaxCells},
			"grid expands to %d cells, limit %d", n, s.opt.MaxCells)
	}
	if n == 0 {
		return nil
	}
	if len(g.Cells) > 0 {
		for i := range g.Cells {
			if e := s.checkCell(g.Cells[i].Label, g.Cells[i].Config); e != nil {
				return e
			}
		}
		return nil
	}
	for _, cfg := range g.Configs {
		if cfg.NumMicro <= tune.MaxMicro && cfg.Devices <= tune.MaxDevices {
			continue
		}
		if len(g.Seqs) > 0 {
			cfg = cfg.WithSeq(g.Seqs[0])
		}
		if len(g.Vocabs) > 0 {
			cfg = cfg.WithVocab(g.Vocabs[0])
		}
		return s.checkCell(sweep.CellLabel(cfg, g.Methods[0]), cfg)
	}
	return nil
}

// checkCell applies the per-cell microbatch and device caps to one cell.
func (s *Server) checkCell(label string, cfg costmodel.Config) *reqError {
	if m := cfg.NumMicro; m > tune.MaxMicro {
		return badRequest(ErrTooManyMicro, map[string]any{"cell": label, "micro": m, "limit": tune.MaxMicro},
			"cell %q asks for %d microbatches, limit %d", label, m, tune.MaxMicro)
	}
	if d := cfg.Devices; d > tune.MaxDevices {
		return badRequest(ErrTooManyDevices, map[string]any{"cell": label, "devices": d, "limit": tune.MaxDevices},
			"cell %q asks for %d devices, limit %d", label, d, tune.MaxDevices)
	}
	return nil
}

// gridParser turns a compute-route GET into its validated grid, or into the
// client error that refuses it. It reads only the request target (path and
// query), so one target always parses to the same grid or the same error.
type gridParser func(r *http.Request) (*sweep.Grid, *reqError)

// gridRoute serves a GET compute route through the request-identity index.
// The request target — escaped path, "?", raw query — is the request's
// identity: its canonical cache key is a pure function of it, because
// parsing, the experiment registry and the model zoo are fixed. The path is
// the escaped one because a decoded path can hold a '?' (sent as %3F), and
// then two different requests could spell one target. A target seen before
// resolves its key with one short-key index lookup and goes straight to
// respond; its grid is parsed only inside the compute closure, when the
// body was evicted and must be recomputed. A new target is parsed,
// validated and keyed as before, then remembered. Entries are only ever
// added for requests that validated, so no 4xx leaves one, and only when the
// target is no longer than its key, so the index never holds more bytes
// than the keys it points at: a padded target just takes the parsing path
// every time. The index is an LRU as large as the body cache. POST
// /api/v1/shard is never indexed — its grid is in the body, so one target
// stands for many grids.
func (s *Server) gridRoute(route string, parse gridParser) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		target := r.URL.EscapedPath() + "?" + r.URL.RawQuery
		if key, ok := s.index.Get(target); ok {
			s.resolved.Inc()
			// The compute closure may run on the cache's goroutine after this
			// handler returns (a coalesced waiter keeps it alive); parse reads
			// only r's URL and path values, which nothing writes after routing.
			s.respond(w, r, route, key, func() (*sweep.Grid, error) {
				g, e := parse(r)
				if e != nil {
					// Unreachable while parsing is a pure function of the target.
					return nil, fmt.Errorf("indexed request no longer parses: %s", e.msg)
				}
				return g, nil
			})
			return
		}
		g, e := parse(r)
		if e != nil {
			s.writeReqError(w, r, e)
			return
		}
		key := cacheKey(route, g)
		if len(target) <= len(key) {
			s.index.Put(target, key)
		}
		s.respond(w, r, route, key, func() (*sweep.Grid, error) { return g, nil })
	}
}

// cacheKey is g's result-cache key: the canonical grid key behind a route
// prefix, so two routes can never alias each other's entries.
func cacheKey(route string, g *sweep.Grid) string { return route + "|" + g.Key() }

// respond writes the body cached under key (see cacheKey), computing it on a
// miss from the grid that grid returns — exactly the records `vpbench -json`
// prints for it. The cache holds the encoded body, so only a miss encodes;
// hits and deduplicated waiters write the stored bytes. grid runs only on a
// miss, inside the compute closure, so a request that resolved its key
// through the index never parses its grid unless the body must be
// recomputed. The request context flows into the computation: a disconnected
// client cancels in-flight simulation work at the next cell boundary —
// unless other requests are coalesced onto the same key, in which case the
// sweep continues with their interest and a partial result is never cached.
//
// Admission control guards computes, not requests: the compute closure takes
// an admission slot before it sweeps, so only the leader of a miss waits in
// the accept queue or is shed. A hit or a coalesced waiter answers from the
// cache without touching the admitter, so a warmed key stays fast through an
// overload of cold traffic. A shed is the compute's error; respond answers
// it, for the leader and every coalesced waiter alike, with 429 +
// Retry-After.
//
// In coordinator mode the cluster dispatcher computes the records, across
// the worker pool for shardable multi-cell grids; the merged records encode
// into the same cache under the same key, so coordinator and single-node
// responses are interchangeable byte for byte. The shard route itself always
// computes locally — a worker never re-shards its shard.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, route, key string, grid func() (*sweep.Grid, error)) {
	// The lookup span covers the whole DoCtx window — on a hit it is a map
	// lookup of the stored body, on a miss it contains the compute span.
	lsp := obs.ChildSpan(r.Context(), "cache.lookup")

	// Admission, the grid and the dispatch decision live inside the compute
	// closure, so cache hits pay for none of them. The closure returns the
	// encoded body, so a miss encodes once and every later hit writes the
	// stored bytes as they are.
	compute := func(ctx context.Context) ([]byte, error) {
		// The cache runs compute on a DETACHED context (refcounted by every
		// coalesced caller) — bridge the two lineages: cancellation from the
		// cache's ctx, trace parentage from this request's lookup span. The
		// context carrying the lookup span is for parentage only, so only a
		// miss builds it.
		csp := obs.ChildSpan(obs.ContextWithSpan(r.Context(), lsp), "compute")
		defer csp.End()
		ctx = obs.ContextWithSpan(ctx, csp)
		// The queue wait uses the detached context too, so a queued compute
		// is abandoned only when its last waiter leaves.
		release, err := s.admitCompute(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		g, err := grid()
		if err != nil {
			return nil, err
		}
		recs, err := s.records(ctx, route, g)
		if err != nil {
			return nil, err
		}
		return encodeRecords(recs)
	}
	body, outcome, err := s.cache.DoCtx(r.Context(), key, compute)
	lsp.SetAttr("outcome", outcomeHeader(outcome))
	if err != nil {
		lsp.SetAttr("error", err.Error())
	}
	lsp.End()
	if err != nil {
		var shed *shedError
		switch {
		case r.Context().Err() != nil || errors.Is(err, context.Canceled):
			// The client is gone; nobody reads this response. Record the
			// outcome for logs/tests and stop.
			w.WriteHeader(StatusClientClosedRequest)
		case errors.As(err, &shed):
			w.Header().Set("Retry-After", strconv.Itoa(shed.retryAfterS))
			s.writeError(w, r, http.StatusTooManyRequests, ErrShedOverload,
				map[string]any{"in_flight": shed.inFlight, "queued": shed.queued, "queue_capacity": shed.queueCapacity},
				"%s", shed.Error())
		default:
			s.writeError(w, r, http.StatusInternalServerError, ErrInternal, nil, "%v", err)
		}
		return
	}
	w.Header().Set("X-Cache", outcomeHeader(outcome))
	s.writeBody(w, r, http.StatusOK, route, body)
}

// admitCompute takes an admission slot for the compute running under ctx,
// recording the wait as an admission span under ctx's compute span. It
// returns the slot's release, or the admitter's error: a *shedError, or
// ctx's error when every waiter left while the compute queued.
func (s *Server) admitCompute(ctx context.Context) (func(), error) {
	asp := obs.ChildSpan(ctx, "admission")
	defer asp.End()
	release, waited, err := s.admit.admit(ctx)
	var shed *shedError
	switch {
	case err == nil:
		asp.SetAttr("outcome", "admitted")
		s.admitWait.Observe(waited.Seconds())
	case errors.As(err, &shed):
		asp.SetAttr("outcome", "shed")
	default:
		asp.SetAttr("outcome", "client_gone")
	}
	return release, err
}

// records computes g's records: through a coordinator's dispatcher, which
// decides between the pool and the process, for any route but the shard
// route; in process otherwise. ctx carries the compute span, whose path
// attribute names the way taken: the dispatcher sets it for the grids it
// gets, and records for the rest.
func (s *Server) records(ctx context.Context, route string, g *sweep.Grid) ([]report.Record, error) {
	if s.cluster != nil && route != "shard" {
		return s.cluster.Records(ctx, g, nil)
	}
	obs.SpanFromContext(ctx).SetAttr("path", "local")
	return sweep.Records(ctx, g, s.opt.Parallel, nil)
}

// encodeRecords renders records exactly as `vpbench -json` does, into a
// slice of exactly the body's size: it is what the cache holds, and every
// response for the key writes it unchanged.
func encodeRecords(recs []report.Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, recs); err != nil {
		return nil, fmt.Errorf("encoding records: %w", err)
	}
	return append(make([]byte, 0, buf.Len()), buf.Bytes()...), nil
}

// writeBody writes a complete JSON body with its status and Content-Length
// in one Write. what names the response in the log line a failed write
// leaves: the response is already in flight, so the log is all that's left.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, status int, what string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.logf(r, "%s: writing response: %v", what, err)
	}
}

// writeJSON encodes v as one compact JSON line (json.Encoder's format) and
// writes it through writeBody. The body is staged before anything reaches
// the wire, so an encode failure still becomes an enveloped 500.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, what string, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, ErrInternal, nil, "encoding %s: %v", what, err)
		return
	}
	s.writeBody(w, r, status, what, append(body, '\n'))
}

func outcomeHeader(o cache.Outcome) string {
	switch o {
	case cache.Hit:
		return "hit"
	case cache.Deduped:
		return "deduped"
	default:
		return "miss"
	}
}

// sweepGrid parses GET /api/v1/sweep?grid=SPEC.
func (s *Server) sweepGrid(r *http.Request) (*sweep.Grid, *reqError) {
	spec := r.URL.Query().Get("grid")
	if spec == "" {
		return nil, badRequest(ErrMissingParameter, map[string]any{"parameter": "grid"},
			"missing required query parameter %q (sweep.ParseGrid syntax, e.g. grid=model=4B;method=1f1b)", "grid")
	}
	g, err := sweep.ParseGrid(spec)
	if err != nil {
		return nil, badRequest(ErrInvalidGrid, nil, "%v", err)
	}
	if e := s.checkGrid(g); e != nil {
		return nil, e
	}
	return g, nil
}

// scheduleGrid parses GET /api/v1/schedule: one (config, method) cell with
// optional seq, vocab, micro and devices overrides — the single-schedule
// view of the same engine.
func (s *Server) scheduleGrid(r *http.Request) (*sweep.Grid, *reqError) {
	q := r.URL.Query()
	cfgName := q.Get("config")
	methodName := q.Get("method")
	if cfgName == "" || methodName == "" {
		return nil, badRequest(ErrMissingParameter, nil, "config and method query parameters are required")
	}
	cfg, ok := costmodel.ConfigByName(cfgName)
	if !ok {
		return nil, badRequest(ErrInvalidParameter, map[string]any{"parameter": "config"},
			"unknown config %q (want 4B, 10B, 21B, 7B, 16B or 30B)", cfgName)
	}
	m, ok := sim.MethodByName(methodName)
	if !ok {
		return nil, badRequest(ErrInvalidParameter, map[string]any{"parameter": "method"},
			"unknown method %q (want one of %v)", methodName, sim.AllMethods)
	}
	for _, p := range []struct {
		name  string
		apply func(int)
	}{
		{"seq", func(v int) { cfg = cfg.WithSeq(v) }},
		{"vocab", func(v int) { cfg = cfg.WithVocab(v) }},
		{"micro", func(v int) { cfg.NumMicro = v }},
		{"devices", func(v int) { cfg.Devices = v }},
	} {
		raw := q.Get(p.name)
		if raw == "" {
			continue
		}
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			return nil, badRequest(ErrInvalidParameter, map[string]any{"parameter": p.name},
				"bad %s %q (want a positive integer)", p.name, raw)
		}
		p.apply(v)
	}
	g := &sweep.Grid{Name: "schedule", Configs: []costmodel.Config{cfg}, Methods: []sim.Method{m}}
	if e := s.checkGrid(g); e != nil {
		return nil, e
	}
	return g, nil
}

// experimentGrid resolves GET /api/v1/experiments/{name} to its paper grid.
func experimentGrid(r *http.Request) (*sweep.Grid, *reqError) {
	name := r.PathValue("name")
	gridFn, ok := experiments.Grid(name)
	if !ok {
		return nil, &reqError{http.StatusNotFound, ErrUnknownExperiment,
			fmt.Sprintf("unknown experiment %q (grid-backed experiments: %s)", name, strings.Join(experiments.Names(), ", ")),
			map[string]any{"name": name}}
	}
	return gridFn(), nil
}

// joinRequest is the POST /api/v1/cluster/join input; the url query
// parameter overrides the body (same precedence as optimize).
type joinRequest struct {
	URL string `json:"url"`
}

// joinResponse confirms a join or heartbeat: the canonical member URL, and
// whether this call added it to the pool (false = it was already active
// and the call was a liveness refresh).
type joinResponse struct {
	URL     string `json:"url"`
	Added   bool   `json:"added"`
	Members int    `json:"members"`
}

// handleClusterJoin registers (or heartbeats) a worker in the coordinator's
// member pool. Workers call it on startup and every -heartbeat-every; a
// member that stops calling it is expired out of placement once it
// has also been silent to the prober past the member TTL.
func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.writeError(w, r, http.StatusConflict, ErrNotCoordinator, nil,
			"this server is not a coordinator (start it with -role coordinator to accept joins)")
		return
	}
	var req joinRequest
	if r.Body != nil {
		body := http.MaxBytesReader(w, r.Body, 4<<10)
		if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			s.writeError(w, r, http.StatusBadRequest, ErrInvalidBody, nil, "bad JSON body: %v", err)
			return
		}
	}
	if v := r.URL.Query().Get("url"); v != "" {
		req.URL = v
	}
	if req.URL == "" {
		s.writeError(w, r, http.StatusBadRequest, ErrMissingParameter, map[string]any{"parameter": "url"},
			`missing worker url (JSON body {"url":"http://host:port"} or ?url=)`)
		return
	}
	u, added, err := s.cluster.Join(req.URL)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, ErrInvalidParameter, map[string]any{"parameter": "url"}, "%v", err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, "cluster/join", joinResponse{URL: u, Added: added, Members: s.cluster.Stats().Members})
}

// handleShard is the worker side of distributed mode: evaluate one
// materialized slice of a grid's expansion order and return its records.
// It reuses the full respond pipeline — result cache (identical shards from
// any coordinator coalesce under the sub-grid's canonical key), singleflight
// dedup, context propagation (a coordinator that cancels or retries away
// stops the sweep at the next cell boundary) — and the same size guards as
// every other endpoint, so a worker cannot be handed more work per shard
// than it would accept as a direct request.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	// Shard bodies carry materialized cells: MaxCells × ~200 bytes is well
	// under this cap, so anything larger is not a well-formed coordinator.
	body := http.MaxBytesReader(w, r.Body, 4<<20)
	var req cluster.ShardRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, ErrInvalidBody, nil, "bad shard body: %v", err)
		return
	}
	g, err := req.ToGrid()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, ErrInvalidGrid, nil, "%v", err)
		return
	}
	if e := s.checkGrid(g); e != nil {
		s.writeReqError(w, r, e)
		return
	}
	s.respond(w, r, "shard", cacheKey("shard", g), func() (*sweep.Grid, error) { return g, nil })
}

// optimizeRequest is an optimize submission. It is the POST
// /api/v1/optimize input — query parameters and the JSON body carry the
// same fields; query parameters win — and, with the strategy resolved, the
// durable payload a restarted server rebuilds the search from. The raw spec
// string (not the parsed structure) is persisted: re-parsing it is exactly
// how the original submission built the search, so the re-run is the same
// search.
type optimizeRequest struct {
	// Spec is an inline tuning-constraint spec (tune.ParseSpec syntax).
	Spec string `json:"spec,omitempty"`
	// Scenario names a curated tuning scenario (internal/experiments).
	Scenario string `json:"scenario,omitempty"`
	// Strategy is exhaustive, beam (default) or anneal.
	Strategy string `json:"strategy,omitempty"`
}

// resolve turns a submission into its validated search: the spec (inline,
// or the named scenario's) and the strategy (tune's default when none is
// named). A refusal carries the envelope a fresh submission is answered
// with; a rehydrated one fails its job with the message.
func (req optimizeRequest) resolve() (*tune.Spec, tune.Strategy, *reqError) {
	var spec *tune.Spec
	switch {
	case req.Spec != "" && req.Scenario != "":
		return nil, "", badRequest(ErrInvalidParameter, nil, "spec and scenario are mutually exclusive")
	case req.Spec != "":
		var err error
		if spec, err = tune.ParseSpec(req.Spec); err != nil {
			return nil, "", badRequest(ErrInvalidSpec, nil, "%v", err)
		}
	case req.Scenario != "":
		var ok bool
		if spec, ok = experiments.TuneSpec(req.Scenario); !ok {
			return nil, "", badRequest(ErrInvalidParameter, map[string]any{"parameter": "scenario"},
				"unknown scenario %q (want one of %s)", req.Scenario, strings.Join(experiments.TuneNames(), ", "))
		}
	default:
		return nil, "", badRequest(ErrMissingParameter, nil,
			"provide spec=... (tune.ParseSpec syntax) or scenario=... (named scenarios: %s)",
			strings.Join(experiments.TuneNames(), ", "))
	}
	strategy, ok := tune.StrategyByName(req.Strategy)
	if !ok {
		return nil, "", badRequest(ErrInvalidParameter, map[string]any{"parameter": "strategy"},
			"unknown strategy %q (want one of %v)", req.Strategy, tune.Strategies())
	}
	if err := spec.Validate(); err != nil {
		return nil, "", badRequest(ErrInvalidSpec, nil, "%v", err)
	}
	return spec, strategy, nil
}

// optimizeJob is the traced search job a resolved submission runs, and its
// name. Fresh and rehydrated submissions alike run this configuration: in
// coordinator mode each candidate batch shards over the worker pool through
// the cluster's Records, like any grid. submitCtx is the submitting
// request's context, which links the job's trace back to it.
func (s *Server) optimizeJob(submitCtx context.Context, spec *tune.Spec, strategy tune.Strategy) (string, jobs.Func) {
	topt := tune.Options{Parallel: s.opt.Parallel}
	if s.cluster != nil {
		topt.Records = s.cluster.Records
	}
	name := "optimize/" + spec.Name + "/" + string(strategy)
	return name, s.traceJob(name, submitCtx, tuneJob(spec, strategy, topt))
}

// rehydrateOptimize rebuilds an optimize job's search function from its
// persisted payload after a restart, through the resolver a fresh
// submission takes. The payload was validated at submit time, so failures
// here mean the durable state predates a breaking change (or was tampered
// with) — the job settles as failed with the reason.
func (s *Server) rehydrateOptimize(payload json.RawMessage) (jobs.Func, error) {
	var req optimizeRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("bad optimize payload: %w", err)
	}
	spec, strategy, e := req.resolve()
	if e != nil {
		return nil, errors.New(e.msg)
	}
	// Rehydrated runs trace like fresh ones; the submitting request's trace
	// is long gone after a restart, so there is no submit_trace link.
	_, fn := s.optimizeJob(context.Background(), spec, strategy)
	return fn, nil
}

// jobView is the ONE canonical job representation: every job-bearing
// response — GET /api/v1/jobs, GET /api/v1/jobs/{id}, DELETE, the optimize
// 202 body and each SSE data frame — serializes exactly this shape, the
// jobs.Snapshot fields plus the v1 poll/events URLs. Clients parse one
// schema no matter where a job surfaces.
type jobView struct {
	jobs.Snapshot
	Poll   string `json:"poll"`
	Events string `json:"events"`
}

func viewJob(snap jobs.Snapshot) jobView {
	base := "/api/v1/jobs/" + snap.ID
	return jobView{Snapshot: snap, Poll: base, Events: base + "/events"}
}

// checkTuneSpec applies the serving layer's cell cap to a tuning space,
// mirroring checkGrid: like checkGrid inspecting expanded cells, it counts
// the *defaulted* spec's candidates — the ones a search will actually
// evaluate — so an omitted axis cannot smuggle a larger space past the cap.
// Microbatch and device counts need no check here: spec.Validate, which
// resolve runs first, bounds them by tune.MaxMicro and tune.MaxDevices.
func (s *Server) checkTuneSpec(spec *tune.Spec) *reqError {
	if size := spec.Defaulted().SpaceSize(); size > s.opt.MaxCells {
		return badRequest(ErrTooManyCells, map[string]any{"candidates": size, "limit": s.opt.MaxCells},
			"search space has %d candidates, limit %d", size, s.opt.MaxCells)
	}
	return nil
}

// handleOptimize submits a tuner search as an async job and answers 202
// with the job id — the search itself may take far longer than any client
// timeout, so it never holds the request open.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req optimizeRequest
	if r.Body != nil {
		// The only POST route gets the same oversized-request posture as the
		// GET guards: no valid spec is anywhere near 64 KiB.
		body := http.MaxBytesReader(w, r.Body, 64<<10)
		if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			s.writeError(w, r, http.StatusBadRequest, ErrInvalidBody, nil, "bad JSON body: %v", err)
			return
		}
	}
	q := r.URL.Query()
	for _, p := range []struct {
		name string
		dst  *string
	}{{"spec", &req.Spec}, {"scenario", &req.Scenario}, {"strategy", &req.Strategy}} {
		if v := q.Get(p.name); v != "" {
			*p.dst = v
		}
	}

	spec, strategy, e := req.resolve()
	if e != nil {
		s.writeReqError(w, r, e)
		return
	}
	if e := s.checkTuneSpec(spec); e != nil {
		s.writeReqError(w, r, e)
		return
	}

	// The job runs detached from the submitting request on purpose: the
	// whole point of the queue is that the client disconnects and polls.
	// A coordinator shards each of the search's candidate batches over its
	// worker pool (retry/hedging/fallback included). With a JobStore
	// configured, this job — and its result — survives a coordinator
	// restart: the request is its rehydration payload.
	name, fn := s.optimizeJob(r.Context(), spec, strategy)
	id, err := s.jobs.Submit(name,
		optimizeRequest{Spec: req.Spec, Scenario: req.Scenario, Strategy: string(strategy)}, fn)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		// writeError fills in the Retry-After floor for 429s.
		s.writeError(w, r, http.StatusTooManyRequests, ErrQueueFull,
			map[string]any{"queued": s.jobs.Stats().Queued}, "job queue full, retry later")
		return
	case errors.Is(err, jobs.ErrClosed):
		s.writeError(w, r, http.StatusServiceUnavailable, ErrShuttingDown, nil, "server shutting down")
		return
	case err != nil:
		s.writeError(w, r, http.StatusInternalServerError, ErrInternal, nil, "%v", err)
		return
	}

	// The submit trace names the job it spawned — the reverse half of the
	// submit_trace link the job's own root trace carries.
	obs.SpanFromContext(r.Context()).SetAttr("job_id", id)

	// The snapshot may already show the job past StateQueued (a free worker
	// picks up instantly); the 202 body reports whatever is true now, in the
	// same canonical schema every other job response uses.
	snap, _ := s.jobs.Get(id)
	view := viewJob(snap)
	w.Header().Set("Location", view.Poll)
	s.writeJSON(w, r, http.StatusAccepted, "optimize", view)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	snaps := s.jobs.List()
	views := make([]jobView, len(snaps))
	for i, snap := range snaps {
		views[i] = viewJob(snap)
	}
	s.writeJSON(w, r, http.StatusOK, "jobs", views)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, r, http.StatusNotFound, ErrJobNotFound, map[string]any{"id": r.PathValue("id")},
			"unknown job %q", r.PathValue("id"))
		return
	}
	s.writeJSON(w, r, http.StatusOK, "job", viewJob(snap))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		s.writeError(w, r, http.StatusNotFound, ErrJobNotFound, map[string]any{"id": r.PathValue("id")},
			"unknown job %q", r.PathValue("id"))
		return
	}
	s.writeJSON(w, r, http.StatusOK, "job cancel", viewJob(snap))
}
