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
// trace ID is returned in the X-Trace-Id response header; admission wait,
// cache lookup, compute, cluster dispatch and per-shard attempts are child
// spans, and shard requests carry a traceparent header so worker-side spans
// parent under the coordinator's attempt across processes. Completed traces
// sit in a bounded ring buffer exported by the debug endpoints. With
// Options.Debug, net/http/pprof mounts at /debug/pprof/.
//
// Every job-bearing response — the jobs list, a job poll, the optimize 202
// body and each SSE data frame — serializes the one canonical job schema
// (jobView): the jobs.Snapshot fields plus poll/events URLs.
//
// Admission control: the synchronous compute endpoints (sweep, schedule,
// experiments, shard) pass through a bounded in-flight semaphore with a
// bounded two-class accept queue (admission.go). Requests whose cache key is
// already resident or in flight are "cheap" and admitted ahead of cold
// computes; when the queue is full the request is shed with 429 +
// Retry-After. /healthz, /metrics and the job endpoints bypass admission —
// observability and queue management must keep answering precisely when the
// server is saturated.
//
// Distributed mode: when Options.Cluster names seed workers (or allows
// dynamic join-only membership), the server is a coordinator — shardable
// grids on the synchronous endpoints (and tuner candidate evaluations) fan
// out across the member pool through internal/cluster and merge back in
// deterministic cell order, so the response stays byte-identical to a
// single-node run. Membership is dynamic: workers register and heartbeat
// via POST /api/v1/cluster/join, silent members are expired by the prober,
// and shard placement is cache-affine consistent hashing. Every server
// answers POST /api/v1/shard (shard evaluation is always local — a worker
// never re-shards), so any vpserve instance can serve as a worker. With
// Options.JobStore set, optimize jobs are durable across restarts.
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
	// (default 4096) — the serving layer's oversized-request guard.
	MaxCells int
	// MaxDevices bounds the per-cell device count a request may ask for
	// (default 1024); microbatches are bounded by tune.MaxMicro (4096).
	// Cells × microbatches × devices is the real work a request buys, and
	// cell count alone does not cap it.
	MaxDevices int
	// JobWorkers and JobCapacity size the async tuner-job queue (defaults 2
	// and 64): at most JobWorkers searches run concurrently, and past
	// JobCapacity pending submissions POST /api/v1/optimize answers 429.
	JobWorkers  int
	JobCapacity int
	// MaxInFlight bounds concurrently admitted requests on the synchronous
	// compute endpoints (default 64). AdmitQueue bounds how many more may
	// wait for a slot (default 4×MaxInFlight; negative disables waiting —
	// every overflow sheds immediately). Past both, requests are shed with
	// 429 + Retry-After.
	MaxInFlight int
	AdmitQueue  int
	// Cluster configures coordinator mode: when Cluster.Workers names seed
	// workers or Cluster.Dynamic allows join-only membership, shardable
	// grids are dispatched across the worker pool instead of being
	// evaluated in-process.
	Cluster cluster.Options
	// JobStore, when non-nil, makes optimize jobs durable: submissions,
	// progress and results write through to it, and a new server over the
	// same store resumes queued jobs, re-runs ones that died mid-run and
	// still serves finished results. The caller owns the store's lifecycle
	// (close it AFTER Server.Close so the shutdown persistence lands).
	JobStore jobs.Store
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
	if opt.MaxDevices <= 0 {
		opt.MaxDevices = 1024
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
	if len(opt.Cluster.Workers) > 0 || opt.Cluster.Dynamic {
		// The cluster's local fallback uses the same per-grid parallelism
		// the server's own sweeps would.
		if opt.Cluster.LocalParallel == 0 {
			opt.Cluster.LocalParallel = opt.Parallel
		}
		s.cluster = cluster.New(opt.Cluster)
	}
	// The queue comes AFTER the dispatcher: replaying the store may resume
	// optimize jobs immediately, and their rehydrated search functions must
	// see the coordinator's EvalCell seam, not a nil cluster.
	s.jobs = jobs.New(jobs.Options{
		Workers:  opt.JobWorkers,
		Capacity: opt.JobCapacity,
		Store:    opt.JobStore,
		Rehydrate: map[string]jobs.Rehydrator{
			optimizeJobKind: s.rehydrateOptimize,
		},
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
		if cfg.NumMicro <= tune.MaxMicro && cfg.Devices <= s.opt.MaxDevices {
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
	if d := cfg.Devices; d > s.opt.MaxDevices {
		return badRequest(ErrTooManyDevices, map[string]any{"cell": label, "devices": d, "limit": s.opt.MaxDevices},
			"cell %q asks for %d devices, limit %d", label, d, s.opt.MaxDevices)
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
// In coordinator mode, shardable multi-cell grids compute across the
// worker pool instead of in-process; the merged records encode into the same
// cache under the same key, so coordinator and single-node responses are
// interchangeable byte for byte. The shard route itself always computes
// locally — a worker never re-shards its shard — and single-cell grids
// (every /api/v1/schedule request) stay local too: a network round trip plus
// straggler-hedging exposure buys nothing for one milliseconds-cheap cell.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, route, key string, grid func() (*sweep.Grid, error)) {
	// Admission: a resident or in-flight key is a cheap read (it costs no
	// sweep work), admitted ahead of cold computes. The probe does not touch
	// cache counters or LRU order; the classification is advisory — the key
	// could be evicted between probe and DoCtx — so a misclassified request
	// merely waits in the wrong queue, it is never double-computed.
	class := classCompute
	if s.cache.Contains(key) {
		class = classCheap
	}
	asp := obs.ChildSpan(r.Context(), "admission")
	if class == classCheap {
		asp.SetAttr("class", "cheap")
	} else {
		asp.SetAttr("class", "compute")
	}
	release, ok, waited, retryAfter := s.admit.admit(r.Context(), class)
	if !ok {
		if r.Context().Err() != nil {
			asp.SetAttr("outcome", "client_gone")
			asp.End()
			// The client vanished while queued; nobody reads this response.
			w.WriteHeader(StatusClientClosedRequest)
			return
		}
		asp.SetAttr("outcome", "shed")
		asp.End()
		st := s.admit.stats()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		s.writeError(w, r, http.StatusTooManyRequests, ErrShedOverload,
			map[string]any{"in_flight": st.InFlight, "queued": st.Queued, "queue_capacity": st.QueueCapacity},
			"server overloaded: %d requests in flight and the accept queue is full", st.InFlight)
		return
	}
	defer release()
	asp.SetAttr("outcome", "admitted")
	asp.End()
	s.admitWait.Observe(waited.Seconds())

	// The lookup span covers the whole DoCtx window — on a hit it is a map
	// lookup of the stored body, on a miss it contains the compute span.
	lsp := obs.ChildSpan(r.Context(), "cache.lookup")

	// The grid and the dispatch decision live inside the compute closure, so
	// cache hits pay for neither. The closure returns the encoded body, so a
	// miss encodes once and every later hit writes the stored bytes as they
	// are.
	compute := func(ctx context.Context) ([]byte, error) {
		// The cache runs compute on a DETACHED context (refcounted by every
		// coalesced caller) — bridge the two lineages: cancellation from the
		// cache's ctx, trace parentage from this request's lookup span. The
		// context carrying the lookup span is for parentage only, so only a
		// miss builds it.
		csp := obs.ChildSpan(obs.ContextWithSpan(r.Context(), lsp), "compute")
		defer csp.End()
		g, err := grid()
		if err != nil {
			return nil, err
		}
		recs, err := s.records(obs.ContextWithSpan(ctx, csp), route, g)
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
		if r.Context().Err() != nil || errors.Is(err, context.Canceled) {
			// The client is gone; nobody reads this response. Record the
			// outcome for logs/tests and stop.
			w.WriteHeader(StatusClientClosedRequest)
			return
		}
		s.writeError(w, r, http.StatusInternalServerError, ErrInternal, nil, "%v", err)
		return
	}
	w.Header().Set("X-Cache", outcomeHeader(outcome))
	s.writeBody(w, r, http.StatusOK, route, body)
}

// records computes g's records: across the worker pool for a coordinator's
// shardable multi-cell grid, in-process otherwise. ctx carries the compute
// span, which records the path taken.
func (s *Server) records(ctx context.Context, route string, g *sweep.Grid) ([]report.Record, error) {
	csp := obs.SpanFromContext(ctx)
	if s.cluster != nil && route != "shard" && sweep.Shardable(g) && g.NumCells() > 1 {
		csp.SetAttr("path", "cluster")
		return s.cluster.Records(ctx, g)
	}
	csp.SetAttr("path", "local")
	res, err := sweep.RunCtx(ctx, g, sweep.Options{Parallel: s.opt.Parallel})
	if err != nil {
		return nil, err
	}
	return res.Records(), nil
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
// member that stops calling it is expired off the placement ring once it
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

// optimizeRequest is the POST /api/v1/optimize input. Query parameters and the
// JSON body carry the same fields; query parameters win.
type optimizeRequest struct {
	// Spec is an inline tuning-constraint spec (tune.ParseSpec syntax).
	Spec string `json:"spec,omitempty"`
	// Scenario names a curated tuning scenario (internal/experiments).
	Scenario string `json:"scenario,omitempty"`
	// Strategy is exhaustive, beam (default) or anneal.
	Strategy string `json:"strategy,omitempty"`
}

// optimizeJobKind keys optimize submissions in the durable job store.
const optimizeJobKind = "optimize"

// optimizePayload is the durable form of an optimize submission — the
// validated request fields, enough for a restarted server to rebuild the
// search. The raw spec string (not the parsed structure) is persisted:
// re-parsing it is exactly how the original submission built the search,
// so the re-run is the same search.
type optimizePayload struct {
	Spec     string `json:"spec,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Strategy string `json:"strategy,omitempty"`
}

// tuneOptions is the search configuration every optimize job runs with —
// fresh and rehydrated submissions alike: in coordinator mode candidate
// evaluations farm out through the cluster's EvalCell seam.
func (s *Server) tuneOptions() tune.Options {
	topt := tune.Options{Parallel: s.opt.Parallel}
	if s.cluster != nil {
		topt.Eval = s.cluster.EvalCell
	}
	return topt
}

// rehydrateOptimize rebuilds an optimize job's search function from its
// persisted payload after a restart. The payload was validated at submit
// time, so failures here mean the durable state predates a breaking change
// (or was tampered with) — the job settles as failed with the reason.
func (s *Server) rehydrateOptimize(payload json.RawMessage) (jobs.Func, error) {
	var p optimizePayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("bad optimize payload: %w", err)
	}
	var spec *tune.Spec
	switch {
	case p.Spec != "":
		var err error
		if spec, err = tune.ParseSpec(p.Spec); err != nil {
			return nil, err
		}
	case p.Scenario != "":
		var ok bool
		if spec, ok = experiments.TuneSpec(p.Scenario); !ok {
			return nil, fmt.Errorf("unknown scenario %q", p.Scenario)
		}
	default:
		return nil, errors.New("optimize payload names neither spec nor scenario")
	}
	strategy := tune.StrategyBeam
	if p.Strategy != "" {
		var ok bool
		if strategy, ok = tune.StrategyByName(p.Strategy); !ok {
			return nil, fmt.Errorf("unknown strategy %q", p.Strategy)
		}
	}
	name := "optimize/" + spec.Name + "/" + string(strategy)
	// Rehydrated runs trace like fresh ones; the submitting request's trace
	// is long gone after a restart, so there is no submit_trace link.
	return s.traceJob(name, context.Background(), tuneJob(spec, strategy, s.tuneOptions())), nil
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

// checkTuneSpec applies the serving-layer size guards to a tuning space,
// mirroring checkGrid: like checkGrid inspecting expanded cells, it checks
// the *defaulted* spec — the candidates a search will actually evaluate —
// so an omitted axis cannot smuggle the base model's large device count
// past a tighter server cap. Microbatch counts need no check here:
// spec.Validate, which handleOptimize runs first, bounds them by
// tune.MaxMicro.
func (s *Server) checkTuneSpec(spec *tune.Spec) *reqError {
	d := spec.Defaulted()
	if size := d.SpaceSize(); size > s.opt.MaxCells {
		return badRequest(ErrTooManyCells, map[string]any{"candidates": size, "limit": s.opt.MaxCells},
			"search space has %d candidates, limit %d", size, s.opt.MaxCells)
	}
	for _, dev := range d.Devices {
		if dev > s.opt.MaxDevices {
			return badRequest(ErrTooManyDevices, map[string]any{"devices": dev, "limit": s.opt.MaxDevices},
				"candidate asks for %d devices, limit %d", dev, s.opt.MaxDevices)
		}
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

	var spec *tune.Spec
	switch {
	case req.Spec != "" && req.Scenario != "":
		s.writeError(w, r, http.StatusBadRequest, ErrInvalidParameter, nil, "spec and scenario are mutually exclusive")
		return
	case req.Spec != "":
		var err error
		if spec, err = tune.ParseSpec(req.Spec); err != nil {
			s.writeError(w, r, http.StatusBadRequest, ErrInvalidSpec, nil, "%v", err)
			return
		}
	case req.Scenario != "":
		var ok bool
		if spec, ok = experiments.TuneSpec(req.Scenario); !ok {
			s.writeError(w, r, http.StatusBadRequest, ErrInvalidParameter, map[string]any{"parameter": "scenario"},
				"unknown scenario %q (want one of %s)",
				req.Scenario, strings.Join(experiments.TuneNames(), ", "))
			return
		}
	default:
		s.writeError(w, r, http.StatusBadRequest, ErrMissingParameter, nil,
			"provide spec=... (tune.ParseSpec syntax) or scenario=... (named scenarios: %s)",
			strings.Join(experiments.TuneNames(), ", "))
		return
	}

	strategy := tune.StrategyBeam
	if req.Strategy != "" {
		var ok bool
		if strategy, ok = tune.StrategyByName(req.Strategy); !ok {
			s.writeError(w, r, http.StatusBadRequest, ErrInvalidParameter, map[string]any{"parameter": "strategy"},
				"unknown strategy %q (want one of %v)", req.Strategy, tune.Strategies())
			return
		}
	}
	if err := spec.Validate(); err != nil {
		s.writeError(w, r, http.StatusBadRequest, ErrInvalidSpec, nil, "%v", err)
		return
	}
	if e := s.checkTuneSpec(spec); e != nil {
		s.writeReqError(w, r, e)
		return
	}

	// The job runs detached from the submitting request on purpose: the
	// whole point of the queue is that the client disconnects and polls.
	// A coordinator farms the search's candidate simulations out to its
	// worker pool cell by cell (retry/hedging/fallback included). Durable
	// submission: with a JobStore configured, this job — and its result —
	// survives a coordinator restart.
	name := "optimize/" + spec.Name + "/" + string(strategy)
	id, err := s.jobs.SubmitDurable(name,
		optimizeJobKind,
		optimizePayload{Spec: req.Spec, Scenario: req.Scenario, Strategy: string(strategy)},
		s.traceJob(name, r.Context(), tuneJob(spec, strategy, s.tuneOptions())))
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
