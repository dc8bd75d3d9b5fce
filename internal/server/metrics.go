// The server's observability wiring: the /metrics endpoint, the per-route
// HTTP middleware instruments, and the func-backed collectors that read the
// counters the cache, jobs and cluster layers already maintain. Everything
// renders through internal/metrics in the Prometheus text exposition
// format; nothing here adds locks to a request's hot path beyond one
// counter increment and one histogram observation.
package server

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"vocabpipe/internal/metrics"
)

// buildVersion is the module version stamped into the binary, "dev" when
// built from a working tree (go build reports "(devel)").
var buildVersion = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "dev"
}()

// initMetrics builds the registry and registers every family. Called once
// from New, after the cache, jobs queue and (optional) cluster dispatcher
// exist, so the collectors can close over them.
func (s *Server) initMetrics() {
	r := metrics.NewRegistry()
	s.metrics = r

	// HTTP: updated inline by the Handler middleware.
	s.httpReqs = r.CounterVec("vpserve_http_requests_total",
		"HTTP requests by registered route pattern and status class.",
		"route", "code")
	s.httpDur = r.HistogramVec("vpserve_http_request_duration_seconds",
		"HTTP request wall time by registered route pattern.",
		metrics.DefLatencyBuckets, "route")
	s.sseActive = r.Gauge("vpserve_sse_streams_active",
		"Job event streams (GET /api/v1/jobs/{id}/events) currently open.")
	r.GaugeFunc("vpserve_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeSamples("vpserve_build_info",
		"Build identity as labels; the value is always 1.",
		[]string{"version", "go_version"},
		func() []metrics.Sample {
			return []metrics.Sample{{Labels: []string{buildVersion, runtime.Version()}, Value: 1}}
		})

	// Tracing (internal/obs): the completed-trace flight recorder behind
	// GET /api/v1/debug/traces.
	if tr := s.tracer; tr != nil {
		r.CounterFunc("vpserve_traces_recorded_total",
			"Completed traces recorded into the ring buffer.",
			func() float64 { return float64(tr.Stats().Recorded) })
		r.CounterFunc("vpserve_trace_spans_dropped_total",
			"Spans refused because their trace was complete or at MaxSpans.",
			func() float64 { return float64(tr.Stats().DroppedSpans) })
		r.GaugeFunc("vpserve_trace_ring_entries",
			"Completed traces currently held in the ring buffer.",
			func() float64 { return float64(tr.Stats().RingEntries) })
		r.GaugeFunc("vpserve_trace_ring_capacity",
			"Configured trace ring capacity.",
			func() float64 { return float64(tr.Stats().RingCapacity) })
	}

	// Admission control (admission.go): gauges and counters read the
	// controller's own state at scrape time; the wait histogram is observed
	// inline on every admitted compute.
	r.GaugeFunc("vpserve_admission_inflight",
		"Computes holding an admission slot.",
		func() float64 { return float64(s.admit.stats().InFlight) })
	r.GaugeFunc("vpserve_admission_queue_depth",
		"Computes waiting in the bounded accept queue.",
		func() float64 { return float64(s.admit.stats().Queued) })
	r.GaugeFunc("vpserve_admission_queue_capacity",
		"Configured accept-queue capacity.",
		func() float64 { return float64(s.admit.stats().QueueCapacity) })
	r.CounterFunc("vpserve_admission_admitted_total",
		"Computes admitted to an admission slot.",
		func() float64 { return float64(s.admit.stats().Admitted) })
	r.CounterFunc("vpserve_admission_shed_total",
		"Computes shed with 429 because the accept queue was full.",
		func() float64 { return float64(s.admit.stats().Shed) })
	s.admitWait = r.Histogram("vpserve_admission_wait_seconds",
		"Time admitted computes spent queued before getting a slot.",
		metrics.DefLatencyBuckets)

	// Result cache: scrape-time reads of the cache's own atomic counters.
	r.CounterFunc("vpserve_cache_hits_total",
		"Result-cache lookups answered from a stored entry.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.CounterFunc("vpserve_cache_misses_total",
		"Result-cache lookups that computed a fresh entry.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.CounterFunc("vpserve_cache_dedup_total",
		"Lookups coalesced onto another caller's in-flight computation.",
		func() float64 { return float64(s.cache.Stats().Deduped) })
	r.CounterFunc("vpserve_cache_evictions_total",
		"Entries evicted by the LRU policy.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	r.GaugeFunc("vpserve_cache_entries",
		"Entries currently cached.",
		func() float64 { return float64(s.cache.Len()) })
	r.GaugeFunc("vpserve_cache_capacity",
		"Configured result-cache capacity.",
		func() float64 { return float64(s.cache.Stats().Capacity) })

	// Request-identity index (gridRoute): whether repeated GETs skip parsing.
	// Kept out of the vpserve_cache_* families, so the result cache's ledger
	// counts exactly the lookups it did before the index existed.
	s.resolved = r.Counter("vpserve_request_index_resolved_total",
		"Compute-route GETs whose cache key came from the request-identity "+
			"index, without parsing, validating or keying their grid.")
	r.GaugeFunc("vpserve_request_index_entries",
		"Request targets currently held in the request-identity index.",
		func() float64 { return float64(s.index.Len()) })

	// Async job queue (POST /api/v1/optimize): depth gauges + lifecycle totals.
	r.GaugeFunc("vpserve_jobs_queued",
		"Jobs waiting for a worker.",
		func() float64 { return float64(s.jobs.Stats().Queued) })
	r.GaugeFunc("vpserve_jobs_running",
		"Jobs a worker is executing right now.",
		func() float64 { return float64(s.jobs.Stats().Running) })
	r.CounterFunc("vpserve_jobs_submitted_total",
		"Jobs accepted by Submit.",
		func() float64 { return float64(s.jobs.Stats().Submitted) })
	r.CounterFunc("vpserve_jobs_done_total",
		"Jobs finished successfully.",
		func() float64 { return float64(s.jobs.Stats().Done) })
	r.CounterFunc("vpserve_jobs_failed_total",
		"Jobs that returned an error or panicked.",
		func() float64 { return float64(s.jobs.Stats().Failed) })
	r.CounterFunc("vpserve_jobs_cancelled_total",
		"Jobs cancelled while queued or running.",
		func() float64 { return float64(s.jobs.Stats().Cancelled) })
	r.CounterFunc("vpserve_jobs_pruned_total",
		"Finished jobs dropped past the retention cap.",
		func() float64 { return float64(s.jobs.Stats().Pruned) })

	// Cluster dispatch (coordinator mode only): membership, shard fan-out
	// totals, and per-worker circuit state labeled by worker URL.
	if d := s.cluster; d != nil {
		r.GaugeFunc("vpserve_cluster_members",
			"Active members in shard placement right now.",
			func() float64 { return float64(d.Stats().Members) })
		r.CounterSamples("vpserve_cluster_membership_changes_total",
			"Membership transitions: join (a worker registered or a dormant "+
				"seed came back) and expire (a silent member left shard placement).",
			[]string{"kind"},
			func() []metrics.Sample {
				st := d.Stats()
				return []metrics.Sample{
					{Labels: []string{"join"}, Value: float64(st.Joins)},
					{Labels: []string{"expire"}, Value: float64(st.Expired)},
				}
			})
		r.CounterFunc("vpserve_cluster_shards_total",
			"Shard requests resolved by any path.",
			func() float64 { return float64(d.Stats().Shards) })
		r.CounterFunc("vpserve_cluster_remote_total",
			"Shards answered by a worker.",
			func() float64 { return float64(d.Stats().Remote) })
		r.CounterFunc("vpserve_cluster_retries_total",
			"Extra worker attempts after a shard failure.",
			func() float64 { return float64(d.Stats().Retries) })
		r.CounterFunc("vpserve_cluster_hedges_total",
			"Duplicate shard requests sent to stragglers.",
			func() float64 { return float64(d.Stats().Hedges) })
		r.CounterFunc("vpserve_cluster_hedge_wins_total",
			"Hedged duplicates that answered first.",
			func() float64 { return float64(d.Stats().HedgeWins) })
		r.CounterFunc("vpserve_cluster_fallbacks_total",
			"Shards evaluated in-process after every worker failed.",
			func() float64 { return float64(d.Stats().Fallbacks) })
		workerLabels := []string{"worker"}
		r.CounterSamples("vpserve_cluster_worker_requests_total",
			"Requests sent to each worker.", workerLabels,
			func() []metrics.Sample {
				hs := d.Health()
				out := make([]metrics.Sample, len(hs))
				for i, h := range hs {
					out[i] = metrics.Sample{Labels: []string{h.URL}, Value: float64(h.Requests)}
				}
				return out
			})
		r.CounterSamples("vpserve_cluster_worker_failures_total",
			"Failed requests per worker.", workerLabels,
			func() []metrics.Sample {
				hs := d.Health()
				out := make([]metrics.Sample, len(hs))
				for i, h := range hs {
					out[i] = metrics.Sample{Labels: []string{h.URL}, Value: float64(h.Failures)}
				}
				return out
			})
		r.GaugeSamples("vpserve_cluster_worker_inflight",
			"Requests currently on the wire per worker.", workerLabels,
			func() []metrics.Sample {
				hs := d.Health()
				out := make([]metrics.Sample, len(hs))
				for i, h := range hs {
					out[i] = metrics.Sample{Labels: []string{h.URL}, Value: float64(h.InFlight)}
				}
				return out
			})
		r.GaugeSamples("vpserve_cluster_worker_circuit_open",
			"1 when the worker's circuit breaker is open (being skipped).",
			workerLabels,
			func() []metrics.Sample {
				hs := d.Health()
				out := make([]metrics.Sample, len(hs))
				for i, h := range hs {
					v := 0.0
					if h.CircuitOpen {
						v = 1
					}
					out[i] = metrics.Sample{Labels: []string{h.URL}, Value: v}
				}
				return out
			})
	}
}

// handleMetrics renders the registry in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.WritePrometheus(w); err != nil {
		// Mid-body failure: the scrape is already broken on the wire, log
		// and let the scraper's parser reject the truncated payload.
		s.logf(r, "metrics: writing exposition: %v", err)
	}
}

// routeLabel resolves the registered mux pattern for the request and, from
// it, the bounded-cardinality route label. The method prefix is stripped
// ("GET /api/v1/sweep" → "/api/v1/sweep"); unmatched requests collapse into
// "other" (with an empty pattern) so junk paths cannot mint unbounded
// series.
func routeLabel(mux *http.ServeMux, r *http.Request) (route, pattern string) {
	_, pattern = mux.Handler(r)
	if pattern == "" {
		return "other", ""
	}
	route = pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		route = pattern[i+1:]
	}
	return route, pattern
}

// statusClass buckets a status code for the code label ("2xx", "4xx", ...)
// with constant strings, so labelling a request allocates nothing. An unset
// status means the handler never wrote — net/http sent an implicit 200.
func statusClass(status int) string {
	if status == 0 {
		status = http.StatusOK
	}
	switch status / 100 {
	case 1:
		return "1xx"
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 4:
		return "4xx"
	case 5:
		return "5xx"
	}
	return strconv.Itoa(status/100) + "xx"
}

// statusWriter records the first status code written so the middleware can
// label the request, passing everything else through — including Flush, so
// the SSE stream keeps working behind the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	// traceID backs the X-Trace-Id header: the header map holds a slice of
	// it, sparing the []string Header.Set would allocate.
	traceID [1]string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it streams; the SSE handler
// asserts http.Flusher through this wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
