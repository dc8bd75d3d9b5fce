// Request tracing for the serving layer: the middleware hooks that open a
// root span per API request (adopting an incoming traceparent, so a
// worker's spans parent under the coordinator's shard attempt), the debug
// endpoints that export completed traces as Chrome trace_event JSON —
// including the coordinator-side merge that stitches worker traces into one
// cross-process timeline — and the request-identity log helper every
// no-response-channel-left error log goes through.
package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vocabpipe/internal/jobs"
	"vocabpipe/internal/obs"
	"vocabpipe/internal/trace"
	"vocabpipe/internal/tune"
)

// traced gates which requests open a root span: the API surface, minus the
// debug endpoints themselves — the dashboard polls the trace list, and a
// flight recorder that records its own readers would evict every trace
// worth reading.
func traced(path string) bool {
	return strings.HasPrefix(path, "/api/") && !strings.Contains(path, "/debug/")
}

// traceParentKey is obs.TraceParentHeader in canonical form: indexing the
// header map with it skips the canonicalization Header.Get would allocate
// for the lowercase name.
const traceParentKey = "Traceparent"

// rootSpanName names a request's root span "METHOD route". A registered
// route's mux pattern already reads that way whenever the request's method
// is the pattern's, so the pattern itself is the name and costs nothing.
func rootSpanName(method, pattern, route string) string {
	if len(pattern) > len(method) && pattern[len(method)] == ' ' && pattern[:len(method)] == method {
		return pattern
	}
	return method + " " + route
}

// statusAttr is the root span's status attribute, a constant string for
// every status the server writes.
func statusAttr(status int) string {
	switch status {
	case http.StatusOK:
		return "200"
	case http.StatusAccepted:
		return "202"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusConflict:
		return "409"
	case http.StatusTooManyRequests:
		return "429"
	case StatusClientClosedRequest:
		return "499"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusServiceUnavailable:
		return "503"
	}
	return strconv.Itoa(status)
}

// routeCtxKey carries the resolved route label through the request context
// so log lines deep in handlers can name the route without re-resolving it.
type routeCtxKey struct{}

// logf is the request-scoped Options.Logf: the message plus the request's
// route and trace ID, so a write-failure log line correlates with the trace
// export and the per-route metrics instead of floating free.
func (s *Server) logf(r *http.Request, format string, args ...any) {
	route, tid := "-", "-"
	if r != nil {
		if v, ok := r.Context().Value(routeCtxKey{}).(string); ok {
			route = v
		}
		if sp := obs.SpanFromContext(r.Context()); sp != nil {
			tid = sp.TraceID().String()
		}
	}
	s.opt.Logf("server: %s (route=%s trace=%s)", fmt.Sprintf(format, args...), route, tid)
}

// traceJob wraps a job function so each run is its own root trace — a job
// outlives the submitting request, so it cannot share that trace, but the
// submitter's trace ID is linked through the submit_trace attribute (and
// the submit trace records the job ID, so the correlation works both ways).
func (s *Server) traceJob(name string, submitCtx context.Context, fn jobs.Func) jobs.Func {
	if s.tracer == nil {
		return fn
	}
	var submitTrace string
	if sp := obs.SpanFromContext(submitCtx); sp != nil {
		submitTrace = sp.TraceID().String()
	}
	return func(ctx context.Context, report func(jobs.Progress)) (any, error) {
		root := s.tracer.StartRoot("job "+name, obs.SpanContext{})
		root.SetAttr("kind", "job")
		if submitTrace != "" {
			root.SetAttr("submit_trace", submitTrace)
		}
		result, err := fn(obs.ContextWithSpan(ctx, root), report)
		if err != nil {
			root.SetAttr("error", err.Error())
		}
		root.End()
		return result, err
	}
}

// tuneJob wraps a tuner search as a jobs.Func: progress snapshots carry the
// best-so-far candidate label as the note, and a successful job's result is
// the *tune.Result. The search honors the job's context, so queue
// cancellation stops it at the next candidate boundary. opt.OnProgress is
// overwritten by the queue's own progress reporting; the other fields
// (Parallel, Records — e.g. a cluster dispatcher's) pass through.
func tuneJob(spec *tune.Spec, strategy tune.Strategy, opt tune.Options) jobs.Func {
	return func(ctx context.Context, report func(jobs.Progress)) (any, error) {
		opt.OnProgress = func(p tune.Progress) {
			report(jobs.Progress{Done: p.Done, Total: p.Total, Note: p.BestLabel})
		}
		res, err := tune.Search(ctx, spec, strategy, opt)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

// traceSummary is one entry in the GET /api/v1/debug/traces listing.
type traceSummary struct {
	ID         string    `json:"id"`
	Service    string    `json:"service"`
	Root       string    `json:"root"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	// Export is the Chrome-trace URL for this trace — load it in
	// chrome://tracing or https://ui.perfetto.dev.
	Export string `json:"export"`
}

// handleTraceList serves recent completed traces, newest first
// (?limit=N, default 50) — the dashboard's trace table.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		s.writeError(w, r, http.StatusConflict, ErrTracingDisabled, nil,
			"tracing is disabled on this server (TraceCapacity < 0)")
		return
	}
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.writeError(w, r, http.StatusBadRequest, ErrInvalidParameter,
				map[string]any{"parameter": "limit"}, "bad limit %q (want a positive integer)", v)
			return
		}
		limit = n
	}
	recents := s.tracer.Recent(limit)
	out := make([]traceSummary, 0, len(recents))
	for _, td := range recents {
		sum := traceSummary{
			ID:         td.ID.String(),
			Service:    td.Service,
			Start:      td.Start,
			DurationMS: td.End.Sub(td.Start).Seconds() * 1e3,
			Spans:      len(td.Spans),
			Export:     "/api/v1/debug/traces/" + td.ID.String(),
		}
		if root := td.Root(); root != nil {
			sum.Root = root.Name
		}
		out = append(out, sum)
	}
	s.writeJSON(w, r, http.StatusOK, "debug/traces listing", out)
}

// handleTraceGet exports one completed trace as a Chrome trace_event JSON
// array (the internal/trace format — round-trips through ReadChromeTrace).
// On a coordinator the export is the merged cross-process timeline: the
// local trace plus, unless ?local=1, whatever spans each active worker
// recorded under the same trace ID, re-stamped with a distinct Pid per
// worker so the viewer separates the processes.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		s.writeError(w, r, http.StatusConflict, ErrTracingDisabled, nil,
			"tracing is disabled on this server (TraceCapacity < 0)")
		return
	}
	raw := r.PathValue("id")
	id, err := obs.ParseTraceID(raw)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, ErrInvalidParameter,
			map[string]any{"parameter": "id"}, "%v", err)
		return
	}
	var events []trace.Event
	if td, ok := s.tracer.Trace(id); ok {
		events = td.ChromeEvents()
	}
	if s.cluster != nil && r.URL.Query().Get("local") == "" {
		events = append(events, s.remoteTraceEvents(r.Context(), id)...)
	}
	if len(events) == 0 {
		s.writeError(w, r, http.StatusNotFound, ErrTraceNotFound, map[string]any{"id": raw},
			"no completed trace %s (the ring holds the most recent %d traces)",
			raw, s.tracer.Stats().RingCapacity)
		return
	}
	// Deterministic merge order: by process, then time (the local export is
	// already time-sorted; worker events arrive per-worker time-sorted).
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Pid != events[j].Pid {
			return events[i].Pid < events[j].Pid
		}
		return events[i].Ts < events[j].Ts
	})
	s.writeJSON(w, r, http.StatusOK, "debug/traces "+raw, events)
}

// remoteTraceBytes bounds one worker's half of a merged trace. A worker
// exports the spans of one trace, at most its tracer's MaxSpans: obs's
// default 512, which vpserve runs with. An event is a span name, three IDs,
// a start and duration and a few attributes, the longest an error message
// that quotes at most 4 KiB of a worker's reply, so 16 KiB per event
// covers it. An export past the bound is dropped like any unreadable one.
const remoteTraceBytes = 512 * 16 << 10

// remoteTraceEvents asks every active worker for its half of the trace, all
// at once, so a member that hangs costs the export no more than the
// deadline and hides no other member's half. Strictly best-effort with a
// short deadline: a worker that is down, has evicted the trace (404), or
// never saw it contributes nothing — the coordinator's own spans still
// export. The worker at index i of the sorted member list has its events
// re-stamped Pid=i+1 (the coordinator is Pid 0), and the halves merge in
// that order.
func (s *Server) remoteTraceEvents(ctx context.Context, id obs.TraceID) []trace.Event {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	members := s.cluster.Members()
	halves := make([][]trace.Event, len(members))
	var wg sync.WaitGroup
	for i, u := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet,
				u+"/api/v1/debug/traces/"+id.String()+"?local=1", nil)
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			events, err := trace.ReadChromeTrace(io.LimitReader(resp.Body, remoteTraceBytes))
			if err != nil {
				return
			}
			for j := range events {
				events[j].Pid = i + 1
			}
			halves[i] = events
		}()
	}
	wg.Wait()
	return slices.Concat(halves...)
}
