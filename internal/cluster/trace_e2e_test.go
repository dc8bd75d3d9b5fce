// End-to-end trace propagation: a sharded request through a real
// coordinator+worker pair must export ONE trace spanning both processes —
// the coordinator's request→admission→lookup→compute→dispatch→shard→attempt
// chain, the worker's shard handling parented under the attempt span via
// the traceparent header, and the coordinator's merged export carrying both
// processes' events. Injected deterministic clocks make the timeline exact.
package cluster_test

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"vocabpipe/internal/cluster"
	"vocabpipe/internal/cluster/clustertest"
	"vocabpipe/internal/obs"
	"vocabpipe/internal/server"
	"vocabpipe/internal/trace"
)

// detTracer builds a tracer whose clock steps 1ms per call from a fixed
// epoch and whose IDs count up from a per-tracer offset, so every exported
// timestamp is a whole millisecond and IDs never collide across tracers.
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
// reader the simulator's Chrome traces use — the round-trip the export
// format promises. A trace is exported once its root span ends, and a
// server ends a request's root span only after the response is written, so
// the client can ask before the trace exists: a 404 is retried until a
// 5-second deadline.
func fetchTrace(t *testing.T, url string) []trace.Event {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("fetching trace: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace fetch: HTTP %d: %s", resp.StatusCode, body)
		}
		events, err := trace.ReadChromeTrace(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("export does not round-trip through ReadChromeTrace: %v", err)
		}
		return events
	}
}

func spanNames(events []trace.Event) []string {
	names := make([]string, len(events))
	for i, e := range events {
		names[i] = e.Name
	}
	return names
}

func mustEvent(t *testing.T, events []trace.Event, name string) *trace.Event {
	t.Helper()
	for i := range events {
		if events[i].Name == name {
			return &events[i]
		}
	}
	t.Fatalf("trace lacks span %q; have %v", name, spanNames(events))
	return nil
}

func TestClusterTracePropagation(t *testing.T) {
	coordTracer := detTracer("coordinator", 0)
	workerTracer := detTracer("worker", 1000)
	c := clustertest.Start(t, 1, clustertest.Options{
		Coordinator: server.Options{Tracer: coordTracer},
		Worker:      server.Options{Tracer: workerTracer},
		Cluster:     cluster.Options{HedgeAfter: -1},
	})
	// One worker × one shard per worker and no hedging: the span sequence
	// is strictly sequential, so the fake clocks make the export fully
	// deterministic.
	cluster.SetShardsPerWorker(c.Coordinator.Cluster(), 1)

	resp, err := http.Get(c.URL() + "/api/v1/experiments/table5")
	if err != nil {
		t.Fatalf("sharded request: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded request: HTTP %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("coordinator response missing X-Trace-Id")
	}

	// Coordinator-local half: every dispatch phase under the one trace ID.
	local := fetchTrace(t, c.URL()+"/api/v1/debug/traces/"+id+"?local=1")
	for _, want := range []string{"GET /api/v1/experiments/{name}", "admission",
		"cache.lookup", "compute", "cluster.dispatch", "shard", "attempt"} {
		mustEvent(t, local, want)
	}
	for _, e := range local {
		if e.Args["trace_id"] != id {
			t.Errorf("span %q under trace %q, want %q", e.Name, e.Args["trace_id"], id)
		}
	}
	attempt := mustEvent(t, local, "attempt")
	if got := attempt.Args["worker"]; got != c.Workers[0].URL() {
		t.Errorf("attempt attributed to %q, want %q", got, c.Workers[0].URL())
	}
	if got := mustEvent(t, local, "compute").Args["path"]; got != "cluster" {
		t.Errorf("compute path = %q, want cluster", got)
	}
	if got := mustEvent(t, local, "shard").Args["outcome"]; got != "remote" {
		t.Errorf("shard outcome = %q, want remote", got)
	}

	// Worker half: its root adopted the coordinator's trace ID via the
	// traceparent header and parented under exactly the attempt span.
	workerEvents := fetchTrace(t, c.Workers[0].URL()+"/api/v1/debug/traces/"+id)
	wroot := mustEvent(t, workerEvents, "POST /api/v1/shard")
	if wroot.Args["trace_id"] != id {
		t.Errorf("worker root under trace %q, want %q", wroot.Args["trace_id"], id)
	}
	if wroot.Args["parent_id"] != attempt.Args["span_id"] {
		t.Errorf("worker root parent %q, want the coordinator attempt span %q",
			wroot.Args["parent_id"], attempt.Args["span_id"])
	}

	// Merged export: both processes in one timeline, workers re-stamped
	// with nonzero Pids.
	merged := fetchTrace(t, c.URL()+"/api/v1/debug/traces/"+id)
	if len(merged) != len(local)+len(workerEvents) {
		t.Errorf("merged export has %d events, want %d local + %d worker",
			len(merged), len(local), len(workerEvents))
	}
	sawWorkerPid := false
	for _, e := range merged {
		if e.Pid == 1 {
			sawWorkerPid = true
		}
	}
	if !sawWorkerPid {
		t.Error("merged export has no worker-process (Pid 1) events")
	}

	// Determinism: the injected 1ms-step clocks own every timestamp, so all
	// times and durations are exact whole milliseconds — impossible under a
	// wall clock, guaranteed under the fake.
	for _, e := range append(local, workerEvents...) {
		if int64(e.Ts)%1000 != 0 || int64(e.Dur)%1000 != 0 || e.Dur <= 0 {
			t.Errorf("span %q has non-injected timing ts=%v dur=%v", e.Name, e.Ts, e.Dur)
		}
	}
}
