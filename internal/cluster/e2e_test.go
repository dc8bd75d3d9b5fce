// End-to-end distributed-mode tests: real server.Server coordinator and
// workers on loopback httptest servers (see clustertest), driven through
// the public HTTP API exactly as production traffic would be. These are
// the acceptance tests for the cluster: merge determinism against the
// committed table5 golden, retry across a worker killed mid-sweep,
// cancellation propagation, and tuner jobs evaluating through the pool.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vocabpipe/internal/cluster"
	"vocabpipe/internal/cluster/clustertest"
	"vocabpipe/internal/experiments"
	"vocabpipe/internal/jobs"
	"vocabpipe/internal/server"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/tune"
)

// table5Golden reads the CLI's committed golden — the byte-level oracle for
// every distributed table5 response.
func table5Golden(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "cmd", "vpbench", "testdata", "table5.golden.json"))
	if err != nil {
		t.Fatalf("reading CLI golden: %v", err)
	}
	return raw
}

func get(t *testing.T, base, path string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// coordinatorHealth fetches and decodes the coordinator's /healthz.
func coordinatorHealth(t *testing.T, c *clustertest.Cluster) server.Health {
	t.Helper()
	_, raw, _ := get(t, c.URL(), "/healthz")
	var h server.Health
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatalf("bad healthz body: %v (%s)", err, raw)
	}
	if h.Dispatch == nil {
		t.Fatalf("coordinator healthz missing dispatch stats: %s", raw)
	}
	return h
}

// TestClusterTable5Determinism is the headline acceptance check: a
// coordinator with 1, 2 and 3 workers returns table5 byte-identical to the
// committed golden (and therefore to a single-node vpserve and to
// `vpbench -json table5`).
func TestClusterTable5Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("full table5 grid in -short mode")
	}
	golden := table5Golden(t)
	for _, n := range []int{1, 2, 3} {
		c := clustertest.Start(t, n, clustertest.Options{})
		status, body, _ := get(t, c.URL(), "/api/v1/experiments/table5")
		if status != http.StatusOK {
			t.Fatalf("%d workers: status = %d", n, status)
		}
		if string(body) != string(golden) {
			t.Errorf("%d workers: response differs from the committed golden", n)
		}
		// The work really was distributed, not computed by local fallback.
		h := coordinatorHealth(t, c)
		if h.Role != "coordinator" || len(h.Workers) != n {
			t.Errorf("%d workers: healthz role %q with %d workers", n, h.Role, len(h.Workers))
		}
		if h.Dispatch.Remote == 0 || h.Dispatch.Fallbacks != 0 {
			t.Errorf("%d workers: dispatch stats %+v, want remote shards and no fallbacks", n, *h.Dispatch)
		}
	}
}

// TestClusterWorkerKilledMidSweep kills a worker while its shards are in
// flight: the worker that receives the first shard request becomes the
// victim and hangs on every shard request until the kill tears its
// connections down, so the retry path deterministically moves the whole
// grid onto the survivor — and the response still matches the golden byte
// for byte. The victim is picked at runtime because placement hashes the
// workers' (random-port) URLs: a fixed victim may be placed no shard at
// all. A victim's shard request that connects while the kill is under way
// would outlive CloseClientConnections and wedge the listener's Close, so
// the gate also aborts its connection once the kill starts.
func TestClusterWorkerKilledMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full table5 grid in -short mode")
	}
	firstShard := make(chan struct{})
	killing := make(chan struct{})
	var once sync.Once
	var victim atomic.Int64
	victim.Store(-1)
	c := clustertest.Start(t, 2, clustertest.Options{
		Cluster: cluster.Options{HedgeAfter: -1}, // isolate the retry path
		WorkerMiddleware: func(i int, next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/api/v1/shard" && (victim.CompareAndSwap(-1, int64(i)) || victim.Load() == int64(i)) {
					// Drain the body first: net/http cancels r.Context() on
					// client abort / connection teardown only once the body
					// has been consumed, and the kill below relies on that
					// to unwedge this gate.
					io.Copy(io.Discard, r.Body)
					once.Do(func() { close(firstShard) })
					select {
					case <-r.Context().Done(): // hang until the worker dies
					case <-killing:
						panic(http.ErrAbortHandler) // a dying worker never answers
					}
					return
				}
				next.ServeHTTP(w, r)
			})
		},
	})

	type result struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(c.URL() + "/api/v1/experiments/table5")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: body, err: err}
	}()
	<-firstShard
	dead := c.Workers[victim.Load()]
	close(killing)
	dead.Kill()

	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("request failed after worker death: %v", res.err)
		}
		if res.status != http.StatusOK {
			t.Fatalf("status = %d after worker death", res.status)
		}
		if string(res.body) != string(table5Golden(t)) {
			t.Error("response after worker death differs from the committed golden")
		}
	case <-time.After(120 * time.Second):
		t.Fatal("sharded request never completed after worker death")
	}
	h := coordinatorHealth(t, c)
	if h.Dispatch.Retries == 0 {
		t.Errorf("dispatch stats %+v, want retries > 0 (the killed worker's shards must have moved)", *h.Dispatch)
	}
	for _, w := range h.Workers {
		if w.URL == dead.URL() && w.Failures == 0 {
			t.Errorf("dead worker shows no failures: %+v", w)
		}
	}
}

// TestClusterCancellationPropagation: a coordinator client that disconnects
// mid-sweep cancels the shard requests, which cancels the workers' own
// sweeps — nothing is cached anywhere, and a healthy follow-up request is a
// cache miss that recomputes from scratch and matches the golden. The miss
// assertion is the deterministic regression catch: if cancellation stopped
// propagating, the first request's sweep would complete and the follow-up
// would observe a hit (or coalesce as deduped).
//
// Shard requests of the first sweep park at the worker until the
// cancellation itself reaches them (r.Context() dies). Parking on anything
// else races the abort: a warm sweep engine computes a shard faster than
// the cancel propagates coordinator→worker, and the completed shard would
// be (validly) cached, failing the nothing-cached assertion. A parked
// handler reads the request body first: net/http cancels r.Context() on a
// client disconnect only once the body has been read to EOF, so a handler
// parked before reading it never sees the cancel. The follow-up request's
// shards skip the park via the allowLive flag. parked counts the handlers
// that parked and have not returned; the test waits up to 10 s for it to
// reach zero. If propagation ever breaks, handlers are still parked at that
// deadline (a park gives up only after 20 s) and the test fails there.
func TestClusterCancellationPropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("full table5 grid in -short mode")
	}
	shardStarted := make(chan struct{}, 64)
	var allowLive atomic.Bool
	var parked atomic.Int64
	c := clustertest.Start(t, 1, clustertest.Options{
		Cluster: cluster.Options{HedgeAfter: -1},
		WorkerMiddleware: func(i int, next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/api/v1/shard" && !allowLive.Load() {
					body, _ := io.ReadAll(r.Body)
					r.Body = io.NopCloser(bytes.NewReader(body))
					parked.Add(1)
					defer parked.Add(-1)
					select {
					case shardStarted <- struct{}{}:
					default:
					}
					select {
					case <-r.Context().Done():
					case <-time.After(20 * time.Second):
					}
				}
				next.ServeHTTP(w, r)
			})
		},
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.URL()+"/api/v1/experiments/table5", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-shardStarted
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned a response")
	}

	// The parked shard handlers wake as the cancellation reaches each of
	// them and run with dead contexts. Wait until every one has returned,
	// then confirm the aborted sweep was cached nowhere.
	deadline := time.Now().Add(10 * time.Second)
	for parked.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := parked.Load(); n != 0 {
		t.Errorf("%d shard handlers still parked: the cancel never reached them", n)
	}
	if st := c.Coordinator.CacheStats(); st.Entries != 0 {
		t.Errorf("coordinator cached an aborted sweep: %+v", st)
	}
	if st := c.Workers[0].Server.CacheStats(); st.Entries != 0 {
		t.Errorf("worker cached an aborted shard: %+v", st)
	}

	// The abort poisoned nothing and left nothing behind: the follow-up is
	// a miss that computes the full grid and matches the golden. Its shard
	// requests carry live contexts and must not park.
	allowLive.Store(true)
	status, body, hdr := get(t, c.URL(), "/api/v1/experiments/table5")
	if status != http.StatusOK || string(body) != string(table5Golden(t)) {
		t.Errorf("follow-up request: status %d, golden match %v", status, string(body) == string(table5Golden(t)))
	}
	if xc := hdr.Get("X-Cache"); xc != "miss" {
		t.Errorf("follow-up X-Cache = %q, want miss (did the aborted sweep complete anyway?)", xc)
	}
}

// submitOptimize posts an optimize job for a named scenario and strategy
// and returns its ID.
func submitOptimize(t *testing.T, c *clustertest.Cluster, scenario string, strategy tune.Strategy) string {
	t.Helper()
	resp, err := http.Post(c.URL()+"/api/v1/optimize?scenario="+scenario+"&strategy="+string(strategy), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("optimize status = %d (%s)", resp.StatusCode, raw)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &acc); err != nil || acc.ID == "" {
		t.Fatalf("bad 202 body: %v (%s)", err, raw)
	}
	return acc.ID
}

// awaitJob polls a job until it is done and returns its result as the
// coordinator encoded it; a job that fails or is cancelled fails the test.
func awaitJob(t *testing.T, c *clustertest.Cluster, id string) json.RawMessage {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, body, _ := get(t, c.URL(), "/api/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("poll status = %d (%s)", status, body)
		}
		var snap struct {
			State  jobs.State      `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.State.Terminal() {
			if snap.State != jobs.StateDone {
				t.Fatalf("job %s = %s (error %q)", id, snap.State, snap.Error)
			}
			return snap.Result
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, snap.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterTuneJob: POST /api/v1/optimize on a coordinator shards each
// candidate batch over the workers like any grid, and for every strategy
// the job's result is a local search's JSON byte for byte, with no local
// fallback. A search over the coordinator's Records emits one progress
// event per evaluated candidate, as a local one does.
func TestClusterTuneJob(t *testing.T) {
	c := clustertest.Start(t, 2, clustertest.Options{})
	spec, ok := experiments.TuneSpec("4b-quick")
	if !ok {
		t.Fatal("scenario 4b-quick missing from the registry")
	}
	for _, st := range []tune.Strategy{tune.StrategyExhaustive, tune.StrategyBeam, tune.StrategyAnneal} {
		local, err := tune.Search(context.Background(), spec, st, tune.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(local)
		if err != nil {
			t.Fatal(err)
		}
		if got := awaitJob(t, c, submitOptimize(t, c, "4b-quick", st)); !bytes.Equal(got, want) {
			t.Errorf("%s: job result differs from a local search:\n got %s\nwant %s", st, got, want)
		}

		var events []tune.Progress // OnProgress calls are serialized
		res, err := tune.Search(context.Background(), spec, st, tune.Options{
			Records:    c.Coordinator.Cluster().Records,
			OnProgress: func(p tune.Progress) { events = append(events, p) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(res); !bytes.Equal(got, want) {
			t.Errorf("%s: search over the coordinator's Records differs from a local search", st)
		}
		if len(events) != res.Evaluated {
			t.Fatalf("%s: %d progress events for %d evaluated candidates", st, len(events), res.Evaluated)
		}
		for i, p := range events {
			if p.Done != i+1 {
				t.Fatalf("%s: progress event %d reads done %d", st, i, p.Done)
			}
		}
		if last := events[len(events)-1]; last.Done != res.Evaluated || last.Total != res.Evaluated {
			t.Errorf("%s: final progress %+v, want done = total = %d", st, last, res.Evaluated)
		}
	}
	// The candidates really were simulated by the workers.
	if h := coordinatorHealth(t, c); h.Dispatch.Remote == 0 || h.Dispatch.Fallbacks != 0 {
		t.Errorf("dispatch stats %+v, want remote shards and no fallbacks", *h.Dispatch)
	}
}

// TestClusterTuneFansOut: an optimize job's candidate batches shard over
// the whole pool, so a coordinator that runs searches on one sweep worker
// (Parallel 1) still keeps every worker busy. Each shard request is held
// until four are in flight at once or 250 ms pass; the exhaustive 4b-quick
// search must reach four on four workers. Dispatching one candidate per
// request from the search's sweep workers reaches one.
func TestClusterTuneFansOut(t *testing.T) {
	const workers = 4
	var mu sync.Mutex
	inFlight, peak := 0, 0
	met := make(chan struct{})
	c := clustertest.Start(t, workers, clustertest.Options{
		Coordinator: server.Options{Parallel: 1},
		Cluster:     cluster.Options{HedgeAfter: -1},
		WorkerMiddleware: func(i int, next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/api/v1/shard" {
					next.ServeHTTP(w, r)
					return
				}
				mu.Lock()
				inFlight++
				if inFlight > peak {
					peak = inFlight
					if peak == workers {
						close(met)
					}
				}
				mu.Unlock()
				select {
				case <-met:
				case <-time.After(250 * time.Millisecond):
				}
				next.ServeHTTP(w, r)
				mu.Lock()
				inFlight--
				mu.Unlock()
			})
		},
	})
	awaitJob(t, c, submitOptimize(t, c, "4b-quick", tune.StrategyExhaustive))
	mu.Lock()
	defer mu.Unlock()
	t.Logf("peak %d shard requests in flight", peak)
	if peak < workers {
		t.Errorf("at most %d shard requests in flight on %d workers, want %d", peak, workers, workers)
	}
	if h := coordinatorHealth(t, c); h.Dispatch.Fallbacks != 0 {
		t.Errorf("dispatch stats %+v, want no fallbacks", *h.Dispatch)
	}
}

// TestClusterCoordinatorRestartResume is the durability acceptance test:
// a coordinator with a file-backed job store is killed (SIGKILL-equivalent
// — no drain, the WAL handle dies first) while one optimize job is mid-run
// and another sits queued behind it. The successor over the same state
// directory must keep serving the job that had already finished, re-run the
// in-flight one, run the queued one, and land both on the same best
// configuration as a purely local search.
func TestClusterCoordinatorRestartResume(t *testing.T) {
	var hold atomic.Bool
	gateHit := make(chan struct{}, 1)
	c := clustertest.Start(t, 2, clustertest.Options{
		StateDir:    t.TempDir(),
		Coordinator: server.Options{JobWorkers: 1}, // B must queue behind A
		// No hedging: the held shard requests stay held, well inside the
		// two-minute attempt deadline, until the kill.
		Cluster: cluster.Options{HedgeAfter: -1},
		WorkerMiddleware: func(i int, next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/api/v1/shard" && hold.Load() {
					io.Copy(io.Discard, r.Body)
					select {
					case gateHit <- struct{}{}:
					default:
					}
					<-r.Context().Done() // hang until the coordinator dies
					return
				}
				next.ServeHTTP(w, r)
			})
		},
	})

	submit := func() string {
		t.Helper()
		resp, err := http.Post(c.URL()+"/api/v1/optimize?scenario=4b-quick&strategy=beam", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("optimize status = %d (%s)", resp.StatusCode, raw)
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &acc); err != nil || acc.ID == "" {
			t.Fatalf("bad 202 body: %v (%s)", err, raw)
		}
		return acc.ID
	}
	snapshot := func(id string) (jobs.Snapshot, []byte) {
		t.Helper()
		status, body, _ := get(t, c.URL(), "/api/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("GET job %s: %d (%s)", id, status, body)
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		return snap, body
	}
	waitTerminal := func(id string) jobs.Snapshot {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			snap, _ := snapshot(id)
			if snap.State.Terminal() {
				return snap
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in state %s", id, snap.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Job C finishes before the crash — the history the successor must serve.
	jobC := submit()
	if snap := waitTerminal(jobC); snap.State != jobs.StateDone {
		t.Fatalf("job %s = %s (error %q)", jobC, snap.State, snap.Error)
	}
	_, bodyCBefore := snapshot(jobC)

	// Job A runs into the gate; job B queues behind it.
	hold.Store(true)
	jobA := submit()
	<-gateHit
	jobB := submit()
	if snap, _ := snapshot(jobB); snap.State != jobs.StateQueued {
		t.Fatalf("job %s = %s, want queued behind the held job", jobB, snap.State)
	}

	c.KillCoordinator(t)
	hold.Store(false)
	c.StartCoordinator(t)

	// The finished job survived byte for byte.
	if _, bodyCAfter := snapshot(jobC); string(bodyCAfter) != string(bodyCBefore) {
		t.Errorf("finished job changed across restart:\n before %s\n after  %s", bodyCBefore, bodyCAfter)
	}
	// The in-flight and queued jobs both resume to done under their old IDs.
	for _, id := range []string{jobA, jobB} {
		if snap := waitTerminal(id); snap.State != jobs.StateDone {
			t.Fatalf("resumed job %s = %s (error %q)", id, snap.State, snap.Error)
		}
	}

	// Resumed results match a purely local search, numbers included.
	spec, ok := experiments.TuneSpec("4b-quick")
	if !ok {
		t.Fatal("scenario 4b-quick missing from the registry")
	}
	local, err := tune.Search(context.Background(), spec, tune.StrategyBeam, tune.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{jobA, jobB} {
		snap, _ := snapshot(id)
		resRaw, _ := json.Marshal(snap.Result)
		var res tune.Result
		if err := json.Unmarshal(resRaw, &res); err != nil {
			t.Fatalf("job %s result is not a tune.Result: %v", id, err)
		}
		if res.Best == nil || res.Best.Label != local.Best.Label || res.Best.Score != local.Best.Score {
			t.Errorf("resumed job %s best = %+v, local best = %+v", id, res.Best, local.Best)
		}
	}
}

// TestClusterJoinMidSweep: a worker that joins while a sweep's shards are
// in flight may receive re-placed shards, and the merged response must
// still be byte-identical to the committed golden. The seed worker gates
// every shard request until the join has landed, so the placement change
// deterministically happens mid-sweep.
func TestClusterJoinMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full table5 grid in -short mode")
	}
	firstShard := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	c := clustertest.Start(t, 1, clustertest.Options{
		Cluster: cluster.Options{HedgeAfter: -1},
		WorkerMiddleware: func(i int, next http.Handler) http.Handler {
			if i != 0 {
				return next // joined workers serve immediately
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/api/v1/shard" {
					// Every shard request parks here until the first one's
					// Once completes — which waits for the join, so the
					// membership change is genuinely mid-sweep.
					once.Do(func() { close(firstShard); <-release })
				}
				next.ServeHTTP(w, r)
			})
		},
	})

	type result struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(c.URL() + "/api/v1/experiments/table5")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: body, err: err}
	}()

	<-firstShard
	c.JoinWorker(t)
	close(release)

	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("sweep failed across a mid-flight join: %v", res.err)
		}
		if res.status != http.StatusOK {
			t.Fatalf("status = %d", res.status)
		}
		if string(res.body) != string(table5Golden(t)) {
			t.Error("response after mid-sweep join differs from the committed golden")
		}
	case <-time.After(120 * time.Second):
		t.Fatal("sharded request never completed after the join")
	}
	h := coordinatorHealth(t, c)
	if len(h.Workers) != 2 {
		t.Errorf("healthz shows %d members after the join, want 2", len(h.Workers))
	}
	if h.Dispatch.Fallbacks != 0 {
		t.Errorf("dispatch stats %+v, want no local fallbacks", *h.Dispatch)
	}
}

// TestClusterNonShardableStaysLocal: experiments whose cells carry custom
// Eval closures (fig1) cannot cross the wire; the coordinator must compute
// them locally and never touch a worker.
func TestClusterNonShardableStaysLocal(t *testing.T) {
	c := clustertest.Start(t, 1, clustertest.Options{})
	status, body, _ := get(t, c.URL(), "/api/v1/experiments/fig1")
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, body)
	}
	if !strings.Contains(string(body), "with-output-layer") {
		t.Errorf("fig1 records missing expected cells: %s", body)
	}
	if h := coordinatorHealth(t, c); h.Dispatch.Shards != 0 {
		t.Errorf("non-shardable grid was dispatched: %+v", *h.Dispatch)
	}
}

// TestClusterSingleCellStaysLocal: /api/v1/schedule on a coordinator is one
// cheap cell; dispatching it would add a round trip and hedge exposure for
// nothing, so it must compute in-process.
func TestClusterSingleCellStaysLocal(t *testing.T) {
	c := clustertest.Start(t, 1, clustertest.Options{})
	status, body, _ := get(t, c.URL(), "/api/v1/schedule?config=4B&method=vocab-1&micro=16")
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, body)
	}
	if h := coordinatorHealth(t, c); h.Dispatch.Shards != 0 {
		t.Errorf("single-cell schedule was dispatched: %+v", *h.Dispatch)
	}
}

// TestWarmSweepsReuseConnections: at default options a 10-cell sweep over
// two in-process workers makes 8 shards, all on the wire at once, several
// on one worker. Once the pool holds a connection per shard, every sweep
// sends its shards on pooled connections: across 10 sweeps the workers see
// no new connection. An idle pool of 2 per worker, net/http's default,
// redials about 4 per sweep.
//
// The first sweep's shard requests are held until all 8 are in flight, so
// the pool grows to a connection per shard at once. And a sweep starts
// only once every connection of the last one has been offered back to the
// pool (httptrace's PutIdleConn), which net/http does on its own goroutine
// just after a response body is read.
func TestWarmSweepsReuseConnections(t *testing.T) {
	g, err := sweep.ParseGrid("model=4B;method=1f1b;vocab=32k,64k;micro=16")
	if err != nil {
		t.Fatal(err)
	}
	var dials, held atomic.Int64
	var holding atomic.Bool
	holding.Store(true)
	allHeld := make(chan struct{})
	var urls []string
	for i := 0; i < 2; i++ {
		srv := server.New(server.Options{CacheSize: 16, Parallel: 1})
		h := srv.Handler()
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/api/v1/shard" && holding.Load() {
				if held.Add(1) == 8 {
					close(allHeld)
				}
				select {
				case <-allHeld:
				case <-time.After(5 * time.Second):
				}
			}
			h.ServeHTTP(w, r)
		}))
		ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				dials.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(func() {
			ts.Close()
			srv.Close(context.Background())
		})
		urls = append(urls, ts.URL)
	}
	d := cluster.New(cluster.Options{Workers: urls, LocalParallel: 1})
	var got, offered atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn:     func(httptrace.GotConnInfo) { got.Add(1) },
		PutIdleConn: func(error) { offered.Add(1) },
	})
	sweepOnce := func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); offered.Load() < got.Load(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d connections offered back to the pool after 5 s", offered.Load(), got.Load())
			}
		}
		if _, err := d.Records(ctx, g, nil); err != nil {
			t.Fatal(err)
		}
	}
	sweepOnce() // all 8 shards at once: a connection per shard
	holding.Store(false)
	warm := dials.Load()
	for i := 0; i < 10; i++ {
		sweepOnce()
	}
	if n := dials.Load() - warm; n != 0 {
		t.Errorf("10 warm sweeps dialed %d new connections (%d while warming), want 0", n, warm)
	}
	if st := d.Stats(); st.Shards != 8*11 || st.Fallbacks != 0 {
		t.Errorf("dispatch %+v, want 8 remote shards per sweep and no fallback", st)
	}
}

// TestShardedSweepAllocationBudget pins what a warmed sharded sweep costs.
// A dispatcher fans a 10-cell grid out as 4 shards to two in-process
// workers, whose shard caches answer every shard, and merges the records.
// The count covers dispatch, HTTP transport on both sides, the workers'
// cached hits and the merge. The dispatcher's idle pool keeps every
// request on a pooled connection, wherever placement puts the shards
// (TestWarmSweepsReuseConnections). Measured: 765–767 allocations per sweep
// (796–818 under -race), most of them net/http's.
func TestShardedSweepAllocationBudget(t *testing.T) {
	const budget = 940
	g, err := sweep.ParseGrid("model=4B;method=1f1b;vocab=32k,64k;micro=16")
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		srv := server.New(server.Options{CacheSize: 16, Parallel: 1})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Close(context.Background())
		})
		urls = append(urls, ts.URL)
	}
	d := cluster.New(cluster.Options{Workers: urls, LocalParallel: 1})
	cluster.SetShardsPerWorker(d, 2)
	allocs := testing.AllocsPerRun(10, func() {
		recs, err := d.Records(context.Background(), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 10 {
			t.Fatalf("%d records, want 10", len(recs))
		}
	})
	st := d.Stats()
	t.Logf("sharded sweep: %v allocations; dispatch %+v", allocs, st)
	if st.Shards != 4*11 || st.Fallbacks != 0 {
		t.Fatalf("dispatch %+v, want 4 remote shards per sweep and no fallback", st)
	}
	if allocs > budget {
		t.Errorf("a warmed 10-cell sharded sweep made %v allocations, budget %d", allocs, budget)
	}
}
