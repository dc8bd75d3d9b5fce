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
	"net/http"
	"net/http/httptest"
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
// shards skip the park via the allowLive flag. If propagation ever breaks,
// handlers are still parked after the settle and the test fails there.
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
					select {
					case shardStarted <- struct{}{}:
					default:
					}
					select {
					case <-r.Context().Done():
					case <-time.After(10 * time.Second):
					}
					parked.Add(-1)
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
	// them and run with dead contexts. Give the abort a moment to unwind,
	// then confirm it reached every handler and the aborted sweep was
	// cached nowhere.
	time.Sleep(300 * time.Millisecond)
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

// TestClusterTuneJob: POST /api/v1/optimize on a coordinator farms candidate
// evaluations out to the workers cell by cell and lands on the same best
// configuration as a purely local search.
func TestClusterTuneJob(t *testing.T) {
	c := clustertest.Start(t, 2, clustertest.Options{})

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

	var snap jobs.Snapshot
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, body, _ := get(t, c.URL(), "/api/v1/jobs/"+acc.ID)
		if status != http.StatusOK {
			t.Fatalf("poll status = %d (%s)", status, body)
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", snap.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.State != jobs.StateDone {
		t.Fatalf("job state = %s (error %q)", snap.State, snap.Error)
	}
	resRaw, _ := json.Marshal(snap.Result)
	var res tune.Result
	if err := json.Unmarshal(resRaw, &res); err != nil {
		t.Fatalf("job result is not a tune.Result: %v", err)
	}

	spec, ok := experiments.TuneSpec("4b-quick")
	if !ok {
		t.Fatal("scenario 4b-quick missing from the registry")
	}
	local, err := tune.Search(context.Background(), spec, tune.StrategyBeam, tune.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || local.Best == nil || res.Best.Label != local.Best.Label {
		t.Fatalf("cluster best = %+v, local best = %+v", res.Best, local.Best)
	}
	if res.Evaluated != local.Evaluated {
		t.Errorf("cluster evaluated %d candidates, local %d", res.Evaluated, local.Evaluated)
	}
	// Scores are bit-exact across modes: IterTime travels verbatim and MFU
	// is recomputed locally from it (see Dispatcher.EvalCell), so a
	// coordinator must not merely agree on the winner — it must agree on
	// the numbers.
	if res.Best.Score != local.Best.Score || res.Best.MFUPct != local.Best.MFUPct ||
		res.Best.IterTimeS != local.Best.IterTimeS || res.Best.PeakMemGB != local.Best.PeakMemGB {
		t.Errorf("cluster best metrics %+v differ from local %+v", res.Best, local.Best)
	}

	// The candidates really were simulated by the workers.
	if h := coordinatorHealth(t, c); h.Dispatch.Remote < int64(res.Evaluated) {
		t.Errorf("dispatch remote = %d, want >= %d (one shard per candidate)", h.Dispatch.Remote, res.Evaluated)
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
		// DisableFallback keeps the held job truly in flight: without it the
		// coordinator would eventually give up on the gated workers and
		// finish the evals locally before the kill lands.
		Cluster: cluster.Options{HedgeAfter: -1, DisableFallback: true},
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

// TestShardedSweepAllocationBudget pins what a warmed sharded sweep costs.
// A dispatcher fans a 10-cell grid out as 4 shards to two in-process
// workers, whose shard caches answer every shard, and merges the records.
// The count covers dispatch, HTTP transport on both sides, the workers'
// cached hits and the merge. Two requests in flight at most keep every
// request on a pooled connection, wherever the ring places the shards.
// Measured: 765–773 allocations per sweep (803–821 under -race), most of
// them net/http's.
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
	d := cluster.New(cluster.Options{Workers: urls, ShardsPerWorker: 2, MaxInFlight: 2, LocalParallel: 1})
	allocs := testing.AllocsPerRun(10, func() {
		recs, err := d.Records(context.Background(), g)
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
