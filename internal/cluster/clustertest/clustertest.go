// Package clustertest boots a coordinator plus N worker vpserve instances
// entirely in-process on httptest servers, so distributed-mode behavior —
// merge determinism, retry on worker death, hedged stragglers, cancellation
// propagation — is exercised race-clean in `go test ./...` with no real
// network, no binaries and no ports to leak.
//
// The harness is deliberately thin: real server.Server instances on real
// loopback HTTP, with two test-only affordances — KillWorker (abort the
// worker's live connections, then stop its listener, the in-process
// equivalent of a crashed instance) and Options.WorkerMiddleware (wrap a
// worker's handler to delay or gate requests deterministically).
package clustertest

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vocabpipe/internal/cluster"
	"vocabpipe/internal/jobs"
	"vocabpipe/internal/server"
)

// Options shapes a test cluster.
type Options struct {
	// Coordinator configures the coordinator server (its Cluster field is
	// overwritten with the booted workers plus the Cluster tuning below).
	Coordinator server.Options
	// Worker configures each worker server.
	Worker server.Options
	// Cluster configures the coordinator's dispatcher (Workers is filled in
	// by Start). Tests turn hedging off here (HedgeAfter -1) to isolate the
	// retry path or keep a held shard request from being duplicated.
	Cluster cluster.Options
	// WorkerMiddleware, when non-nil, wraps worker i's handler — e.g. to
	// delay shard responses (forcing a hedge) or to signal request arrival.
	// Workers added later by JoinWorker get the next indices.
	WorkerMiddleware func(i int, next http.Handler) http.Handler
	// StateDir, when set, backs the coordinator's job queue with a durable
	// file store in that directory — the precondition for
	// KillCoordinator/StartCoordinator restart tests.
	StateDir string
}

// Node is one booted worker.
type Node struct {
	Server *server.Server
	TS     *httptest.Server

	mu     sync.Mutex
	killed bool
}

// URL is the worker's base URL.
func (n *Node) URL() string { return n.TS.URL }

// Kill aborts the worker mid-flight: live connections are torn down first
// (in-flight shard requests fail at the coordinator and retry elsewhere;
// the worker's own sweeps stop at the next cell boundary), then the
// listener closes so later dials fail fast. Idempotent.
func (n *Node) Kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.killed {
		return
	}
	n.killed = true
	n.TS.CloseClientConnections()
	n.TS.Close()
}

// Cluster is a coordinator wired to its workers.
type Cluster struct {
	Coordinator *server.Server
	// Front is the coordinator's HTTP front door; drive requests at
	// Front.URL exactly as a client would a real coordinator.
	Front   *httptest.Server
	Workers []*Node

	opt    Options // as resolved by Start: seed URLs filled in
	store  *jobs.FileStore
	killed bool // coordinator currently down (between Kill and Start)
}

// URL is the coordinator's base URL.
func (c *Cluster) URL() string { return c.Front.URL }

// Start boots n workers and one coordinator pointed at all of them,
// registering cleanup on t. Zero-value Options give production defaults.
// With n == 0 the coordinator starts with an empty member pool and
// evaluates in process until JoinWorker adds a member.
func Start(t testing.TB, n int, opt Options) *Cluster {
	t.Helper()
	c := &Cluster{}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ws := server.New(opt.Worker)
		var h http.Handler = ws.Handler()
		if opt.WorkerMiddleware != nil {
			h = opt.WorkerMiddleware(i, h)
		}
		node := &Node{Server: ws, TS: httptest.NewServer(h)}
		c.Workers = append(c.Workers, node)
		urls = append(urls, node.TS.URL)
	}
	c.opt = opt
	c.opt.Cluster.Workers = urls
	c.opt.Coordinator.Cluster = &c.opt.Cluster
	if opt.StateDir != "" {
		st, err := jobs.OpenFileStore(opt.StateDir)
		if err != nil {
			t.Fatalf("clustertest: opening job store: %v", err)
		}
		c.store = st
		c.opt.Coordinator.JobStore = st
	}
	c.Coordinator = server.New(c.opt.Coordinator)
	c.Front = httptest.NewServer(c.Coordinator.Handler())

	t.Cleanup(func() {
		if !c.killed {
			c.Front.Close()
			closeServer(t, c.Coordinator)
		}
		for _, w := range c.Workers {
			w.Kill() // idempotent: already-killed workers are a no-op
			closeServer(t, w.Server)
		}
		if c.store != nil {
			// After the coordinator drained, so shutdown persistence landed.
			c.store.Close()
		}
	})
	return c
}

// JoinWorker boots one more worker and registers it with the coordinator
// through the public join API — the in-process equivalent of starting a
// fresh `vpserve -role worker -join`. The node is cleaned up with the rest
// of the pool.
func (c *Cluster) JoinWorker(t testing.TB) *Node {
	t.Helper()
	ws := server.New(c.opt.Worker)
	var h http.Handler = ws.Handler()
	if c.opt.WorkerMiddleware != nil {
		h = c.opt.WorkerMiddleware(len(c.Workers), h)
	}
	node := &Node{Server: ws, TS: httptest.NewServer(h)}
	c.Workers = append(c.Workers, node) // Start's cleanup ranges over c.Workers live

	resp, err := http.Post(c.URL()+"/api/v1/cluster/join", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, node.TS.URL)))
	if err != nil {
		t.Fatalf("clustertest: join: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clustertest: join returned %d (%s)", resp.StatusCode, body)
	}
	return node
}

// KillCoordinator is the SIGKILL-equivalent coordinator crash: the WAL
// handle dies first, so anything the dying process still tries to persist
// is dropped (jobs.ErrStoreClosed) — exactly the durability a real kill -9
// leaves behind — then the HTTP front goes away. The zombie's goroutines
// are reaped afterwards so the test process stays clean; by then their
// store writes can no longer rewrite history.
func (c *Cluster) KillCoordinator(t testing.TB) {
	t.Helper()
	if c.store == nil {
		t.Fatal("clustertest: KillCoordinator requires Options.StateDir")
	}
	if c.killed {
		t.Fatal("clustertest: coordinator already killed")
	}
	c.killed = true
	c.store.Close()
	c.Front.CloseClientConnections()
	c.Front.Close()
	closeServer(t, c.Coordinator)
}

// StartCoordinator boots a successor coordinator over the same state
// directory and seed list, as a restarted `vpserve -state-dir` would.
func (c *Cluster) StartCoordinator(t testing.TB) {
	t.Helper()
	if !c.killed {
		t.Fatal("clustertest: StartCoordinator without KillCoordinator")
	}
	st, err := jobs.OpenFileStore(c.opt.StateDir)
	if err != nil {
		t.Fatalf("clustertest: reopening job store: %v", err)
	}
	c.store = st
	c.opt.Coordinator.JobStore = st
	c.Coordinator = server.New(c.opt.Coordinator)
	c.Front = httptest.NewServer(c.Coordinator.Handler())
	c.killed = false
}

func closeServer(t testing.TB, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Errorf("clustertest: server close: %v", err)
	}
}
