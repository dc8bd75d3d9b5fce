// vpserve exposes the sweep engine as an HTTP service (see internal/server):
// the same JSON records `vpbench -json` emits, behind an LRU result cache
// with in-flight request deduplication.
//
//	go run ./cmd/vpserve -addr :8080
//	curl 'localhost:8080/api/v1/sweep?grid=model%3D4B%3Bmethod%3D1f1b'
//	curl 'localhost:8080/api/v1/experiments/table5'
//	curl -X POST 'localhost:8080/api/v1/optimize?scenario=4b-quick'
//	curl 'localhost:8080/api/v1/jobs/j1'
//	curl 'localhost:8080/healthz'
//
// Every API route lives under /api/v1; an unversioned /api/... path answers
// an enveloped 404 (code unversioned_path) naming its /api/v1 route.
//
// Flags:
//
//	-addr ADDR        listen address (default :8080)
//	-cache N          result-cache capacity in grids, and request-identity
//	                  index capacity in request targets (default 256)
//	-parallel N       sweep workers per computed grid (default GOMAXPROCS)
//	-max-cells N      reject grids larger than N cells with 400 (default 4096)
//	-job-workers N    concurrent auto-tuner searches (default 2)
//	-job-queue N      pending tuner jobs before 429 (default 64)
//	-shutdown-timeout D  graceful drain budget on SIGINT/SIGTERM (default 10s)
//	-trace-ring N     completed request traces kept for the debug/trace API
//	                  (default 256; 0 disables tracing)
//	-slow-request D   log API requests slower than D with route and trace ID
//	                  (default 1s; 0 disables)
//	-debug            mount net/http/pprof under /debug/pprof/
//
// Distributed mode (see internal/cluster): a coordinator shards grids
// across worker vpserve instances with cache-affine rendezvous-hash
// placement and merges the records back in deterministic order,
// byte-identical to a single-node response. Membership is dynamic:
// `-workers` is only the seed list (it may be empty), workers register and
// heartbeat through POST /api/v1/cluster/join (`-join` automates it), and
// members silent past `-member-ttl` are expired out of placement.
//
//	vpserve -addr :8081 -role worker -join 127.0.0.1:8080
//	vpserve -addr :8082 -role worker -join 127.0.0.1:8080
//	vpserve -addr :8080 -role coordinator -state-dir /var/lib/vpserve
//
//	-role ROLE        single (default), coordinator or worker
//	-workers LIST     comma-separated seed worker base URLs, deduplicated
//	                  and validated at startup (coordinator only; optional —
//	                  workers can also join at runtime)
//	-state-dir DIR    durable job store: optimize jobs, their progress and
//	                  results survive a restart (serving modes)
//	-join URL         coordinator to register with and heartbeat
//	                  (worker only)
//	-advertise URL    base URL to register under (default
//	                  http://127.0.0.1:<bound port>; requires -join)
//	-heartbeat-every D  join re-registration interval (default 10s;
//	                  requires -join)
//	-member-ttl D     expire members silent for this long (default 30s;
//	                  0 disables; coordinator only)
//	-hedge-after D    duplicate a shard request still unanswered after D
//	                  to another worker (default 2s; 0 disables;
//	                  coordinator only)
//	-probe-every D    member /healthz probe interval — also drives expiry
//	                  (default 5s; 0 disables probes and expiry alike, so
//	                  it needs -member-ttl 0; coordinator only)
//
// Load-test mode drives the one load engine (internal/load) against a URL —
// an already-running vpserve (or anything speaking HTTP) — and prints its
// one JSON report on stdout: the attempt ledger, OK-only latency
// percentiles, status and envelope-code counts, per-stage rows and the SLO
// verdicts. The CI smoke step uses it to cross-check the client-side
// attempt count against the server's own /metrics request counters.
//
// By default it runs a CLOSED LOOP (N workers issuing requests back to back):
//
//	vpserve -loadtest 'http://127.0.0.1:8080/api/v1/sweep?grid=...' \
//	        [-loadtest-duration 2s] [-loadtest-concurrency 8] \
//	        [-loadtest-thresholds 'ok_rps>=100,error_rate<=0']
//
// Passing -loadtest-stages ("[start=RATE,]TARGET:DURATION,..." legs, each a
// linear ramp to TARGET req/s; a zero DURATION is a cliff) switches to an
// OPEN LOOP: injection follows the staged rate curve regardless of server
// speed, the stages set the run's length, and a bounded VU pool turns
// client-side saturation into counted drops. A 10× spike:
//
//	vpserve -loadtest 'http://127.0.0.1:8080/api/v1/sweep?grid=...micro%3D{64+i%499}' \
//	        -loadtest-stages 'start=50,50:1750ms,500:0s,500:1500ms,50:0s,50:1750ms' \
//	        -loadtest-max-vus 64 -loadtest-thresholds 'p99<250ms,error_rate<0.1%'
//
// -loadtest-duration and -loadtest-concurrency are closed-loop knobs, and
// -loadtest-max-vus an open-loop one; each is refused in the other loop. In
// either loop, -loadtest-thresholds makes declarative SLO gates decide
// pass/fail, judged once on the settled ledger: exit 4 on a breach.
//
// The URL may carry one {i} or {OFF+i%MOD} placeholder, expanded per
// iteration to sweep distinct (cold) cache keys.
//
// Admission control (serving modes): -max-inflight bounds the computes
// (cache misses that run a sweep) in flight at once, -admit-queue bounds how
// many more may wait (negative: shed immediately); past both the server
// sheds the compute with 429 + Retry-After. Cache hits and requests
// coalesced onto an in-flight compute take no slot, so they are never
// queued or shed.
//
// A numeric flag refuses, with exit 2, a value its help gives no meaning:
// any negative but -admit-queue's, and zero unless the help names zero a
// default or "off".
//
// Observability: every serving vpserve exposes Prometheus metrics at
// GET /metrics, streams job progress over SSE at GET /api/v1/jobs/{id}/events,
// serves a zero-dependency live dashboard at GET /dashboard, and traces
// every API request — the response's X-Trace-Id header keys a Chrome-trace
// export at GET /api/v1/debug/traces/{id}, which on a coordinator merges
// the workers' spans into one cross-process timeline (see the README's
// Observability section).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"vocabpipe/internal/cluster"
	"vocabpipe/internal/jobs"
	"vocabpipe/internal/load"
	"vocabpipe/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable entry point. ready, when non-nil, receives the bound
// base URL once the serve-mode listener is up (tests use it; main passes nil).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("vpserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen `address`")
	cacheSize := fs.Int("cache", 256, "result-cache capacity in grids (the request-identity index holds as many request targets)")
	parallel := fs.Int("parallel", 0, "sweep workers per computed grid (default: GOMAXPROCS)")
	maxCells := fs.Int("max-cells", 4096, "reject grids expanding past `N` cells")
	jobWorkers := fs.Int("job-workers", 2, "concurrent auto-tuner search jobs")
	jobQueue := fs.Int("job-queue", 64, "pending tuner jobs before submissions get 429")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "graceful drain budget on SIGINT/SIGTERM")
	role := fs.String("role", "single", "deployment `role`: single, coordinator or worker")
	workers := fs.String("workers", "", "comma-separated seed worker base `URLs` (requires -role coordinator; optional — workers can join at runtime)")
	hedgeAfter := fs.Duration("hedge-after", 2*time.Second, "duplicate an unanswered shard request to another worker after this long (0 disables hedging)")
	probeEvery := fs.Duration("probe-every", 5*time.Second, "member /healthz probe interval, which also drives membership expiry (0 disables both; requires -member-ttl 0)")
	memberTTL := fs.Duration("member-ttl", 30*time.Second, "expire cluster members silent for this long (0 disables; requires -role coordinator)")
	stateDir := fs.String("state-dir", "", "`directory` for the durable job store; optimize jobs survive restarts (serving modes only)")
	join := fs.String("join", "", "coordinator base `URL` to register with and heartbeat (requires -role worker)")
	advertise := fs.String("advertise", "", "base `URL` to register under with -join (default http://127.0.0.1:<bound port>)")
	heartbeatEvery := fs.Duration("heartbeat-every", 10*time.Second, "join re-registration interval (0 registers once; requires -join)")
	loadtest := fs.String("loadtest", "", "drive the load harness against this external `URL`, print the JSON report and exit")
	ltConc := fs.Int("loadtest-concurrency", 8, "closed-loop load-test worker count")
	ltDur := fs.Duration("loadtest-duration", 2*time.Second, "closed-loop load-test duration")
	ltStages := fs.String("loadtest-stages", "", "run an open loop along these stages `SPEC`: [start=RATE,]TARGET:DURATION,...")
	ltMaxVUs := fs.Int("loadtest-max-vus", 64, "open-loop VU pool bound; arrivals past it are counted drops")
	ltThresholds := fs.String("loadtest-thresholds", "", "comma-separated SLO `gates` (p99<50ms,error_rate<0.1%,...); any breach exits 4")
	maxInFlight := fs.Int("max-inflight", 0, "computes running at once before more queue; cache hits take no slot (default 64)")
	admitQueue := fs.Int("admit-queue", 0, "computes queued for a slot before more are shed with 429 (default 4×max-inflight; negative: shed immediately)")
	debug := fs.Bool("debug", false, "mount the net/http/pprof profiling endpoints under /debug/pprof/ (serving modes)")
	slowRequest := fs.Duration("slow-request", time.Second, "log API requests slower than this, with route and trace ID (0 disables)")
	traceRing := fs.Int("trace-ring", 256, "completed request traces kept for GET /api/v1/debug/traces (0 disables tracing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(fs.Args()) > 0 {
		fmt.Fprintf(stderr, "vpserve: unexpected arguments %q\n", fs.Args())
		return 2
	}
	// A value the flag's help gives no meaning is refused, not replaced by
	// the default: no flag takes a negative but -admit-queue ("shed
	// immediately"), and zero only where the help names it a default or
	// "off".
	for _, f := range []struct {
		name   string
		v      float64
		zeroOK bool
	}{
		{"cache", float64(*cacheSize), false},
		{"max-cells", float64(*maxCells), false},
		{"job-workers", float64(*jobWorkers), false},
		{"job-queue", float64(*jobQueue), false},
		{"shutdown-timeout", float64(*shutdownTimeout), false},
		{"loadtest-concurrency", float64(*ltConc), false},
		{"loadtest-max-vus", float64(*ltMaxVUs), false},
		{"loadtest-duration", float64(*ltDur), false},
		{"parallel", float64(*parallel), true},
		{"max-inflight", float64(*maxInFlight), true},
		{"trace-ring", float64(*traceRing), true},
		{"slow-request", float64(*slowRequest), true},
		{"probe-every", float64(*probeEvery), true},
		{"member-ttl", float64(*memberTTL), true},
		{"hedge-after", float64(*hedgeAfter), true},
		{"heartbeat-every", float64(*heartbeatEvery), true},
	} {
		if f.v < 0 || (f.v == 0 && !f.zeroOK) {
			want := "must be positive"
			if f.zeroOK {
				want = "must not be negative"
			}
			fmt.Fprintf(stderr, "vpserve: -%s %s, got %s\n", f.name, want, fs.Lookup(f.name).Value)
			return 2
		}
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *loadtest == "" {
		for _, name := range []string{"loadtest-concurrency", "loadtest-duration",
			"loadtest-stages", "loadtest-max-vus", "loadtest-thresholds"} {
			if explicit[name] {
				fmt.Fprintf(stderr, "vpserve: -%s only applies to -loadtest\n", name)
				return 2
			}
		}
	}
	openLoop := *ltStages != ""
	if !openLoop && explicit["loadtest-max-vus"] {
		fmt.Fprintf(stderr, "vpserve: -loadtest-max-vus needs an open-loop plan (-loadtest-stages)\n")
		return 2
	}
	for _, name := range []string{"loadtest-concurrency", "loadtest-duration"} {
		if openLoop && explicit[name] {
			fmt.Fprintf(stderr, "vpserve: -%s is a closed-loop knob; an open loop runs as long as its -loadtest-stages, with -loadtest-max-vus VUs\n", name)
			return 2
		}
	}
	var workerURLs []string
	switch *role {
	case "single", "worker":
		if *workers != "" {
			fmt.Fprintf(stderr, "vpserve: -workers requires -role coordinator\n")
			return 2
		}
	case "coordinator":
		// Seeds are validated and canonicalized HERE, not when the first
		// sweep arrives: a typo'd worker URL is an operator error that must
		// fail the boot, and two spellings of the same worker ("host:8081"
		// vs "http://host:8081/") must not get double placement weight.
		seen := map[string]bool{}
		for _, w := range strings.Split(*workers, ",") {
			w = strings.TrimSpace(w)
			if w == "" {
				continue
			}
			u, err := cluster.NormalizeURL(w)
			if err != nil {
				fmt.Fprintf(stderr, "vpserve: -workers entry %q: %v\n", w, err)
				return 2
			}
			if seen[u] {
				continue
			}
			seen[u] = true
			workerURLs = append(workerURLs, u)
		}
		// An empty seed list is fine: membership is dynamic, workers join
		// through POST /api/v1/cluster/join (or their -join flag).
	default:
		fmt.Fprintf(stderr, "vpserve: unknown -role %q (want single, coordinator or worker)\n", *role)
		return 2
	}
	for _, name := range []string{"hedge-after", "probe-every", "member-ttl"} {
		if explicit[name] && *role != "coordinator" {
			fmt.Fprintf(stderr, "vpserve: -%s requires -role coordinator\n", name)
			return 2
		}
	}
	if *join != "" && *role != "worker" {
		fmt.Fprintf(stderr, "vpserve: -join requires -role worker\n")
		return 2
	}
	for _, name := range []string{"advertise", "heartbeat-every"} {
		if explicit[name] && *join == "" {
			fmt.Fprintf(stderr, "vpserve: -%s requires -join\n", name)
			return 2
		}
	}
	if *join != "" {
		u, err := cluster.NormalizeURL(*join)
		if err != nil {
			fmt.Fprintf(stderr, "vpserve: -join: %v\n", err)
			return 2
		}
		*join = u
	}
	if *advertise != "" {
		u, err := cluster.NormalizeURL(*advertise)
		if err != nil {
			fmt.Fprintf(stderr, "vpserve: -advertise: %v\n", err)
			return 2
		}
		*advertise = u
	}
	if *stateDir != "" && *loadtest != "" {
		fmt.Fprintf(stderr, "vpserve: -state-dir only applies to serving modes\n")
		return 2
	}
	if *probeEvery == 0 && *memberTTL != 0 {
		// Only a coordinator can get here (-probe-every is coordinator-only).
		// Expiry runs inside the prober, so without probes no member would
		// ever expire: refuse rather than silently disabling -member-ttl.
		fmt.Fprintf(stderr, "vpserve: -probe-every 0 also stops membership expiry, which runs in the prober; pass -member-ttl 0 too\n")
		return 2
	}
	if explicit["hedge-after"] && *hedgeAfter == 0 {
		// The flag's conventional zero means "off"; the library treats zero
		// as "unset, use the default", so translate rather than silently
		// reinstating 2s on an operator who asked for no hedging.
		*hedgeAfter = -1
	}
	if explicit["member-ttl"] && *memberTTL == 0 {
		// Same translation: zero at the flag means "never expire", while a
		// zero Options.MemberTTL means "use the 30s default".
		*memberTTL = -1
	}

	if *loadtest != "" {
		for _, name := range []string{"max-inflight", "admit-queue", "debug", "slow-request", "trace-ring"} {
			if explicit[name] {
				fmt.Fprintf(stderr, "vpserve: -%s tunes the server; it does not apply to -loadtest\n", name)
				return 2
			}
		}
		opt := load.Options{VUs: *ltConc, Duration: *ltDur}
		if openLoop {
			opt.VUs = *ltMaxVUs
		}
		return runLoadtest(stdout, stderr, *loadtest, *ltStages, *ltThresholds, opt)
	}

	// The flag's conventional zero means "no tracing"; a zero
	// Options.TraceCapacity means "use the 256 default", so translate.
	traceCap := *traceRing
	if traceCap <= 0 {
		traceCap = -1
	}
	opts := server.Options{
		CacheSize:     *cacheSize,
		Parallel:      *parallel,
		MaxCells:      *maxCells,
		JobWorkers:    *jobWorkers,
		JobCapacity:   *jobQueue,
		MaxInFlight:   *maxInFlight,
		AdmitQueue:    *admitQueue,
		Debug:         *debug,
		SlowRequest:   *slowRequest,
		TraceCapacity: traceCap,
	}
	if *role == "coordinator" {
		opts.Cluster = &cluster.Options{
			Workers:    workerURLs,
			MemberTTL:  *memberTTL,
			HedgeAfter: *hedgeAfter,
		}
	}
	if *stateDir != "" {
		store, err := jobs.OpenFileStore(*stateDir)
		if err != nil {
			fmt.Fprintf(stderr, "vpserve: -state-dir: %v\n", err)
			return 1
		}
		// Closed by defer, i.e. AFTER serve returns: the queue's shutdown
		// persistence (running durable jobs written back as queued) must
		// land in the WAL before the file handle goes away.
		defer store.Close()
		opts.JobStore = store
	}
	return serve(server.New(opts), stderr, serveConfig{
		addr:            *addr,
		role:            *role,
		probeEvery:      *probeEvery,
		shutdownTimeout: *shutdownTimeout,
		joinURL:         *join,
		advertise:       *advertise,
		heartbeatEvery:  *heartbeatEvery,
	}, ready)
}

// serveConfig bundles the serve-mode knobs run hands to serve.
type serveConfig struct {
	addr, role      string
	probeEvery      time.Duration
	shutdownTimeout time.Duration
	joinURL         string // coordinator to register with ("" = don't)
	advertise       string // URL to register under ("" = derive from the listener)
	heartbeatEvery  time.Duration
}

// readHeaderTimeout bounds how long an accepted connection may take to send
// its first request's headers. Without it a connection that sends nothing
// holds a goroutine and a socket for as long as its client likes, and holds
// the graceful drain too: net/http's Shutdown counts a connection that has
// sent no request as idle only once it is 5 s old. It does not shorten
// keep-alive idle time, which falls back to ReadTimeout, not to it.
const readHeaderTimeout = time.Second

// serve runs the HTTP server until SIGINT/SIGTERM, then drains gracefully.
// A coordinator also probes its members' /healthz on a ticker — the probe
// pass doubles as the membership-expiry sweep — and a worker started with
// -join heartbeats its registration to the coordinator. Those background
// loops share stderr with serve, so serve cancels them and waits for them
// to return before its own shutdown logging and before it returns.
func serve(srv *server.Server, stderr io.Writer, cfg serveConfig, ready chan<- string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintf(stderr, "vpserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "vpserve: listening on %s (role %s)\n", ln.Addr(), cfg.role)
	bgCtx, cancelBG := context.WithCancel(ctx)
	var bg sync.WaitGroup
	stopBG := func() {
		cancelBG()
		bg.Wait()
	}
	if d := srv.Cluster(); d != nil && cfg.probeEvery > 0 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			d.Probe(bgCtx)
			tick := time.NewTicker(cfg.probeEvery)
			defer tick.Stop()
			for {
				select {
				case <-bgCtx.Done():
					return
				case <-tick.C:
					d.Probe(bgCtx)
				}
			}
		}()
	}
	if cfg.joinURL != "" {
		adv := cfg.advertise
		if adv == "" {
			// The listen address can't be advertised verbatim: ":8080" binds
			// the wildcard, and "[::]:8080" is not reachable as a base URL.
			// Loopback is the right default for the single-host clusters the
			// examples and tests run; cross-host deployments set -advertise.
			if ta, ok := ln.Addr().(*net.TCPAddr); ok {
				adv = fmt.Sprintf("http://127.0.0.1:%d", ta.Port)
			}
		}
		if adv != "" {
			bg.Add(1)
			go func() {
				defer bg.Done()
				heartbeat(bgCtx, stderr, cfg.joinURL, adv, cfg.heartbeatEvery)
			}()
		}
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		// Serve only returns on listener failure.
		stopBG()
		fmt.Fprintf(stderr, "vpserve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stopBG()
	fmt.Fprintf(stderr, "vpserve: shutting down (draining up to %s)\n", cfg.shutdownTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "vpserve: shutdown: %v\n", err)
		return 1
	}
	// In-flight requests have drained; cancel and drain the tuner jobs too,
	// inside the same graceful budget.
	if err := srv.Close(sctx); err != nil {
		fmt.Fprintf(stderr, "vpserve: job queue drain: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, "vpserve: bye")
	return 0
}

// heartbeat registers this worker with the coordinator and keeps
// re-registering on a ticker. The re-registration IS the liveness signal:
// each POST refreshes the member's last-seen timestamp, keeping it ahead of
// the coordinator's -member-ttl expiry. Transitions (registered ↔ failing)
// are logged once, not per tick, so a long coordinator outage is one line.
func heartbeat(ctx context.Context, stderr io.Writer, joinURL, advertise string, every time.Duration) {
	client := &http.Client{Timeout: 5 * time.Second}
	last := "" // "", "up" or "down"
	register := func() {
		state, detail := "down", ""
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			joinURL+"/api/v1/cluster/join",
			strings.NewReader(fmt.Sprintf(`{"url":%q}`, advertise)))
		if err != nil {
			detail = err.Error()
		} else {
			req.Header.Set("Content-Type", "application/json")
			if resp, err := client.Do(req); err != nil {
				detail = err.Error()
			} else {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					state = "up"
				} else {
					detail = fmt.Sprintf("coordinator returned %d", resp.StatusCode)
				}
			}
		}
		if ctx.Err() != nil {
			return // shutting down; a failed final POST is not news
		}
		if state != last {
			if state == "up" {
				fmt.Fprintf(stderr, "vpserve: registered with coordinator %s as %s\n", joinURL, advertise)
			} else {
				fmt.Fprintf(stderr, "vpserve: cluster registration failing: %s\n", detail)
			}
			last = state
		}
	}
	register()
	if every <= 0 {
		return
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			register()
		}
	}
}

// runLoadtest drives the load engine against an external URL — an open
// loop along stages, or a closed loop when stages is empty — and prints the
// JSON report, which carries the full ledger CI asserts on. Exit codes: 0
// pass, 1 unusable inputs or broken run, 4 an SLO threshold breached on the
// settled ledger — distinct so CI can tell "could not test" from "tested and
// failed the gate". Errored attempts alone do not fail a run: the caller
// owns that policy.
func runLoadtest(stdout, stderr io.Writer, url, stages, thresholds string, opt load.Options) int {
	var err error
	if stages != "" {
		opt.Scenario, err = load.ParseStages(stages)
	}
	if err == nil && thresholds != "" {
		opt.Thresholds, err = load.ParseThresholds(thresholds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "vpserve: loadtest: %v\n", err)
		return 1
	}
	rep, err := load.Run(context.Background(), url, opt)
	if err != nil {
		fmt.Fprintf(stderr, "vpserve: loadtest: %v\n", err)
		return 1
	}
	if err := rep.WriteJSON(stdout); err != nil {
		fmt.Fprintf(stderr, "vpserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "vpserve: loadtest %s\n", rep.Summary())
	if !rep.ThresholdsOK {
		return 4
	}
	return 0
}
