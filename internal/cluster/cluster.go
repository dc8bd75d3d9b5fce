// Package cluster scales vpserve horizontally: a coordinator shards a
// sweep.Grid into contiguous cell ranges over the grid's deterministic
// expansion order, dispatches each shard to a worker vpserve instance over
// the existing HTTP API (POST /api/v1/shard), and merges the per-shard records
// back into expansion order — so the coordinator's JSON stays byte-identical
// to a single-node run no matter how many workers computed it, or how the
// membership changed while it ran.
//
// Membership is dynamic (membership.go): Options.Workers is only the seed
// list. Workers join (and heartbeat) at runtime through Dispatcher.Join,
// the prober expires members silent past Options.MemberTTL, and expired
// members leave the placement ring entirely — selection never proposes
// them again until they rejoin.
//
// Placement is cache-affine (ring.go): each shard's sub-grid key — the
// very identity the worker's result cache stores it under — hashes onto a
// consistent ring over the active members, so repeated and overlapping
// sweeps land each shard on the member whose cache is already warm, and a
// membership change remaps only the shards adjacent to the change.
//
// Fault model:
//
//   - bounded fan-out: at most Options.MaxInFlight shard requests are on the
//     wire at once;
//   - retry: a failed shard is retried on a different worker (each worker is
//     tried at most once per shard);
//   - hedging: a shard still unanswered after Options.HedgeAfter is sent to
//     a second worker; the first response wins and the loser is cancelled;
//   - circuit breaking: a worker with Options.FailureThreshold consecutive
//     failures is skipped for Options.Cooldown, then allowed one half-open
//     trial (Probe can also close the circuit early via /healthz);
//   - attempt deadline: a single worker request is abandoned (and counted
//     as a failure) after Options.AttemptTimeout, so a worker that hangs
//     without erroring cannot wedge a shard past retry and fallback;
//   - local fallback: a shard every worker failed is evaluated in-process
//     (unless Options.DisableFallback), so a coordinator degrades to
//     single-node behavior rather than failing the request.
//
// Cancellation propagates end to end: the caller's context flows into every
// shard request, workers observe the closed connection and stop their sweep
// at the next cell boundary, and the dispatcher returns the context error.
//
// Only grids whose cells are fully described by (label, config, method) can
// cross the wire — sweep.Shardable gates dispatch, and grids with custom
// Eval closures are evaluated locally by the serving layer instead.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/obs"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
)

// Options tunes a Dispatcher.
type Options struct {
	// Workers are the SEED worker base URLs ("http://host:port"; a bare
	// "host:port" gets the scheme prepended). Seeds are ordinary members in
	// every way except death: an expired seed parks in a dormant set the
	// prober keeps watching, so a revived seed rejoins without calling the
	// join API. Required unless Dynamic is set.
	Workers []string
	// Dynamic permits a dispatcher with an empty seed list: the pool is
	// populated at runtime through Join (the coordinator's join API). With
	// no members every shard evaluates by local fallback.
	Dynamic bool
	// MemberTTL expires a member whose last sign of life — join/heartbeat,
	// successful probe or successful request — is older than this, checked
	// on every Probe pass (default 30s; negative disables expiry). An
	// expired member leaves the placement ring entirely: shard selection
	// never proposes it again until it rejoins.
	MemberTTL time.Duration
	// ShardsPerWorker scales shard granularity: a grid splits into
	// min(cells, workers × ShardsPerWorker) shards (default 4). Finer shards
	// cost more round trips but make retries cheaper and stragglers smaller.
	ShardsPerWorker int
	// MaxInFlight bounds concurrent shard requests (default 2 × workers).
	MaxInFlight int
	// HedgeAfter is how long a shard request may go unanswered before a
	// duplicate is sent to another worker (default 2s; negative disables).
	HedgeAfter time.Duration
	// AttemptTimeout is the hard deadline on a single worker request
	// (default 2m; negative disables). Hedging handles ordinary stragglers
	// long before this fires — the timeout exists so a worker that hangs
	// without closing its connection (SIGSTOP, network partition) still
	// counts as a failure and the shard moves on to retry and, ultimately,
	// local fallback instead of wedging the request forever.
	AttemptTimeout time.Duration
	// FailureThreshold is the consecutive-failure count that opens a
	// worker's circuit (default 3).
	FailureThreshold int
	// Cooldown is how long an open circuit skips its worker before a
	// half-open trial (default 5s).
	Cooldown time.Duration
	// LocalParallel is the sweep worker count used by local fallback
	// (default GOMAXPROCS, the sweep engine's own default).
	LocalParallel int
	// DisableFallback makes a shard with no healthy worker a hard error
	// instead of evaluating it in-process.
	DisableFallback bool
}

// Stats counts dispatcher activity since construction; /healthz reports it
// and tests read it to prove the retry/hedge paths actually ran.
type Stats struct {
	Shards    int64 `json:"shards"`     // shard requests resolved (any path)
	Remote    int64 `json:"remote"`     // shards answered by a worker
	Retries   int64 `json:"retries"`    // extra worker attempts after a failure
	Hedges    int64 `json:"hedges"`     // duplicate requests sent to stragglers
	HedgeWins int64 `json:"hedge_wins"` // hedged duplicates that answered first
	Fallbacks int64 `json:"fallbacks"`  // shards evaluated in-process
	// Members is the current active pool size; Joins and Expired count
	// membership changes (a seed's construction-time entry is not a join).
	Members int   `json:"members"`
	Joins   int64 `json:"joins"`
	Expired int64 `json:"expired"`
}

// Dispatcher is the coordinator side of the cluster: it owns the member
// registry, the per-worker circuit state and the shard fan-out. Construct
// with New; a Dispatcher is safe for concurrent use.
type Dispatcher struct {
	opt    Options
	client *http.Client
	// sem bounds concurrent shard dispatches across every entry point —
	// grid fan-out and per-cell tuner evaluations share the same budget.
	sem chan struct{}
	now func() time.Time

	// mu guards the membership registry and the placement ring (see
	// membership.go and ring.go). members is the active pool; dormant holds
	// expired seeds the prober keeps watching.
	mu      sync.RWMutex
	members map[string]*workerState
	dormant map[string]*workerState
	ring    *hashRing

	shards    atomic.Int64
	remote    atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	fallbacks atomic.Int64
	joins     atomic.Int64
	expired   atomic.Int64
}

// New builds a Dispatcher. Seed URLs are normalized and deduplicated (one
// address must never hold two circuit breakers); an invalid URL panics —
// callers validate user input with NormalizeURL first. An empty seed list
// panics unless Options.Dynamic says members will join at runtime.
func New(opt Options) *Dispatcher {
	if len(opt.Workers) == 0 && !opt.Dynamic {
		panic("cluster: New needs at least one worker URL (or Options.Dynamic)")
	}
	if opt.ShardsPerWorker <= 0 {
		opt.ShardsPerWorker = 4
	}
	if opt.MaxInFlight <= 0 {
		// Scaled to the seed pool but floored so a join-only coordinator
		// (zero seeds) still has dispatch slots when members arrive.
		opt.MaxInFlight = 2 * len(opt.Workers)
		if opt.MaxInFlight < 8 {
			opt.MaxInFlight = 8
		}
	}
	if opt.HedgeAfter == 0 {
		opt.HedgeAfter = 2 * time.Second
	}
	if opt.AttemptTimeout == 0 {
		opt.AttemptTimeout = 2 * time.Minute
	}
	if opt.FailureThreshold <= 0 {
		opt.FailureThreshold = 3
	}
	if opt.Cooldown <= 0 {
		opt.Cooldown = 5 * time.Second
	}
	if opt.MemberTTL == 0 {
		opt.MemberTTL = 30 * time.Second
	}
	d := &Dispatcher{
		opt:     opt,
		client:  &http.Client{},
		sem:     make(chan struct{}, opt.MaxInFlight),
		now:     time.Now,
		members: make(map[string]*workerState),
		dormant: make(map[string]*workerState),
	}
	now := d.now()
	for _, raw := range opt.Workers {
		u, err := NormalizeURL(raw)
		if err != nil {
			panic(err.Error())
		}
		if _, ok := d.members[u]; ok {
			continue // duplicate seed spelling
		}
		w := &workerState{url: u, seed: true}
		w.touch(now)
		d.members[u] = w
	}
	d.rebuildLocked() // no concurrency yet; the lock is not needed
	return d
}

// Stats snapshots the dispatch counters.
func (d *Dispatcher) Stats() Stats {
	return Stats{
		Shards:    d.shards.Load(),
		Remote:    d.remote.Load(),
		Retries:   d.retries.Load(),
		Hedges:    d.hedges.Load(),
		HedgeWins: d.hedgeWins.Load(),
		Fallbacks: d.fallbacks.Load(),
		Members:   d.memberCount(),
		Joins:     d.joins.Load(),
		Expired:   d.expired.Load(),
	}
}

// Records evaluates the grid across the worker pool and returns its records
// in expansion order — the same slice a local sweep.Run(...).Records()
// yields, byte-for-byte once serialized. Non-shardable grids (custom Eval
// closures) and empty grids are evaluated locally.
func (d *Dispatcher) Records(ctx context.Context, g *sweep.Grid) ([]report.Record, error) {
	cells := g.Expand()
	members := d.memberCount()
	if len(cells) == 0 || members == 0 || !sweep.Shardable(g) {
		return d.localRecords(ctx, g)
	}
	ranges := sweep.SplitCells(len(cells), members*d.opt.ShardsPerWorker)

	ctx, dsp := obs.StartSpan(ctx, "cluster.dispatch")
	dsp.SetAttr("cells", fmt.Sprint(len(cells)))
	dsp.SetAttr("shards", fmt.Sprint(len(ranges)))
	defer dsp.End()

	// One failed shard cancels the rest: the merged response is all or
	// nothing, so finishing sibling shards for a doomed request only wastes
	// worker time.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	shards := make([][]report.Record, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, r sweep.Range) {
			defer wg.Done()
			shards[i], errs[i] = d.runShard(ctx, g, cells, r)
			if errs[i] != nil {
				cancel()
			}
		}(i, r)
	}
	wg.Wait()
	// A real shard failure cancels its siblings, which then report their
	// context's error *verbatim*; surface the root cause, not the
	// collateral ones, so the serving layer can tell "cluster failed" from
	// "client gone". Identity comparison on purpose: real failures always
	// arrive wrapped (and may wrap context.DeadlineExceeded via the
	// attempt timeout), while collateral errors are bare ctx.Err() values.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if err != context.Canceled && err != context.DeadlineExceeded {
			return nil, err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return sweep.MergeShardRecords(len(cells), ranges, shards)
}

// EvalCell evaluates a single cell remotely with the same retry, hedging
// and fallback semantics as a shard — the seam tune searches use to farm
// candidate simulations out to the cluster (tune.Options.Eval). The result
// is reconstructed from the worker's record bit-exactly where it matters:
// IterTime travels verbatim, MFU (the default objective) is recomputed
// locally as the pure function costmodel.Config.MFU(iterTime), and the GiB
// memory fields scale by a power of two, so a coordinator-mode search ranks
// identically to a local one. Only Bubble — a timeline property the record
// carries as a percentage — may differ in the last ULP; derived per-device
// slices and timelines stay empty.
func (d *Dispatcher) EvalCell(ctx context.Context, c sweep.Cell) (*sim.Result, error) {
	// The incoming cell's Eval is typically the very hook that routed it
	// here (tune wires Options.Eval to this method); drop it so the local
	// fallback simulates the cell instead of recursing into the dispatcher.
	c.Eval = nil
	g := &sweep.Grid{Name: c.Experiment, Cells: []sweep.Cell{c}}
	if c.Experiment == "" {
		g.Name = "cell"
	}
	cells := g.Expand()
	recs, err := d.runShard(ctx, g, cells, sweep.Range{Start: 0, End: 1})
	if err != nil {
		return nil, err
	}
	rec := recs[0]
	if rec.Error != "" {
		// The worker's sweep already wrapped the cell label; strip the
		// prefix so the local engine's own wrapping doesn't stutter.
		msg := strings.TrimPrefix(rec.Error, fmt.Sprintf("sweep: cell %q: ", cells[0].Label))
		return nil, fmt.Errorf("%s", msg)
	}
	cfg := cells[0].Config
	res := &sim.Result{
		Config:   cfg,
		Method:   cells[0].Method,
		IterTime: rec.IterTimeS,
		MFU:      cfg.MFU(rec.IterTimeS),
		MaxMem:   rec.PeakMemGB * costmodel.GiB,
		MinMem:   rec.MinMemGB * costmodel.GiB,
		OOM:      rec.OOM,
		Bubble:   rec.BubblePct / 100,
	}
	return res, nil
}

// localRecords is the in-process path: non-shardable grids and fallback.
func (d *Dispatcher) localRecords(ctx context.Context, g *sweep.Grid) ([]report.Record, error) {
	res, err := sweep.RunCtx(ctx, g, sweep.Options{Parallel: d.opt.LocalParallel})
	if err != nil {
		return nil, err
	}
	return res.Records(), nil
}

// runShard resolves one shard: try members in ring order (each at most
// once, hedging stragglers) until one answers, then fall back to local
// evaluation. The placement key is the shard sub-grid's canonical Key() —
// exactly the identity the worker's result cache stores the shard under —
// so a repeated or overlapping sweep routes each shard back to the member
// whose cache is already warm.
func (d *Dispatcher) runShard(ctx context.Context, g *sweep.Grid, cells []sweep.Cell, r sweep.Range) ([]report.Record, error) {
	// The shard span opens BEFORE the semaphore so fan-out queueing — the
	// first place a saturated coordinator stalls — is visible in the trace.
	ctx, ssp := obs.StartSpan(ctx, "shard")
	ssp.SetAttr("range", fmt.Sprintf("[%d,%d)", r.Start, r.End))
	defer ssp.End()

	// Bounded fan-out lives here so every dispatch path — grid shards and
	// EvalCell's single-cell tuner evaluations alike — shares one budget.
	select {
	case d.sem <- struct{}{}:
		defer func() { <-d.sem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	d.shards.Add(1)
	key := sweep.Subgrid(g, cells, r).Key()
	body, err := json.Marshal(NewShardRequest(g, cells, r))
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding shard: %w", err)
	}
	tried := make(map[*workerState]bool)
	var lastErr error
	for attempt := 0; ; attempt++ {
		w := d.next(key, tried)
		if w == nil {
			break // no untried member admits a request
		}
		tried[w] = true
		if attempt > 0 {
			d.retries.Add(1)
		}
		recs, err := d.attempt(ctx, w, key, tried, body, r.Len())
		if err == nil {
			d.remote.Add(1)
			ssp.SetAttr("outcome", "remote")
			return recs, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
	}
	if d.opt.DisableFallback {
		if lastErr == nil {
			lastErr = fmt.Errorf("cluster: no worker available (all circuits open)")
		}
		return nil, fmt.Errorf("cluster: shard [%d,%d) of %q failed on every worker: %w", r.Start, r.End, g.Name, lastErr)
	}
	d.fallbacks.Add(1)
	ssp.SetAttr("outcome", "fallback")
	return d.localRecords(ctx, sweep.Subgrid(g, cells, r))
}

// attempt posts the shard to primary; if HedgeAfter elapses without an
// answer, a duplicate goes to the next untried member in ring order and
// the first success wins (the loser's request is cancelled). Workers the
// hedge consumes are added to tried.
func (d *Dispatcher) attempt(ctx context.Context, primary *workerState, key string, tried map[*workerState]bool, body []byte, wantLen int) ([]report.Record, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		recs   []report.Record
		err    error
		hedged bool
	}
	ch := make(chan outcome, 2)
	post := func(w *workerState, hedged bool) {
		// One span per wire attempt, worker-attributed; its context is what
		// d.post stamps into the traceparent header, so the worker's own
		// spans parent under exactly this attempt.
		pctx, sp := obs.StartSpan(actx, "attempt")
		sp.SetAttr("worker", w.url)
		if hedged {
			sp.SetAttr("hedged", "true")
		}
		recs, err := d.post(pctx, w, body, wantLen)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		ch <- outcome{recs: recs, err: err, hedged: hedged}
	}
	go post(primary, false)
	inFlight := 1

	var hedgeC <-chan time.Time
	if d.opt.HedgeAfter > 0 {
		t := time.NewTimer(d.opt.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	primaryDone := false
	for inFlight > 0 {
		select {
		case o := <-ch:
			inFlight--
			if !o.hedged {
				primaryDone = true
			}
			if o.err == nil {
				if o.hedged {
					d.hedgeWins.Add(1)
					// The hedge only existed because the primary sat silent
					// past HedgeAfter; losing to it while STILL in flight is
					// evidence of a stuck worker, not of a cancelled caller,
					// so charge the primary's circuit — otherwise a
					// SIGSTOPped worker whose shards are always rescued by
					// healthy siblings would never trip its breaker. A
					// primary that already completed with an error was
					// charged by its own outcome; don't count it twice.
					if !primaryDone {
						primary.chargeSlow(d.opt.FailureThreshold, d.opt.Cooldown, d.now())
					}
				}
				return o.recs, nil
			}
			lastErr = o.err
		case <-hedgeC:
			hedgeC = nil
			if h := d.next(key, tried); h != nil {
				tried[h] = true
				d.hedges.Add(1)
				go post(h, true)
				inFlight++
			}
		}
	}
	return nil, lastErr
}

// post sends one shard request to one worker and decodes the records.
// Outcomes feed the worker's circuit state; attempts aborted by the
// caller's own cancellation (client gone, hedge lost) are neutral — a
// cancelled caller says nothing about worker health — but an attempt that
// hits AttemptTimeout is a failure like any other.
func (d *Dispatcher) post(ctx context.Context, w *workerState, body []byte, wantLen int) ([]report.Record, error) {
	caller := ctx
	if d.opt.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.opt.AttemptTimeout)
		defer cancel()
	}
	w.beginRequest()
	recs, err := func() ([]report.Record, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/api/v1/shard", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		obs.Inject(ctx, req.Header)
		resp, err := d.client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %s: %w", w.url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
			return nil, fmt.Errorf("cluster: worker %s: HTTP %d: %s", w.url, resp.StatusCode, bytes.TrimSpace(msg))
		}
		var recs []report.Record
		if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
			return nil, fmt.Errorf("cluster: worker %s: bad shard response: %w", w.url, err)
		}
		if len(recs) != wantLen {
			return nil, fmt.Errorf("cluster: worker %s: %d records for a %d-cell shard", w.url, len(recs), wantLen)
		}
		return recs, nil
	}()
	switch {
	case err == nil:
		w.endRequest(outcomeSuccess, d.opt.FailureThreshold, d.opt.Cooldown, d.now())
	case caller.Err() != nil:
		w.endRequest(outcomeNeutral, d.opt.FailureThreshold, d.opt.Cooldown, d.now())
	default:
		w.endRequest(outcomeFailure, d.opt.FailureThreshold, d.opt.Cooldown, d.now())
	}
	return recs, err
}

// next chooses the next worker for a shard: the first member in the key's
// ring order — owner, then successors — that has not been tried and whose
// circuit admits a request (closed, or open-with-expired-cooldown handing
// out its single half-open trial). Affinity deliberately outranks load
// here: routing a shard to its warm owner beats spreading it thin, and
// hedging already rescues an owner that turns out to be slow. The
// placement is re-read on every call, so a member that joined or expired
// mid-shard is respected by the very next retry — and an expired member,
// being off the ring, is never proposed at all.
func (d *Dispatcher) next(key string, tried map[*workerState]bool) *workerState {
	now := d.now()
	for {
		var candidate *workerState
		for _, w := range d.placement(key) {
			if tried[w] || !w.peekAdmit(now) {
				continue
			}
			candidate = w
			break
		}
		if candidate == nil {
			return nil
		}
		// Between the survey and here another goroutine may have consumed
		// the candidate's half-open trial; re-check under the worker's own
		// lock and re-survey on loss (bounded by the member count).
		if candidate.admit(now, d.opt.Cooldown) {
			return candidate
		}
		tried[candidate] = true
	}
}
