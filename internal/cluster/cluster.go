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
// members leave the placement ranking entirely — selection never proposes
// them again until they rejoin.
//
// Placement is cache-affine (membership.go): each shard's sub-grid key —
// the very identity the worker's result cache stores it under — ranks the
// active members by rendezvous hashing, so repeated and overlapping sweeps
// land each shard on the member whose cache is already warm, keys spread
// evenly over the members, and a membership change moves only the shards
// the joining or leaving member gains or loses. Placement is advisory:
// merged records are placed by cell range, so a response is byte-identical
// whichever worker computes each shard.
//
// Fault model:
//
//   - bounded fan-out: at most max(8, 2 × active members) shard requests are
//     on the wire at once, across every Records call; the bound is re-read
//     at each acquire, so it follows the pool as members join and expire;
//   - retry: a failed shard is retried on a different worker (each worker is
//     tried at most once per shard);
//   - hedging: a shard still unanswered after Options.HedgeAfter is sent to
//     a second worker; the first response wins and the loser is cancelled;
//   - circuit breaking: a worker with 3 consecutive failures is skipped for
//     5 s, then allowed one half-open trial (Probe can also close the
//     circuit early via /healthz);
//   - attempt deadline: a single worker request is abandoned (and counted
//     as a failure) after 2 min, so a worker that hangs without erroring
//     cannot wedge a shard past retry and fallback;
//   - local fallback: a shard every worker failed is evaluated in-process,
//     so a coordinator degrades to single-node behavior rather than failing
//     the request.
//
// Cancellation propagates end to end: the caller's context flows into every
// shard request, workers observe the closed connection and stop their sweep
// at the next cell boundary, and the dispatcher returns the context error.
//
// Records is the one dispatch path, and it alone decides whether a grid
// goes remote: sweeps and tuner candidate batches alike arrive as grids and
// shard the same way. Only grids whose cells are fully described by (label,
// config, method) can cross the wire — sweep.Shardable gates dispatch, and
// grids with custom cell Eval closures are evaluated locally instead, as
// are empty and single-cell grids, for which a round trip buys nothing. A
// worker's answer must name the shard's cells: one record per cell,
// carrying that cell's label and the grid's name, in order, or the attempt
// fails like any bad response.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vocabpipe/internal/obs"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sweep"
)

// Options configures a Dispatcher with what a deployment sets; the fault
// parameters are the package constants below.
type Options struct {
	// Workers are the SEED worker base URLs ("http://host:port"; a bare
	// "host:port" gets the scheme prepended). Seeds are ordinary members in
	// every way except death: an expired seed parks in a dormant set the
	// prober keeps watching, so a revived seed rejoins without calling the
	// join API. The list may be empty: members then join at runtime through
	// Join, and until one does every grid evaluates in process.
	Workers []string
	// MemberTTL expires a member whose last sign of life — join/heartbeat,
	// successful probe or successful request — is older than this, checked
	// on every Probe pass (default 30s; negative disables expiry). An
	// expired member leaves the placement ranking entirely: shard selection
	// never proposes it again until it rejoins.
	MemberTTL time.Duration
	// HedgeAfter is how long a shard request may go unanswered before a
	// duplicate is sent to another worker (default 2s; negative disables).
	HedgeAfter time.Duration
	// LocalParallel is the sweep worker count for grids evaluated in
	// process, fallback included (default GOMAXPROCS, the sweep engine's
	// own default).
	LocalParallel int
}

const (
	// shardsPerWorker scales shard granularity: a grid splits into
	// min(cells, members × shardsPerWorker) shards. Finer shards cost more
	// round trips but make retries cheaper and stragglers smaller.
	shardsPerWorker = 4
	// minFanOut floors the fan-out bound, max(minFanOut, 2 × active
	// members), so a small pool still overlaps its shards.
	minFanOut = 8
	// failureThreshold consecutive failures open a worker's circuit.
	failureThreshold = 3
	// cooldown is how long an open circuit skips its worker before a
	// half-open trial.
	cooldown = 5 * time.Second
	// attemptTimeout is the hard deadline on a single worker request.
	// Hedging handles ordinary stragglers long before this fires — the
	// deadline exists so a worker that hangs without closing its connection
	// (SIGSTOP, network partition) still counts as a failure and the shard
	// moves on to retry and, ultimately, local fallback instead of wedging
	// the request forever.
	attemptTimeout = 2 * time.Minute
	// idleConnsPerHost is how many idle connections the dispatcher keeps to
	// each member: the fan-out bound of a 32-member pool, so a warm sweep
	// finds a pooled connection for every shard it sends to one member,
	// where net/http's default of 2 redials the rest each time.
	idleConnsPerHost = 64
)

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
	now    func() time.Time
	// shardsPerWorker and attemptTimeout start as the package constants;
	// this package's tests lower them for a finer split or a faster
	// deadline.
	shardsPerWorker int
	attemptTimeout  time.Duration

	// mu guards the membership registry (see membership.go) and the
	// fan-out slots. members is the active pool; dormant holds expired
	// seeds the prober keeps watching. onWire counts the shards holding a
	// slot, across every Records call, so concurrent sweeps and tuner
	// batches share one bound; freed, when a shard waits for a slot, is
	// closed as a slot frees or a member joins.
	mu      sync.RWMutex
	members map[string]*workerState
	dormant map[string]*workerState
	onWire  int
	freed   chan struct{}

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
// callers validate user input with NormalizeURL first.
func New(opt Options) *Dispatcher {
	if opt.HedgeAfter == 0 {
		opt.HedgeAfter = 2 * time.Second
	}
	if opt.MemberTTL == 0 {
		opt.MemberTTL = 30 * time.Second
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = 0 // no cap across members
	transport.MaxIdleConnsPerHost = idleConnsPerHost
	d := &Dispatcher{
		opt:             opt,
		client:          &http.Client{Transport: transport},
		now:             time.Now,
		shardsPerWorker: shardsPerWorker,
		attemptTimeout:  attemptTimeout,
		members:         make(map[string]*workerState),
		dormant:         make(map[string]*workerState),
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

// Records evaluates the grid and returns its records in expansion order —
// the same slice sweep.Records yields, byte-for-byte once serialized. It
// alone decides where a grid runs: one that is empty, has a single cell or
// cannot be sharded (custom cell Eval closures), or that meets an empty
// pool, is evaluated in process; any other shards across the pool. The
// span in ctx gets a "path" attribute, local or cluster, naming the choice.
// onRecord, when non-nil, is called with each cell's expansion index and
// record as it lands (cell by cell in process, shard by shard otherwise;
// calls may run concurrently); a failed Records call may have reported some
// cells already.
func (d *Dispatcher) Records(ctx context.Context, g *sweep.Grid, onRecord func(i int, rec report.Record)) ([]report.Record, error) {
	span := obs.SpanFromContext(ctx)
	members := d.memberCount()
	if g.NumCells() <= 1 || members == 0 || !sweep.Shardable(g) {
		span.SetAttr("path", "local")
		return sweep.Records(ctx, g, d.opt.LocalParallel, onRecord)
	}
	span.SetAttr("path", "cluster")
	cells := g.Expand()
	ranges := sweep.SplitCells(len(cells), members*d.shardsPerWorker)

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
			land(onRecord, r.Start, shards[i])
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

// land reports a resolved shard's records, which start at expansion index
// start, to onRecord. A failed shard has none.
func land(onRecord func(int, report.Record), start int, recs []report.Record) {
	if onRecord == nil {
		return
	}
	for j := range recs {
		onRecord(start+j, recs[j])
	}
}

// runShard resolves one shard: try members in placement order (each at most
// once, hedging stragglers) until one answers, then fall back to local
// evaluation. The placement key is the shard sub-grid's canonical Key() —
// exactly the identity the worker's result cache stores the shard under —
// so a repeated or overlapping sweep routes each shard back to the member
// whose cache is already warm.
func (d *Dispatcher) runShard(ctx context.Context, g *sweep.Grid, cells []sweep.Cell, r sweep.Range) ([]report.Record, error) {
	// The shard span opens BEFORE the slot wait so fan-out queueing — the
	// first place a saturated coordinator stalls — is visible in the trace.
	ctx, ssp := obs.StartSpan(ctx, "shard")
	ssp.SetAttr("range", fmt.Sprintf("[%d,%d)", r.Start, r.End))
	defer ssp.End()

	// The slot is taken before the first attempt, so a queued shard never
	// starts a hedge timer.
	if err := d.acquire(ctx); err != nil {
		return nil, err
	}
	defer d.release()
	d.shards.Add(1)
	key := sweep.Subgrid(g, cells, r).Key()
	req := NewShardRequest(g, cells, r)
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding shard: %w", err)
	}
	tried := make(map[*workerState]bool)
	for attempt := 0; ; attempt++ {
		w := d.next(key, tried)
		if w == nil {
			break // no untried member admits a request
		}
		tried[w] = true
		if attempt > 0 {
			d.retries.Add(1)
		}
		if recs, err := d.attempt(ctx, w, key, tried, req, body); err == nil {
			d.remote.Add(1)
			ssp.SetAttr("outcome", "remote")
			return recs, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	d.fallbacks.Add(1)
	ssp.SetAttr("outcome", "fallback")
	return sweep.Records(ctx, sweep.Subgrid(g, cells, r), d.opt.LocalParallel, nil)
}

// acquire waits for a fan-out slot. The bound, max(minFanOut, 2 × active
// members), is read from the live pool at each try, so a join lets waiting
// shards through at once.
func (d *Dispatcher) acquire(ctx context.Context) error {
	d.mu.Lock()
	for d.onWire >= max(minFanOut, 2*len(d.members)) {
		if d.freed == nil {
			d.freed = make(chan struct{})
		}
		freed := d.freed
		d.mu.Unlock()
		select {
		case <-freed:
		case <-ctx.Done():
			return ctx.Err()
		}
		d.mu.Lock()
	}
	d.onWire++
	d.mu.Unlock()
	return nil
}

// release returns a fan-out slot.
func (d *Dispatcher) release() {
	d.mu.Lock()
	d.onWire--
	d.wakeLocked()
	d.mu.Unlock()
}

// wakeLocked wakes every shard waiting for a slot; each re-checks the bound.
// d.mu must be held.
func (d *Dispatcher) wakeLocked() {
	if d.freed != nil {
		close(d.freed)
		d.freed = nil
	}
}

// attempt posts the shard (req, encoded as body) to primary; if HedgeAfter
// elapses without an answer, a duplicate goes to the next untried member in
// placement order and the first success wins (the loser's request is
// cancelled). Workers the hedge consumes are added to tried.
func (d *Dispatcher) attempt(ctx context.Context, primary *workerState, key string, tried map[*workerState]bool, req ShardRequest, body []byte) ([]report.Record, error) {
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
		recs, err := d.post(pctx, w, req, body)
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
						primary.chargeSlow(d.now())
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

// recordBytes bounds one shard record's JSON beyond its cell's label. A
// worker answers a shard with one record per cell; a record echoes the
// label, which the request body already holds, and adds the grid's name
// (one the code defines, never client input), a model and a method name,
// nine numbers and a simulation error message, indented: all well inside
// 4 KiB. So a response longer than the body plus recordBytes per cell is no
// shard response, and post stops reading there instead of buffering
// whatever an unauthenticated joiner streams until the attempt times out.
const recordBytes = 4 << 10

// post sends one shard request (req, encoded as body) to one worker and
// decodes the records, at most body plus recordBytes per cell of them. The
// answer must name the shard's cells — one record per cell, in order, each
// with its cell's label and the grid's name — since any process can join
// the pool. Outcomes feed the worker's circuit state; attempts aborted by
// the caller's own cancellation (client gone, hedge lost) are neutral — a
// cancelled caller says nothing about worker health — but an attempt that
// hits the attempt deadline is a failure like any other.
func (d *Dispatcher) post(ctx context.Context, w *workerState, req ShardRequest, body []byte) ([]report.Record, error) {
	caller := ctx
	ctx, cancel := context.WithTimeout(ctx, d.attemptTimeout)
	defer cancel()
	w.beginRequest()
	recs, err := func() ([]report.Record, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/api/v1/shard", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		obs.Inject(ctx, hreq.Header)
		resp, err := d.client.Do(hreq)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %s: %w", w.url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
			return nil, fmt.Errorf("cluster: worker %s: HTTP %d: %s", w.url, resp.StatusCode, bytes.TrimSpace(msg))
		}
		var recs []report.Record
		limit := int64(len(body)) + int64(len(req.Cells))*recordBytes
		lr := &io.LimitedReader{R: resp.Body, N: limit + 1}
		if err := json.NewDecoder(lr).Decode(&recs); err != nil {
			if lr.N == 0 {
				return nil, fmt.Errorf("cluster: worker %s: shard response exceeds %d bytes", w.url, limit)
			}
			return nil, fmt.Errorf("cluster: worker %s: bad shard response: %w", w.url, err)
		}
		if len(recs) != len(req.Cells) {
			return nil, fmt.Errorf("cluster: worker %s: %d records for a %d-cell shard", w.url, len(recs), len(req.Cells))
		}
		for i := range recs {
			if recs[i].Label != req.Cells[i].Label || recs[i].Experiment != req.Grid {
				return nil, fmt.Errorf("cluster: worker %s: record %d names cell %.64q of %.64q, want %q of %q",
					w.url, i, recs[i].Label, recs[i].Experiment, req.Cells[i].Label, req.Grid)
			}
		}
		return recs, nil
	}()
	switch {
	case err == nil:
		w.endRequest(outcomeSuccess, d.now())
	case caller.Err() != nil:
		w.endRequest(outcomeNeutral, d.now())
	default:
		w.endRequest(outcomeFailure, d.now())
	}
	return recs, err
}

// next chooses the next worker for a shard: the first member in the key's
// placement order — owner, then the rest by rank — that has not been tried
// and whose circuit admits a request (closed, or open-with-expired-cooldown
// handing out its single half-open trial). admit is asked once per
// candidate and stops at the first grant, so no trial is consumed for a
// worker that is then not used. Affinity deliberately outranks load here:
// routing a shard to its warm owner beats spreading it thin, and hedging
// already rescues an owner that turns out to be slow. The placement is
// re-read on every call, so a member that joined or expired mid-shard is
// respected by the very next retry — and an expired member, being off the
// ranking, is never proposed at all.
func (d *Dispatcher) next(key string, tried map[*workerState]bool) *workerState {
	now := d.now()
	for _, w := range d.placement(key) {
		if !tried[w] && w.admit(now) {
			return w
		}
	}
	return nil
}
