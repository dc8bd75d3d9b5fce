// Package load is vpserve's built-in load generator: one engine that drives
// GET requests against a URL and feeds one ledger and one report — the k6
// shape of several executors feeding a single metrics pipeline. Only how
// iterations start differs:
//
//   - Closed loop (Options.Scenario nil): VUs workers issue requests back to
//     back until Duration, a new request starting only when the worker's
//     previous one finished. A plain `vpserve -loadtest` runs it.
//   - Open loop (Options.Scenario set, a stage list from ParseStages):
//     arrivals follow the staged rate curve on the wall clock regardless of
//     how many requests are in flight, so a stalled server cannot quietly
//     throttle its own load generator. A bounded VU pool caps client-side
//     concurrency; an arrival that finds every VU busy is DROPPED and
//     counted, never silently deferred, which makes queueing collapse
//     visible.
//
// Accounting rules (the honest version) keep the ledger identities
//
//	Scheduled == Attempts + Dropped
//	Attempts  == OK + NonOK + Errors
//
// in both loops (a closed loop never drops), also after a cancel:
//
//   - Every request issued is an attempt, whether it came back as a
//     response, died in transport or was aborted by the caller's cancel.
//     Offered load (ScheduledRPS) derives from Scheduled, so a server that
//     drops connections cannot inflate its score by shrinking the
//     denominator.
//   - The headline percentiles cover 200-OK responses only: fast error
//     pages are not latency wins, and a shedding server cannot flatter its
//     p99 with quick 503s. Non-OK responses are classified by status and by
//     envelope code instead.
//   - The end of the run stops STARTING requests; requests in flight finish
//     and are counted, so the client-side totals reconcile with the server's
//     own request counters (the CI smoke step cross-checks this against
//     /metrics).
//   - Declarative thresholds (threshold.go), when given, are judged once,
//     on the settled ledger after the last request finished; the per-stage
//     report rows show which stage's latency or errors rose.
package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Options tunes a load run.
type Options struct {
	// Scenario is the staged arrival plan of an open-loop run. Nil runs a
	// closed loop for Duration.
	Scenario *Scenario
	// VUs bounds client-side concurrency (default 4 in a closed loop, 64 in
	// an open loop). In an open loop an arrival that finds every VU busy is
	// dropped and counted.
	VUs int
	// Duration is how long a closed loop keeps starting requests (default
	// 2s); a scenario sets an open loop's length. In-flight requests at the
	// deadline complete and are counted, so a run can end slightly late.
	Duration time.Duration
	// RequestTimeout caps a single request (default 30s). A hit counts as a
	// transport error; it exists so one hung connection cannot wedge a run.
	RequestTimeout time.Duration
	// Thresholds are the SLO gates to judge on the settled ledger (may be
	// empty).
	Thresholds []Threshold
}

// StageReport is one stage's slice of the ledger. A closed-loop run is one
// stage with no target rate.
type StageReport struct {
	Index     int     `json:"index"`
	Target    float64 `json:"target_rps"`
	DurationS float64 `json:"duration_s"`
	Scheduled int     `json:"scheduled"`
	Dropped   int     `json:"dropped"`
	Attempts  int     `json:"attempts"`
	OK        int     `json:"ok"`
	NonOK     int     `json:"non_ok"`
	Errors    int     `json:"errors"`
	// OKRPS is delivered goodput for the stage: OK responses over the
	// stage's duration.
	OKRPS   float64 `json:"ok_rps"`
	OKP50Ms float64 `json:"ok_p50_ms,omitempty"`
	OKP99Ms float64 `json:"ok_p99_ms,omitempty"`
}

// Report is the measured outcome of a run.
type Report struct {
	URL string `json:"url"`
	// Scenario names the arrival plan: "closed-loop", or the open loop's
	// Scenario.Name ("open-loop" for a ParseStages plan).
	Scenario  string  `json:"scenario"`
	MaxVUs    int     `json:"max_vus"`
	DurationS float64 `json:"duration_s"`
	// Scheduled counts every iteration the run started or dropped; it always
	// equals Attempts + Dropped. Offered load (ScheduledRPS) derives from it.
	Scheduled    int     `json:"scheduled"`
	Dropped      int     `json:"dropped"`
	Attempts     int     `json:"attempts"`
	OK           int     `json:"ok"`
	NonOK        int     `json:"non_ok"`
	Errors       int     `json:"errors"`
	ScheduledRPS float64 `json:"scheduled_rps"`
	// OKRPS is delivered goodput: OK responses over wall time.
	OKRPS float64 `json:"ok_rps"`
	// OK-only latency percentiles (fast error pages are not latency wins).
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// StatusCodes counts completed responses by HTTP status.
	StatusCodes map[string]int `json:"status_codes,omitempty"`
	// ErrorCodes counts machine-readable envelope codes decoded from non-OK
	// response bodies ({"error":{"code":...}}), e.g. shed_overload.
	ErrorCodes map[string]int `json:"error_codes,omitempty"`
	// RetryAfter429 counts 429 responses that carried a Retry-After header
	// (the contract says all of them should).
	RetryAfter429 int               `json:"retry_after_429,omitempty"`
	BytesRead     int64             `json:"bytes_read"`
	Stages        []StageReport     `json:"stages"`
	Thresholds    []ThresholdResult `json:"thresholds,omitempty"`
	// ThresholdsOK is the run verdict: every gate holds on the final ledger.
	// Vacuously true when no thresholds were given.
	ThresholdsOK bool `json:"thresholds_ok"`
}

// ledger is the run's single source of truth, shared by the VUs and the
// open-loop scheduler under one mutex.
type ledger struct {
	mu        sync.Mutex
	scheduled int
	dropped   int
	attempts  int
	errors    int
	okLat     []time.Duration
	nonOK     int
	status    map[int]int
	errCodes  map[string]int
	retry429  int
	bytes     int64
	perStage  []stageTally
}

type stageTally struct {
	scheduled, dropped, attempts, nonOK, errors int
	okLat                                       []time.Duration
}

// schedule books one iteration in stage and returns its sequence number,
// which the URL template expands.
func (l *ledger) schedule(stage int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.scheduled++
	l.perStage[stage].scheduled++
	return l.scheduled - 1
}

// counts reads the settled ledger — every VU has returned — into the view
// thresholds evaluate against, sorting the OK latencies in place.
func (l *ledger) counts(elapsed time.Duration) Counts {
	l.mu.Lock()
	defer l.mu.Unlock()
	ok := l.okLat
	c := Counts{
		Scheduled: l.scheduled,
		Dropped:   l.dropped,
		Attempts:  l.attempts,
		Errors:    l.errors,
		OK:        len(ok),
		NonOK:     l.nonOK,
		Shed:      l.status[http.StatusTooManyRequests],
		ElapsedS:  elapsed.Seconds(),
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
	if len(ok) > 0 {
		c.OKP50Ms = ms(Percentile(ok, 0.50))
		c.OKP90Ms = ms(Percentile(ok, 0.90))
		c.OKP99Ms = ms(Percentile(ok, 0.99))
		c.OKMaxMs = ms(ok[len(ok)-1])
	}
	return c
}

// urlFunc expands the per-iteration URL. Templates substitute `{i}` with the
// iteration number and `{OFF+i%MOD}` with OFF+(i mod MOD) — the latter is
// how a loadtest sweeps a bounded family of distinct cache keys (cold
// computes) instead of hammering one warmed entry, e.g.
// `...&grid=model=4B;...;micro={64+i%199}`.
type urlFunc func(i int) string

// NewURLTemplate compiles a URL template into its per-iteration expansion.
// A URL without placeholders expands to itself.
func NewURLTemplate(raw string) (urlFunc, error) {
	open := strings.IndexByte(raw, '{')
	if open < 0 {
		return func(int) string { return raw }, nil
	}
	closing := strings.IndexByte(raw[open:], '}')
	if closing < 0 {
		return nil, fmt.Errorf("url template %q: unclosed '{'", raw)
	}
	expr := raw[open+1 : open+closing]
	prefix, suffix := raw[:open], raw[open+closing+1:]
	if strings.ContainsAny(suffix, "{}") {
		return nil, fmt.Errorf("url template %q: at most one {...} placeholder", raw)
	}
	if expr == "i" {
		return func(i int) string { return prefix + strconv.Itoa(i) + suffix }, nil
	}
	// OFF+i%MOD
	offStr, rest, ok := strings.Cut(expr, "+i%")
	if !ok {
		return nil, fmt.Errorf("url template %q: placeholder must be {i} or {OFF+i%%MOD}", raw)
	}
	off, err1 := strconv.Atoi(strings.TrimSpace(offStr))
	mod, err2 := strconv.Atoi(strings.TrimSpace(rest))
	if err1 != nil || err2 != nil || mod <= 0 {
		return nil, fmt.Errorf("url template %q: bad {OFF+i%%MOD} placeholder", raw)
	}
	return func(i int) string { return prefix + strconv.Itoa(off+i%mod) + suffix }, nil
}

// iteration is one scheduled arrival handed to a VU.
type iteration struct {
	seq   int
	stage int
}

// Run drives url (a template; see NewURLTemplate) in a closed loop, or along
// Options.Scenario in an open loop, and returns the merged report. It
// returns an error only for unusable inputs — a run whose requests fail is
// still a valid measurement and is reported, with thresholds deciding
// pass/fail.
func Run(ctx context.Context, url string, opt Options) (*Report, error) {
	sc := opt.Scenario
	if sc == nil {
		if opt.Duration <= 0 {
			opt.Duration = 2 * time.Second
		}
		sc = &Scenario{Name: "closed-loop", Stages: []Stage{{Duration: opt.Duration}}}
	} else if err := sc.Validate(); err != nil {
		return nil, err
	}
	urlAt, err := NewURLTemplate(url)
	if err != nil {
		return nil, err
	}
	if opt.VUs <= 0 {
		opt.VUs = 64
		if opt.Scenario == nil {
			opt.VUs = 4
		}
	}
	if opt.RequestTimeout <= 0 {
		opt.RequestTimeout = 30 * time.Second
	}
	led := &ledger{
		status:   make(map[int]int),
		errCodes: make(map[string]int),
		perStage: make([]stageTally, len(sc.Stages)),
	}
	start := time.Now()

	iterate := func(it iteration) {
		runIteration(ctx, urlAt(it.seq), it.stage, opt.RequestTimeout, led)
	}
	var vus sync.WaitGroup
	if opt.Scenario == nil {
		// Closed loop: the deadline gates STARTING a request; the one in
		// flight runs to completion so its outcome is counted.
		deadline := start.Add(opt.Duration)
		for v := 0; v < opt.VUs; v++ {
			vus.Add(1)
			go func() {
				defer vus.Done()
				for ctx.Err() == nil && time.Now().Before(deadline) {
					iterate(iteration{seq: led.schedule(0)})
				}
			}()
		}
	} else {
		// Open loop. tokens is UNBUFFERED on purpose: a non-blocking send
		// succeeds only when a VU is parked on the receive right now, so
		// saturation at an arrival instant becomes a counted drop instead of
		// hidden queueing inside the load generator.
		tokens := make(chan iteration)
		for v := 0; v < opt.VUs; v++ {
			vus.Add(1)
			go func() {
				defer vus.Done()
				for it := range tokens {
					iterate(it)
				}
			}()
		}
		schedule(ctx, sc, start, tokens, led)
		close(tokens)
	}
	vus.Wait() // in-flight requests complete and are counted
	return buildReport(url, sc, opt.VUs, led, opt.Thresholds, time.Since(start)), nil
}

// schedule walks the open-loop arrival schedule on absolute offsets,
// handing each arrival to an idle VU or counting it dropped. Lateness
// (timer overshoot, bursty catch-up) does not compound — the next arrival
// is always start+offset, so late injections fire back to back and the
// average rate holds.
func schedule(ctx context.Context, sc *Scenario, start time.Time, tokens chan<- iteration, led *ledger) {
	gen := &arrivalGen{sc: sc}
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		off, stage, ok := gen.next()
		if !ok {
			return
		}
		if wait := time.Until(start.Add(off)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return
			}
		} else if ctx.Err() != nil {
			return
		}
		it := iteration{seq: led.schedule(stage), stage: stage}
		select {
		case tokens <- it:
		default:
			led.mu.Lock()
			led.dropped++
			led.perStage[stage].dropped++
			led.mu.Unlock()
		}
	}
}

// runIteration issues one request and records its outcome.
func runIteration(ctx context.Context, url string, stage int, timeout time.Duration, led *ledger) {
	t0 := time.Now()
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err == nil {
		var resp *http.Response
		resp, err = http.DefaultClient.Do(req)
		if err == nil {
			recordResponse(resp, time.Since(t0), stage, led)
			return
		}
	}
	led.mu.Lock()
	led.attempts++
	led.errors++
	led.perStage[stage].attempts++
	led.perStage[stage].errors++
	led.mu.Unlock()
}

// recordResponse drains the body, classifying non-OK responses by their
// envelope code when the body carries one.
func recordResponse(resp *http.Response, lat time.Duration, stage int, led *ledger) {
	var n int64
	var code string
	hasRetryAfter := resp.Header.Get("Retry-After") != ""
	if resp.StatusCode == http.StatusOK {
		n, _ = io.Copy(io.Discard, resp.Body)
	} else {
		// Read (bounded) to classify, then drain the rest for keep-alive.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		rest, _ := io.Copy(io.Discard, resp.Body)
		n = int64(len(body)) + rest
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if json.Unmarshal(body, &env) == nil {
			code = env.Error.Code
		}
	}
	resp.Body.Close()

	led.mu.Lock()
	defer led.mu.Unlock()
	led.attempts++
	led.bytes += n
	led.status[resp.StatusCode]++
	st := &led.perStage[stage]
	st.attempts++
	if resp.StatusCode == http.StatusOK {
		led.okLat = append(led.okLat, lat)
		st.okLat = append(st.okLat, lat)
		return
	}
	led.nonOK++
	st.nonOK++
	if code != "" {
		led.errCodes[code]++
	}
	if resp.StatusCode == http.StatusTooManyRequests && hasRetryAfter {
		led.retry429++
	}
}

// buildReport renders the settled ledger and judges the thresholds on it.
func buildReport(url string, sc *Scenario, vus int, led *ledger, thresholds []Threshold, elapsed time.Duration) *Report {
	final := led.counts(elapsed)
	rep := &Report{
		URL:       url,
		Scenario:  sc.Name,
		MaxVUs:    vus,
		DurationS: elapsed.Seconds(),
		Scheduled: final.Scheduled,
		Dropped:   final.Dropped,
		Attempts:  final.Attempts,
		OK:        final.OK,
		NonOK:     final.NonOK,
		Errors:    final.Errors,
		P50Ms:     final.OKP50Ms,
		P90Ms:     final.OKP90Ms,
		P99Ms:     final.OKP99Ms,
		MaxMs:     final.OKMaxMs,
	}
	if elapsed > 0 {
		rep.ScheduledRPS = float64(rep.Scheduled) / elapsed.Seconds()
		rep.OKRPS = float64(rep.OK) / elapsed.Seconds()
	}
	led.mu.Lock()
	rep.BytesRead = led.bytes
	rep.RetryAfter429 = led.retry429
	if len(led.status) > 0 {
		rep.StatusCodes = make(map[string]int, len(led.status))
		for s, c := range led.status {
			rep.StatusCodes[strconv.Itoa(s)] = c
		}
	}
	if len(led.errCodes) > 0 {
		rep.ErrorCodes = make(map[string]int, len(led.errCodes))
		for k, v := range led.errCodes {
			rep.ErrorCodes[k] = v
		}
	}
	for i, st := range led.perStage {
		sr := StageReport{
			Index:     i,
			Target:    sc.Stages[i].Target,
			DurationS: sc.Stages[i].Duration.Seconds(),
			Scheduled: st.scheduled,
			Dropped:   st.dropped,
			Attempts:  st.attempts,
			OK:        len(st.okLat),
			NonOK:     st.nonOK,
			Errors:    st.errors,
		}
		if sr.DurationS > 0 {
			sr.OKRPS = float64(sr.OK) / sr.DurationS
		}
		if len(st.okLat) > 0 {
			ok := append([]time.Duration(nil), st.okLat...)
			sort.Slice(ok, func(a, b int) bool { return ok[a] < ok[b] })
			sr.OKP50Ms = ms(Percentile(ok, 0.50))
			sr.OKP99Ms = ms(Percentile(ok, 0.99))
		}
		rep.Stages = append(rep.Stages, sr)
	}
	led.mu.Unlock()
	rep.ThresholdsOK = true
	for _, th := range thresholds {
		v, ok := th.Eval(final)
		rep.Thresholds = append(rep.Thresholds, ThresholdResult{Spec: th.Spec, Metric: th.Metric, Value: v, OK: ok})
		rep.ThresholdsOK = rep.ThresholdsOK && ok
	}
	return rep
}

// Percentile returns the q-quantile of a sorted latency slice by the
// nearest-rank method: the smallest element such that at least q·n of the
// samples are ≤ it, i.e. sorted[ceil(q·n)−1]. Exact boundaries therefore
// round toward the lower rank (p50 of 10 samples is the 5th, not the 6th),
// n=1 returns the only sample for every q, and the degenerate inputs are
// total: n=0 returns 0, q≤0 the minimum, q≥1 the maximum.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// WriteJSON emits the report as indented JSON (the machine-readable form the
// CI smoke steps archive).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary is the one-glance human rendering.
func (r *Report) Summary() string {
	verdict := "pass"
	if !r.ThresholdsOK {
		verdict = "FAIL"
	}
	var breaches []string
	for _, t := range r.Thresholds {
		if !t.OK {
			breaches = append(breaches, fmt.Sprintf("%s (value %.4g)", t.Spec, t.Value))
		}
	}
	s := fmt.Sprintf(
		"%s, %d VUs: %d scheduled (%.0f req/s) → %d attempted, %d dropped; %d ok (%.0f req/s), %d non-200, %d errors; ok p50 %.2fms p99 %.2fms max %.2fms; thresholds %s",
		r.Scenario, r.MaxVUs, r.Scheduled, r.ScheduledRPS, r.Attempts, r.Dropped,
		r.OK, r.OKRPS, r.NonOK, r.Errors, r.P50Ms, r.P99Ms, r.MaxMs, verdict)
	if len(breaches) > 0 {
		s += ": " + strings.Join(breaches, ", ")
	}
	return s
}
