// Package tune is the auto-tuner: a search-based parallelism planner that,
// given a model configuration plus hardware constraints (candidate device
// counts, a per-device memory budget, candidate microbatch counts), searches
// the configuration space (method × devices × microbatches) for the best
// predicted throughput under the calibrated cost model. It turns the
// simulator from "evaluate what I typed" into "tell me what to run".
//
// Three strategies share one evaluation substrate: each candidate batch is
// one grid handed to a records function — the concurrent sweep engine in
// process, or a coordinator's cluster.Dispatcher.Records, which shards it
// over the worker pool — so candidate cells evaluate in parallel and honor
// context cancellation, and the search ranks the report.Records that come
// back:
//
//   - exhaustive: every candidate; the correctness oracle for small spaces.
//   - beam: evaluate every (method, devices) pair at a pivot microbatch
//     count, keep the best BeamWidth pairs, then expand only those across the
//     microbatch axis. Evaluates a fraction of the space.
//   - anneal: a budgeted random walk with simulated-annealing acceptance for
//     spaces too large to enumerate. A budget that covers the space is
//     simulated as one parallel batch before the walk.
//
// Every strategy returns the same Result shape: candidates ranked by the
// objective, the Pareto frontier over (objective score, peak memory, bubble
// fraction) flagged, and evaluation counts so search cost is observable.
// Long searches report progress through Options.OnProgress, which is what
// internal/jobs snapshots for POST /api/v1/optimize polling.
package tune

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
)

// Objective selects the quantity a search maximizes.
type Objective string

const (
	// ObjectiveMFU maximizes model FLOPs utilization — throughput normalized
	// by device count, the paper's headline metric. The default.
	ObjectiveMFU Objective = "mfu"
	// ObjectiveTokens maximizes raw training throughput in tokens/second,
	// regardless of how many devices it takes.
	ObjectiveTokens Objective = "tokens"
)

// Guard rails mirrored by the serving layer: a parsed spec past these bounds
// fails Validate, so neither /api/v1/optimize nor vpbench -tune can be asked to
// enumerate an unbounded space.
const (
	// MaxSpace bounds the full cross-product size.
	MaxSpace = 4096
	// MaxDevices bounds any single candidate's device count.
	MaxDevices = 1024
	// MaxMicro bounds any single candidate's microbatch count.
	MaxMicro = 4096
)

// Spec declares a tuning problem: the base model, the candidate axes, and
// the constraints/knobs. Construct via ParseSpec, a named scenario
// (internal/experiments), or literal fields + Validate.
type Spec struct {
	// Name identifies the scenario in labels, jobs and reports.
	Name string
	// Base is the model configuration searched around; candidate devices and
	// microbatch counts override its Devices/NumMicro per candidate.
	Base costmodel.Config
	// Devices are the candidate pipeline device counts, ascending.
	Devices []int
	// Micros are the candidate microbatches-per-iteration counts, ascending.
	Micros []int
	// Methods are the candidate parallelization methods (the layout axis:
	// each method fixes a pipeline shape and vocabulary placement).
	Methods []sim.Method
	// MemBudgetBytes is the per-device memory budget; candidates above it are
	// infeasible. Zero means the device model's HBM capacity.
	MemBudgetBytes float64
	// Objective is what the search maximizes (default ObjectiveMFU).
	Objective Objective
	// BeamWidth is how many (method, devices) pairs survive the beam's first
	// stage (default 4).
	BeamWidth int
	// Budget caps the anneal strategy's simulated candidates (default 48).
	Budget int
	// Seed drives the anneal strategy's random walk (default 1), so a given
	// spec always searches the same trajectory.
	Seed int64
}

// withDefaults returns a copy with the documented defaults applied.
func (s *Spec) withDefaults() *Spec {
	out := *s
	if out.Name == "" {
		out.Name = "custom"
	}
	if len(out.Devices) == 0 {
		out.Devices = []int{out.Base.Devices}
	}
	if len(out.Micros) == 0 {
		out.Micros = []int{out.Base.NumMicro}
	}
	if len(out.Methods) == 0 {
		out.Methods = sim.AllMethods
	}
	// Dedup the method axis (parsers don't): duplicates would inflate the
	// space and, worse, convince the anneal neighbor move that a distinct
	// method exists when none does — an unbounded spin.
	seen := map[sim.Method]bool{}
	methods := out.Methods[:0:0]
	for _, m := range out.Methods {
		if !seen[m] {
			seen[m] = true
			methods = append(methods, m)
		}
	}
	out.Methods = methods
	// Normalize the numeric axes into fresh sorted, deduped slices: beam's
	// pivot is defined as the largest microbatch count and anneal's
	// stepAlong binary-searches the axis, so an unsorted literal Spec would
	// silently degrade both. Copies, so the caller's slices are untouched.
	out.Devices = sortedUnique(out.Devices)
	out.Micros = sortedUnique(out.Micros)
	if out.MemBudgetBytes == 0 {
		out.MemBudgetBytes = costmodel.DeviceMemoryBytes
	}
	if out.Objective == "" {
		out.Objective = ObjectiveMFU
	}
	if out.BeamWidth == 0 {
		out.BeamWidth = 4
	}
	if out.Budget == 0 {
		out.Budget = 48
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return &out
}

// Defaulted returns the spec as a search will actually see it: defaults
// materialized and axes deduplicated. Serving layers must apply their
// request caps to this view — the raw fields can be empty and still default
// to a large configuration.
func (s *Spec) Defaulted() *Spec {
	return s.withDefaults()
}

// sortedUnique returns a fresh ascending slice without duplicates.
func sortedUnique(vals []int) []int {
	out := append([]int(nil), vals...)
	sort.Ints(out)
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// Validate applies the guard rails after defaulting. It is what the serving
// layer and the CLI call before spending compute on a spec.
func (s *Spec) Validate() error {
	d := s.withDefaults()
	if d.Base.Name == "" || d.Base.Layers <= 0 {
		return fmt.Errorf("tune: spec has no base model configuration")
	}
	switch d.Objective {
	case ObjectiveMFU, ObjectiveTokens:
	default:
		return fmt.Errorf("tune: unknown objective %q (want %s or %s)", d.Objective, ObjectiveMFU, ObjectiveTokens)
	}
	for _, v := range d.Devices {
		if v <= 0 || v > MaxDevices {
			return fmt.Errorf("tune: candidate device count %d out of range [1, %d]", v, MaxDevices)
		}
	}
	for _, v := range d.Micros {
		if v <= 0 || v > MaxMicro {
			return fmt.Errorf("tune: candidate microbatch count %d out of range [1, %d]", v, MaxMicro)
		}
	}
	if s := d.SpaceSize(); s > MaxSpace {
		return fmt.Errorf("tune: search space has %d candidates, limit %d", s, MaxSpace)
	}
	if d.BeamWidth < 1 || d.Budget < 1 {
		return fmt.Errorf("tune: beam width and budget must be positive")
	}
	return nil
}

// SpaceSize is the full cross-product candidate count.
func (s *Spec) SpaceSize() int {
	d := s.withDefaults()
	return len(d.Devices) * len(d.Micros) * len(d.Methods)
}

// Candidate is one point of the search space.
type Candidate struct {
	Method  sim.Method
	Devices int
	Micro   int
}

// Label is the candidate's canonical identity within a scenario.
func (c Candidate) Label() string {
	return fmt.Sprintf("d%d/m%d/%s", c.Devices, c.Micro, c.Method)
}

// config derives the simulated configuration for the candidate.
func (s *Spec) config(c Candidate) costmodel.Config {
	cfg := s.Base
	cfg.Devices = c.Devices
	cfg.NumMicro = c.Micro
	return cfg
}

// candidates enumerates the full space in deterministic order
// (methods × devices × micros, ascending axes).
func (s *Spec) candidates() []Candidate {
	out := make([]Candidate, 0, s.SpaceSize())
	for _, m := range s.Methods {
		for _, d := range s.Devices {
			for _, mb := range s.Micros {
				out = append(out, Candidate{Method: m, Devices: d, Micro: mb})
			}
		}
	}
	return out
}

// Ranked is one evaluated candidate in a Result, JSON-shaped for the
// /api/v1/jobs response and `vpbench -tune -json`.
type Ranked struct {
	// Rank is 1-based among feasible candidates; 0 for infeasible ones.
	Rank    int    `json:"rank,omitempty"`
	Label   string `json:"label"`
	Method  string `json:"method"`
	Devices int    `json:"devices"`
	Micro   int    `json:"micro"`
	// Feasible: simulated successfully within the memory budget.
	Feasible bool `json:"feasible"`
	// Pareto: on the frontier over (score, peak memory, bubble) among
	// feasible candidates.
	Pareto bool `json:"pareto,omitempty"`
	// Score is the objective value (MFU fraction or tokens/sec).
	Score        float64 `json:"score,omitempty"`
	IterTimeS    float64 `json:"iter_time_s,omitempty"`
	MFUPct       float64 `json:"mfu_pct,omitempty"`
	TokensPerSec float64 `json:"tokens_per_sec,omitempty"`
	PeakMemGB    float64 `json:"peak_mem_gb,omitempty"`
	BubblePct    float64 `json:"bubble_pct,omitempty"`
	OOM          bool    `json:"oom,omitempty"`
	// Error explains an infeasible candidate (layout error, over budget).
	Error string `json:"error,omitempty"`
}

// Result is a completed search: every evaluated candidate ranked by the
// objective (feasible first, best to worst; infeasible trail in label
// order), plus the search's cost accounting.
type Result struct {
	Scenario  string    `json:"scenario"`
	Strategy  Strategy  `json:"strategy"`
	Objective Objective `json:"objective"`
	// SpaceSize is the full cross-product size; Evaluated is how many
	// candidates the strategy ranked (the search's cost): those it
	// simulated, or for an anneal whose budget covers the space, those its
	// walk visited among the batch it simulated (Progress.Done counts the
	// simulations).
	SpaceSize int `json:"space_size"`
	Evaluated int `json:"evaluated"`
	Feasible  int `json:"feasible"`
	// Best duplicates the top-ranked feasible candidate for one-line access.
	Best       *Ranked  `json:"best,omitempty"`
	Candidates []Ranked `json:"candidates"`
}

// evaluated pairs a candidate with its cell's record.
type evaluated struct {
	cand Candidate
	rec  report.Record
}

// rankedOf converts one evaluation into its report row. Every number is
// the record's own, or derived from its IterTimeS by the expression sim
// uses (the MFU score is Config.MFU of the iteration time), and the GiB
// scale is a power of two, so a row ranks bit-identically whichever
// process simulated its cell.
func (s *Spec) rankedOf(e evaluated) Ranked {
	rk := Ranked{
		Label:   e.cand.Label(),
		Method:  e.cand.Method.String(),
		Devices: e.cand.Devices,
		Micro:   e.cand.Micro,
	}
	r := &e.rec
	if r.Error != "" {
		rk.Error = r.Error
		return rk
	}
	cfg := s.config(e.cand)
	rk.IterTimeS = r.IterTimeS
	rk.MFUPct = r.MFUPct
	rk.PeakMemGB = r.PeakMemGB
	rk.BubblePct = r.BubblePct
	rk.OOM = r.OOM
	if r.IterTimeS > 0 {
		rk.TokensPerSec = float64(cfg.Seq) * float64(cfg.MicroBatch) * float64(cfg.NumMicro) / r.IterTimeS
	}
	if r.PeakMemGB*costmodel.GiB > s.MemBudgetBytes {
		rk.Error = fmt.Sprintf("peak memory %.1f GB exceeds the %.1f GB budget",
			rk.PeakMemGB, s.MemBudgetBytes/costmodel.GiB)
		return rk
	}
	rk.Feasible = true
	switch s.Objective {
	case ObjectiveTokens:
		rk.Score = rk.TokensPerSec
	default: // ObjectiveMFU
		rk.Score = cfg.MFU(r.IterTimeS)
	}
	return rk
}

// assemble ranks the evaluations into a Result: feasible candidates by
// descending score (label ascending on ties, so ordering is total and
// deterministic), infeasible candidates trailing in label order, Pareto
// frontier flagged.
func (s *Spec) assemble(strategy Strategy, evals []evaluated) *Result {
	res := &Result{
		Scenario:  s.Name,
		Strategy:  strategy,
		Objective: s.Objective,
		SpaceSize: s.SpaceSize(),
		Evaluated: len(evals),
	}
	for _, e := range evals {
		res.Candidates = append(res.Candidates, s.rankedOf(e))
	}
	sort.SliceStable(res.Candidates, func(i, j int) bool {
		return rankedLess(res.Candidates[i], res.Candidates[j])
	})
	for i := range res.Candidates {
		if !res.Candidates[i].Feasible {
			break
		}
		res.Feasible++
		res.Candidates[i].Rank = res.Feasible
	}
	markPareto(res.Candidates[:res.Feasible])
	if res.Feasible > 0 {
		best := res.Candidates[0]
		res.Best = &best
	}
	return res
}

// rankedLess is THE ranking order: feasible before infeasible, then score
// descending, then label ascending — a total order, so every strategy's
// result (and the beam's survivor pruning) sorts identically.
func rankedLess(a, b Ranked) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	if a.Feasible && a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Label < b.Label
}

// markPareto flags the non-dominated feasible candidates: maximize score,
// minimize peak memory, minimize bubble fraction. A candidate is dominated
// when another is at least as good on all three axes and strictly better on
// one.
func markPareto(feasible []Ranked) {
	for i := range feasible {
		dominated := false
		for j := range feasible {
			if i == j {
				continue
			}
			a, b := &feasible[j], &feasible[i]
			if a.Score >= b.Score && a.PeakMemGB <= b.PeakMemGB && a.BubblePct <= b.BubblePct &&
				(a.Score > b.Score || a.PeakMemGB < b.PeakMemGB || a.BubblePct < b.BubblePct) {
				dominated = true
				break
			}
		}
		feasible[i].Pareto = !dominated
	}
}

// evaluate hands the candidates to opt.Records as one grid (one cell per
// candidate, labelled by Candidate.Label), or to sweep.Records when it is
// nil. Each record is folded into t as it lands; the batch returns in
// candidate order.
func (s *Spec) evaluate(ctx context.Context, cands []Candidate, opt Options, t *tracker) ([]evaluated, error) {
	g := &sweep.Grid{Name: "tune/" + s.Name, Cells: make([]sweep.Cell, len(cands))}
	for i, c := range cands {
		g.Cells[i] = sweep.Cell{Label: c.Label(), Config: s.config(c), Method: c.Method}
	}
	onRecord := func(i int, rec report.Record) { t.onRecord(cands[i], rec) }
	var recs []report.Record
	var err error
	if opt.Records != nil {
		recs, err = opt.Records(ctx, g, onRecord)
	} else {
		recs, err = sweep.Records(ctx, g, opt.Parallel, onRecord)
	}
	if err != nil {
		return nil, err
	}
	out := make([]evaluated, len(cands))
	for i := range cands {
		out[i] = evaluated{cand: cands[i], rec: recs[i]}
	}
	return out, nil
}

// WriteTable renders the ranked result as the fixed-width text table both
// `vpbench -tune` and examples print.
func WriteTable(w io.Writer, r *Result) error {
	if _, err := fmt.Fprintf(w, "tune %s: strategy=%s objective=%s space=%d evaluated=%d feasible=%d\n",
		r.Scenario, r.Strategy, r.Objective, r.SpaceSize, r.Evaluated, r.Feasible); err != nil {
		return err
	}
	if r.Feasible == 0 {
		fmt.Fprintln(w, "no feasible configuration found")
	} else {
		fmt.Fprintf(w, "%4s  %-28s %7s %12s %9s %8s  %s\n",
			"rank", "config", "MFU%", "tokens/s", "mem GB", "bubble%", "pareto")
		for _, c := range r.Candidates[:r.Feasible] {
			mark := ""
			if c.Pareto {
				mark = "*"
			}
			if _, err := fmt.Fprintf(w, "%4d  %-28s %7.2f %12.4g %9.1f %8.2f  %s\n",
				c.Rank, c.Label, c.MFUPct, c.TokensPerSec, c.PeakMemGB, c.BubblePct, mark); err != nil {
				return err
			}
		}
	}
	for _, c := range r.Candidates[r.Feasible:] {
		if _, err := fmt.Fprintf(w, "  infeasible %-28s %s\n", c.Label, c.Error); err != nil {
			return err
		}
	}
	return nil
}

// QualityRatio compares two searches' best scores (this/oracle), the metric
// perfbench reports as tune.quality_pct: how close a budgeted search lands to
// the exhaustive optimum. Returns NaN when either search found nothing.
func QualityRatio(got, oracle *Result) float64 {
	if got.Best == nil || oracle.Best == nil || oracle.Best.Score == 0 {
		return math.NaN()
	}
	return got.Best.Score / oracle.Best.Score
}
