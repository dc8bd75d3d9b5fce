// Search strategies: exhaustive (the oracle), beam (staged pruning), anneal
// (budgeted random walk). All hand their candidate batches to one records
// function (Options.Records, the in-process sweep by default) and honor
// context cancellation between cells.
package tune

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"vocabpipe/internal/report"
	"vocabpipe/internal/sweep"
)

// Strategy names a search algorithm.
type Strategy string

const (
	// StrategyExhaustive evaluates the whole space. The correctness oracle.
	StrategyExhaustive Strategy = "exhaustive"
	// StrategyBeam prunes the (method, devices) axes at a pivot microbatch
	// count before expanding the microbatch axis. The default.
	StrategyBeam Strategy = "beam"
	// StrategyAnneal is a seeded simulated-annealing walk under an evaluation
	// budget.
	StrategyAnneal Strategy = "anneal"
)

// Strategies lists every strategy, default first.
func Strategies() []Strategy {
	return []Strategy{StrategyBeam, StrategyExhaustive, StrategyAnneal}
}

// StrategyByName resolves a strategy name. The empty name resolves to the
// default strategy, beam.
func StrategyByName(name string) (Strategy, bool) {
	if name == "" {
		return StrategyBeam, true
	}
	for _, s := range Strategies() {
		if string(s) == name {
			return s, true
		}
	}
	return "", false
}

// Progress is a point-in-time search snapshot, delivered to
// Options.OnProgress after every simulated candidate.
type Progress struct {
	// Done counts simulated candidates; Total is the strategy's current plan
	// (it can shrink when a beam stage prunes harder than planned).
	Done  int `json:"done"`
	Total int `json:"total"`
	// BestLabel/BestScore track the best feasible candidate so far; empty/0
	// until one exists.
	BestLabel string  `json:"best_label,omitempty"`
	BestScore float64 `json:"best_score,omitempty"`
}

// Options tunes a Search run.
type Options struct {
	// Parallel is the sweep worker count per evaluation batch (<1 means
	// GOMAXPROCS).
	Parallel int
	// OnProgress, when non-nil, observes the search after each simulated
	// candidate. Calls are serialized.
	OnProgress func(Progress)
	// Records, when non-nil, evaluates each candidate batch in place of the
	// in-process sweep.Records: it returns the grid's records in expansion
	// order and calls onRecord (possibly concurrently) once per cell as its
	// record lands. A coordinator vpserve passes cluster.Dispatcher.Records,
	// so a batch shards over the worker pool like any grid. The context is
	// the search's own, so cancelling the search cancels the batch too.
	Records func(ctx context.Context, g *sweep.Grid, onRecord func(i int, rec report.Record)) ([]report.Record, error)
}

// Search runs the strategy over the spec's space and returns the ranked
// result. The spec is defaulted and validated first; ctx cancellation stops
// the search at the next candidate boundary and returns ctx's error.
func Search(ctx context.Context, spec *Spec, strategy Strategy, opt Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := spec.withDefaults()
	switch strategy {
	case StrategyExhaustive:
		return searchExhaustive(ctx, s, opt)
	case StrategyBeam:
		return searchBeam(ctx, s, opt)
	case StrategyAnneal:
		return searchAnneal(ctx, s, opt)
	default:
		return nil, fmt.Errorf("tune: unknown strategy %q (want one of %v)", strategy, Strategies())
	}
}

// tracker accumulates live progress across evaluation batches. Its
// onRecord hook runs as each record lands, so polling clients (the job
// queue) see progress while a batch is still computing.
type tracker struct {
	spec  *Spec
	opt   Options
	mu    sync.Mutex // records can land concurrently
	done  int
	total int
	best  *Ranked
}

// onRecord folds one landed record into the best-so-far and emits a
// progress event. Records may land from several goroutines at once, so the
// fold and the OnProgress emission run under the tracker's lock — which
// also preserves Options.OnProgress's documented "calls are serialized"
// contract.
func (t *tracker) onRecord(c Candidate, rec report.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	if rk := t.spec.rankedOf(evaluated{cand: c, rec: rec}); rk.Feasible && (t.best == nil || rk.Score > t.best.Score) {
		best := rk
		t.best = &best
	}
	if t.opt.OnProgress != nil {
		p := Progress{Done: t.done, Total: t.total}
		if t.best != nil {
			p.BestLabel, p.BestScore = t.best.Label, t.best.Score
		}
		t.opt.OnProgress(p)
	}
}

func searchExhaustive(ctx context.Context, s *Spec, opt Options) (*Result, error) {
	t := &tracker{spec: s, opt: opt, total: s.SpaceSize()}
	evals, err := s.evaluate(ctx, s.candidates(), opt, t)
	if err != nil {
		return nil, err
	}
	return s.assemble(StrategyExhaustive, evals), nil
}

// searchBeam evaluates every (method, devices) pair at the pivot microbatch
// count — the largest, where the pipeline bubble is best amortized and the
// axes' relative order is most representative — keeps the BeamWidth best
// pairs, and expands only those across the remaining microbatch counts. The
// pruned stage evaluates |methods|·|devices| cells; the expansion
// BeamWidth·(|micros|−1), typically a small fraction of the full product.
func searchBeam(ctx context.Context, s *Spec, opt Options) (*Result, error) {
	pivot := s.Micros[len(s.Micros)-1]
	var stageA []Candidate
	for _, m := range s.Methods {
		for _, d := range s.Devices {
			stageA = append(stageA, Candidate{Method: m, Devices: d, Micro: pivot})
		}
	}
	t := &tracker{spec: s, opt: opt,
		total: len(stageA) + min(s.BeamWidth, len(stageA))*(len(s.Micros)-1)}

	evalsA, err := s.evaluate(ctx, stageA, opt, t)
	if err != nil {
		return nil, err
	}

	// Survivors: the best feasible stage-A candidates under the one ranking
	// order (rankedLess, shared with assemble), capped at the beam width.
	ranked := make([]Ranked, len(evalsA))
	byLabel := map[string]Candidate{}
	for i, e := range evalsA {
		ranked[i] = s.rankedOf(e)
		byLabel[ranked[i].Label] = e.cand
	}
	sort.SliceStable(ranked, func(i, j int) bool { return rankedLess(ranked[i], ranked[j]) })
	var survivors []Candidate
	for _, rk := range ranked {
		if !rk.Feasible || len(survivors) >= s.BeamWidth {
			break
		}
		survivors = append(survivors, byLabel[rk.Label])
	}

	var stageB []Candidate
	for _, c := range survivors {
		for _, mb := range s.Micros {
			if mb == pivot {
				continue // already evaluated in stage A
			}
			stageB = append(stageB, Candidate{Method: c.Method, Devices: c.Devices, Micro: mb})
		}
	}
	t.total = len(stageA) + len(stageB)
	evalsB, err := s.evaluate(ctx, stageB, opt, t)
	if err != nil {
		return nil, err
	}
	return s.assemble(StrategyBeam, append(evalsA, evalsB...)), nil
}

// searchAnneal walks the space with single-axis moves under an evaluation
// budget, accepting improvements always and regressions with a cooling
// probability. Deterministic for a given (spec, seed); revisited candidates
// are memoized and do not consume budget.
//
// When the budget covers the whole space, the walk can only stop once it
// has visited every candidate (or at its step bound), so the search first
// simulates the space as one parallel batch and the walk then takes each
// stored result as a fresh visit. The walk, its memo and its budget
// accounting are the same on both paths, so the Result is too; only
// Progress differs, counting the batch's simulations up to SpaceSize.
func searchAnneal(ctx context.Context, s *Spec, opt Options) (*Result, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	all := s.candidates()
	budget := min(s.Budget, len(all))
	t := &tracker{spec: s, opt: opt, total: budget}

	var stored map[Candidate]evaluated
	if budget == len(all) {
		evals, err := s.evaluate(ctx, all, opt, t)
		if err != nil {
			return nil, err
		}
		stored = make(map[Candidate]evaluated, len(evals))
		for _, e := range evals {
			stored[e.cand] = e
		}
	}

	memo := map[Candidate]evaluated{}
	var order []evaluated // evaluation order, for the final assemble
	evalOne := func(c Candidate) (evaluated, bool, error) {
		if e, ok := memo[c]; ok {
			return e, false, nil
		}
		e, ok := stored[c]
		if !ok {
			evals, err := s.evaluate(ctx, []Candidate{c}, opt, t)
			if err != nil {
				return evaluated{}, false, err
			}
			e = evals[0]
		}
		memo[c] = e
		order = append(order, e)
		return e, true, nil
	}
	scoreOf := func(e evaluated) (float64, bool) {
		rk := s.rankedOf(e)
		return rk.Score, rk.Feasible
	}

	// The annealing temperature is relative: a move that loses fraction δ of
	// the current score is accepted with probability exp(-δ/T).
	const t0, decay = 0.10, 0.92

	cur := all[rng.Intn(len(all))]
	curEval, _, err := evalOne(cur)
	if err != nil {
		return nil, err
	}
	curScore, curOK := scoreOf(curEval)
	// stale counts consecutive proposals that hit the memo: once the walk's
	// whole neighborhood has been visited it can no longer consume budget, so
	// it restarts from a random candidate (keeping best-so-far, which lives
	// in the memo). The step bound is a belt-and-braces guarantee of
	// termination even on degenerate spaces.
	stale := 0
	for step := 0; len(memo) < budget && step < 100*budget; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := s.neighbor(cur, rng)
		if stale >= 8 {
			next = all[rng.Intn(len(all))]
			stale = 0
		}
		nextEval, fresh, err := evalOne(next)
		if err != nil {
			return nil, err
		}
		if fresh {
			stale = 0
		} else {
			stale++
		}
		nextScore, nextOK := scoreOf(nextEval)
		accept := false
		switch {
		case !curOK && nextOK:
			accept = true
		case !nextOK:
			accept = !curOK // keep wandering until something is feasible
		case nextScore >= curScore:
			accept = true
		default:
			delta := (curScore - nextScore) / curScore
			temp := t0 * math.Pow(decay, float64(step))
			accept = rng.Float64() < math.Exp(-delta/temp)
		}
		if accept {
			cur, curScore, curOK = next, nextScore, nextOK
		}
	}
	return s.assemble(StrategyAnneal, order), nil
}

// neighbor proposes a move along one randomly chosen axis: an adjacent value
// for the ordered devices/micros axes, any other method for the method axis.
// Single-axis spaces fall through to re-rolling another axis.
func (s *Spec) neighbor(c Candidate, rng *rand.Rand) Candidate {
	for {
		switch rng.Intn(3) {
		case 0:
			if len(s.Methods) > 1 {
				for {
					m := s.Methods[rng.Intn(len(s.Methods))]
					if m != c.Method {
						c.Method = m
						return c
					}
				}
			}
		case 1:
			if len(s.Devices) > 1 {
				c.Devices = stepAlong(s.Devices, c.Devices, rng)
				return c
			}
		case 2:
			if len(s.Micros) > 1 {
				c.Micro = stepAlong(s.Micros, c.Micro, rng)
				return c
			}
		}
		if len(s.Methods) == 1 && len(s.Devices) == 1 && len(s.Micros) == 1 {
			return c // degenerate single-point space
		}
	}
}

// stepAlong moves one position up or down a sorted axis from cur.
func stepAlong(axis []int, cur int, rng *rand.Rand) int {
	i := sort.SearchInts(axis, cur)
	if i >= len(axis) || axis[i] != cur {
		return axis[rng.Intn(len(axis))] // off-axis (shouldn't happen); re-seat
	}
	if i == 0 {
		return axis[1]
	}
	if i == len(axis)-1 {
		return axis[i-1]
	}
	if rng.Intn(2) == 0 {
		return axis[i-1]
	}
	return axis[i+1]
}
