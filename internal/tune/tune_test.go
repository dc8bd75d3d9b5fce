package tune

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
)

// quickSpec mirrors the experiments "4b-quick" scenario without importing
// internal/experiments (which imports this package).
func quickSpec() *Spec {
	cfg, ok := costmodel.ConfigByName("4B")
	if !ok {
		panic("no 4B config")
	}
	return &Spec{
		Name:    "4b-quick",
		Base:    cfg.WithVocab(128 * 1024),
		Devices: []int{8, 16, 32},
		Micros:  []int{32, 64, 128},
		Methods: sim.OneF1BMethods,
	}
}

func mustSearch(t *testing.T, spec *Spec, strategy Strategy, opt Options) *Result {
	t.Helper()
	res, err := Search(context.Background(), spec, strategy, opt)
	if err != nil {
		t.Fatalf("Search(%s): %v", strategy, err)
	}
	return res
}

func TestExhaustiveRanking(t *testing.T) {
	res := mustSearch(t, quickSpec(), StrategyExhaustive, Options{})
	if res.Evaluated != res.SpaceSize || res.SpaceSize != 45 {
		t.Fatalf("evaluated %d of space %d, want all 45", res.Evaluated, res.SpaceSize)
	}
	if res.Feasible == 0 || res.Best == nil {
		t.Fatalf("no feasible candidates: %+v", res)
	}
	// Ranked: feasible first, scores non-increasing, ranks 1..n.
	for i, c := range res.Candidates[:res.Feasible] {
		if !c.Feasible || c.Rank != i+1 {
			t.Errorf("candidate %d: feasible=%v rank=%d", i, c.Feasible, c.Rank)
		}
		if i > 0 && c.Score > res.Candidates[i-1].Score {
			t.Errorf("ranking not sorted: %q (%.4f) after %q (%.4f)",
				c.Label, c.Score, res.Candidates[i-1].Label, res.Candidates[i-1].Score)
		}
	}
	if res.Best.Label != res.Candidates[0].Label {
		t.Errorf("Best = %q, Candidates[0] = %q", res.Best.Label, res.Candidates[0].Label)
	}
	// MFU objective: score is the MFU fraction.
	if got, want := res.Best.Score, res.Best.MFUPct/100; math.Abs(got-want) > 1e-12 {
		t.Errorf("score %v != MFU %v", got, want)
	}
}

// TestBeamMatchesExhaustiveTop1 is the acceptance differential: on the named
// small scenario the pruned search must find the oracle's optimum, while
// evaluating strictly fewer candidates.
func TestBeamMatchesExhaustiveTop1(t *testing.T) {
	for _, objective := range []Objective{ObjectiveMFU, ObjectiveTokens} {
		spec := quickSpec()
		spec.Objective = objective
		oracle := mustSearch(t, spec, StrategyExhaustive, Options{})
		beam := mustSearch(t, spec, StrategyBeam, Options{})
		if oracle.Best == nil || beam.Best == nil {
			t.Fatalf("%s: missing best (oracle %v, beam %v)", objective, oracle.Best, beam.Best)
		}
		if beam.Best.Label != oracle.Best.Label {
			t.Errorf("%s: beam top-1 %q != exhaustive top-1 %q", objective, beam.Best.Label, oracle.Best.Label)
		}
		if beam.Evaluated >= oracle.Evaluated {
			t.Errorf("%s: beam evaluated %d >= exhaustive %d (no pruning)", objective, beam.Evaluated, oracle.Evaluated)
		}
		if q := QualityRatio(beam, oracle); math.IsNaN(q) || q < 0.999 || q > 1.001 {
			t.Errorf("%s: quality ratio %v, want ~1 when top-1 agrees", objective, q)
		}
	}
}

func TestAnnealDeterministicAndBudgeted(t *testing.T) {
	spec := quickSpec()
	spec.Budget = 12
	a := mustSearch(t, spec, StrategyAnneal, Options{})
	b := mustSearch(t, spec, StrategyAnneal, Options{})
	if a.Evaluated > 12 {
		t.Errorf("anneal evaluated %d > budget 12", a.Evaluated)
	}
	if a.Evaluated == 0 || a.Feasible == 0 {
		t.Fatalf("anneal found nothing: %+v", a)
	}
	if !reflect.DeepEqual(a.Candidates, b.Candidates) {
		t.Error("anneal is not deterministic for a fixed seed")
	}
	spec.Seed = 99
	c := mustSearch(t, spec, StrategyAnneal, Options{})
	if c.Evaluated > 12 {
		t.Errorf("anneal (seed 99) evaluated %d > budget 12", c.Evaluated)
	}
}

// TestAnnealDuplicateMethodsTerminate: a spec whose method list repeats one
// method must behave as the single-method space — before deduplication the
// anneal neighbor move would spin forever hunting a distinct method.
func TestAnnealDuplicateMethodsTerminate(t *testing.T) {
	cfg, _ := costmodel.ConfigByName("4B")
	spec := &Spec{
		Name:    "dup-methods",
		Base:    cfg,
		Devices: []int{8},
		Micros:  []int{16, 32},
		Methods: []sim.Method{sim.Baseline, sim.Baseline, sim.Baseline},
		Budget:  100,
	}
	if got := spec.Defaulted().SpaceSize(); got != 2 {
		t.Fatalf("deduped space = %d, want 2", got)
	}
	res := mustSearch(t, spec, StrategyAnneal, Options{})
	if res.Evaluated != 2 {
		t.Errorf("evaluated %d, want the whole deduped 2-candidate space", res.Evaluated)
	}
}

// TestAnnealTerminatesOnTinySpace guards the restart logic: a space smaller
// than the budget must still terminate (the walk can't consume more budget
// than there are candidates).
func TestAnnealTerminatesOnTinySpace(t *testing.T) {
	cfg, _ := costmodel.ConfigByName("4B")
	spec := &Spec{
		Name:    "tiny",
		Base:    cfg,
		Devices: []int{8},
		Micros:  []int{16, 32},
		Methods: []sim.Method{sim.Baseline},
		Budget:  500,
	}
	res := mustSearch(t, spec, StrategyAnneal, Options{})
	if res.Evaluated != 2 {
		t.Errorf("evaluated %d, want the whole 2-candidate space", res.Evaluated)
	}
}

// countingRecords evaluates candidate batches in process and counts the
// batches (cells per batch, in call order) and the simulations per label.
type countingRecords struct {
	mu      sync.Mutex
	batches []int
	calls   map[string]int
}

func (cr *countingRecords) records(ctx context.Context, g *sweep.Grid, onRecord func(int, report.Record)) ([]report.Record, error) {
	cr.mu.Lock()
	if cr.calls == nil {
		cr.calls = map[string]int{}
	}
	cr.batches = append(cr.batches, len(g.Cells))
	for _, c := range g.Cells {
		cr.calls[c.Label]++
	}
	cr.mu.Unlock()
	return sweep.Records(ctx, g, 0, onRecord)
}

// TestAnnealCoveredSpaceSimulatesOnce: a budget that covers the space runs
// it as one batch, so every candidate is simulated exactly once, progress
// counts those simulations up to SpaceSize, and the Result does not depend
// on the worker count.
func TestAnnealCoveredSpaceSimulatesOnce(t *testing.T) {
	spec := quickSpec()
	spec.Budget = 100
	var cr countingRecords
	var last Progress
	res := mustSearch(t, spec, StrategyAnneal, Options{Parallel: 3, Records: cr.records,
		OnProgress: func(p Progress) { last = p }})
	space := spec.SpaceSize()
	if len(cr.calls) != space {
		t.Fatalf("simulated %d distinct candidates, want the whole space of %d", len(cr.calls), space)
	}
	for label, n := range cr.calls {
		if n != 1 {
			t.Errorf("%s simulated %d times, want once", label, n)
		}
	}
	if last.Done != space || last.Total != space {
		t.Errorf("final progress %+v, want done = total = %d", last, space)
	}
	if res.Evaluated > space || res.Evaluated == 0 {
		t.Errorf("walk visited %d of %d candidates", res.Evaluated, space)
	}
	if serial := mustSearch(t, spec, StrategyAnneal, Options{Parallel: 1}); !reflect.DeepEqual(res, serial) {
		t.Error("batched anneal result differs from a serial run")
	}
}

// TestAnnealCoveredSpaceRunsInParallel: the covered space reaches the
// records function as one batch of SpaceSize cells, so whatever evaluates
// it — the sweep pool or a coordinator's worker pool — sees the whole space
// at once, not one candidate at a time.
func TestAnnealCoveredSpaceRunsInParallel(t *testing.T) {
	spec := quickSpec()
	spec.Budget = spec.SpaceSize()
	var cr countingRecords
	mustSearch(t, spec, StrategyAnneal, Options{Records: cr.records})
	if want := []int{spec.SpaceSize()}; !reflect.DeepEqual(cr.batches, want) {
		t.Errorf("records batches %v, want one batch of the whole space %v", cr.batches, want)
	}
}

// TestAnnealPartialBudgetStaysBudgeted: below the space size the walk
// simulates candidates one at a time, never more than Budget of them.
func TestAnnealPartialBudgetStaysBudgeted(t *testing.T) {
	spec := quickSpec()
	spec.Budget = 12
	var cr countingRecords
	res := mustSearch(t, spec, StrategyAnneal, Options{Records: cr.records})
	simulated := 0
	for _, n := range cr.calls {
		simulated += n
	}
	if simulated == 0 || simulated > spec.Budget {
		t.Errorf("simulated %d candidates under a budget of %d", simulated, spec.Budget)
	}
	if simulated != res.Evaluated || len(cr.batches) != simulated {
		t.Errorf("simulated %d candidates in %d batches, walk visited %d", simulated, len(cr.batches), res.Evaluated)
	}
}

func TestInfeasibleCandidatesReported(t *testing.T) {
	cfg, _ := costmodel.ConfigByName("4B") // 32 layers
	spec := &Spec{
		Name:    "indivisible",
		Base:    cfg,
		Devices: []int{7, 8}, // 32 % 7 != 0
		Micros:  []int{16},
		Methods: []sim.Method{sim.Baseline},
	}
	res := mustSearch(t, spec, StrategyExhaustive, Options{})
	if res.Feasible != 1 || len(res.Candidates) != 2 {
		t.Fatalf("feasible=%d candidates=%d, want 1 of 2", res.Feasible, len(res.Candidates))
	}
	bad := res.Candidates[1]
	if bad.Feasible || !strings.Contains(bad.Error, "not divisible") {
		t.Errorf("infeasible candidate = %+v", bad)
	}
}

func TestMemoryBudgetGates(t *testing.T) {
	spec := quickSpec()
	spec.MemBudgetBytes = 14 * costmodel.GiB // only the leanest layouts fit
	res := mustSearch(t, spec, StrategyExhaustive, Options{})
	if res.Feasible == 0 || res.Feasible == res.Evaluated {
		t.Fatalf("budget should split the space: feasible=%d of %d", res.Feasible, res.Evaluated)
	}
	for _, c := range res.Candidates[:res.Feasible] {
		if c.PeakMemGB > 14 {
			t.Errorf("feasible %q at %.1f GB over the 14 GB budget", c.Label, c.PeakMemGB)
		}
	}
	for _, c := range res.Candidates[res.Feasible:] {
		if c.Error == "" {
			t.Errorf("infeasible %q has no explanation", c.Label)
		}
	}
}

func TestParetoFrontier(t *testing.T) {
	res := mustSearch(t, quickSpec(), StrategyExhaustive, Options{})
	feas := res.Candidates[:res.Feasible]
	var frontier int
	for _, c := range feas {
		if c.Pareto {
			frontier++
		}
	}
	if frontier == 0 || frontier == len(feas) {
		t.Fatalf("frontier has %d of %d candidates — expected a strict subset", frontier, len(feas))
	}
	// The top-ranked candidate maximizes score, so nothing dominates it.
	if !feas[0].Pareto {
		t.Error("best candidate not on the Pareto frontier")
	}
	// Brute-force check the flags.
	for i, c := range feas {
		dominated := false
		for j, d := range feas {
			if i == j {
				continue
			}
			if d.Score >= c.Score && d.PeakMemGB <= c.PeakMemGB && d.BubblePct <= c.BubblePct &&
				(d.Score > c.Score || d.PeakMemGB < c.PeakMemGB || d.BubblePct < c.BubblePct) {
				dominated = true
				break
			}
		}
		if c.Pareto == dominated {
			t.Errorf("%q: pareto=%v but dominated=%v", c.Label, c.Pareto, dominated)
		}
	}
}

func TestProgressReporting(t *testing.T) {
	var events []Progress
	spec := quickSpec()
	res := mustSearch(t, spec, StrategyBeam, Options{Parallel: 1, OnProgress: func(p Progress) {
		events = append(events, p)
	}})
	if len(events) != res.Evaluated {
		t.Fatalf("%d progress events for %d evaluations", len(events), res.Evaluated)
	}
	last := events[len(events)-1]
	if last.Done != res.Evaluated || last.Total != res.Evaluated {
		t.Errorf("final progress %+v, want done=total=%d", last, res.Evaluated)
	}
	if last.BestLabel != res.Best.Label {
		t.Errorf("final best %q, want %q", last.BestLabel, res.Best.Label)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Done != events[i-1].Done+1 {
			t.Fatalf("progress done jumped: %+v -> %+v", events[i-1], events[i])
		}
		if events[i].BestScore < events[i-1].BestScore {
			t.Fatalf("best score went backwards: %+v -> %+v", events[i-1], events[i])
		}
	}
}

func TestSearchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, st := range Strategies() {
		if _, err := Search(ctx, quickSpec(), st, Options{}); err == nil {
			t.Errorf("%s: no error from a cancelled context", st)
		}
	}
}

func TestSearchUnknownStrategy(t *testing.T) {
	if _, err := Search(context.Background(), quickSpec(), Strategy("warp"), Options{}); err == nil {
		t.Error("no error for unknown strategy")
	}
}

func TestValidate(t *testing.T) {
	cfg, _ := costmodel.ConfigByName("4B")
	tests := []struct {
		name     string
		mutate   func(*Spec)
		fragment string
	}{
		{"no base", func(s *Spec) { s.Base = costmodel.Config{} }, "no base model"},
		{"bad objective", func(s *Spec) { s.Objective = "latency" }, "unknown objective"},
		{"devices too big", func(s *Spec) { s.Devices = []int{MaxDevices + 1} }, "device count"},
		{"micro too big", func(s *Spec) { s.Micros = []int{MaxMicro + 1} }, "microbatch count"},
		{"space too big", func(s *Spec) {
			s.Devices = make([]int, 100)
			s.Micros = make([]int, 100)
			for i := range s.Devices {
				s.Devices[i] = i + 1
				s.Micros[i] = i + 1
			}
		}, "limit"},
		{"negative beam", func(s *Spec) { s.BeamWidth = -1 }, "must be positive"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := &Spec{Base: cfg}
			tt.mutate(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tt.fragment) {
				t.Errorf("Validate() = %v, want error containing %q", err, tt.fragment)
			}
		})
	}
	if err := (&Spec{Base: cfg}).Validate(); err != nil {
		t.Errorf("minimal spec should validate: %v", err)
	}
}

func TestWriteTable(t *testing.T) {
	spec := quickSpec()
	spec.Devices = []int{7, 8} // force one infeasible row
	spec.Micros = []int{32}
	res := mustSearch(t, spec, StrategyExhaustive, Options{})
	var b strings.Builder
	if err := WriteTable(&b, res); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"tune 4b-quick", "strategy=exhaustive", "rank", "infeasible", res.Best.Label} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestQualityRatioNaN(t *testing.T) {
	empty := &Result{}
	full := mustSearch(t, quickSpec(), StrategyBeam, Options{})
	if q := QualityRatio(empty, full); !math.IsNaN(q) {
		t.Errorf("QualityRatio with no best = %v, want NaN", q)
	}
}

// TestDefaultedNormalizesAxes: literal specs with unsorted or duplicated
// axes are normalized (beam pivots on the true largest microbatch; anneal
// binary-searches the axes), without mutating the caller's slices.
func TestDefaultedNormalizesAxes(t *testing.T) {
	cfg, _ := costmodel.ConfigByName("4B")
	devices := []int{32, 8, 8, 16}
	micros := []int{128, 32}
	spec := &Spec{Base: cfg, Devices: devices, Micros: micros}
	d := spec.Defaulted()
	if want := []int{8, 16, 32}; !reflect.DeepEqual(d.Devices, want) {
		t.Errorf("Devices = %v, want %v", d.Devices, want)
	}
	if want := []int{32, 128}; !reflect.DeepEqual(d.Micros, want) {
		t.Errorf("Micros = %v, want %v", d.Micros, want)
	}
	if !reflect.DeepEqual(devices, []int{32, 8, 8, 16}) || !reflect.DeepEqual(micros, []int{128, 32}) {
		t.Error("Defaulted mutated the caller's slices")
	}
}
