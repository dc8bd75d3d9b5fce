package schedule

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Differential tests: the event-driven engine (Build) must reproduce the
// full-recompute oracle (BuildScan) bit for bit — same passes, same commit
// order, same float64 start/end times — across randomized specs that
// exercise every schedule family, exact ties (quantized durations) and
// degenerate shapes (P=1, zero durations, huge send times). Both share the
// per-slot dispatch rules, so these tests check run's incremental
// machinery; Timeline.Validate and TestWeightGradientIsFiller check the
// rules.

// randomSpec draws a valid spec from a distribution biased toward ties:
// durations are quantized to multiples of 0.25 half the time so that many
// candidates collide on the exact same start instant and the tie-break path
// is exercised, not just the strict-minimum path.
func randomSpec(rng *rand.Rand) *Spec {
	dur := func() float64 {
		if rng.Intn(2) == 0 {
			return 0.25 * float64(rng.Intn(12)) // quantized, may be zero
		}
		return rng.Float64() * 3
	}
	p := 1 + rng.Intn(8)
	m := 1 + rng.Intn(24)
	chunks := 1
	if rng.Intn(3) == 0 {
		chunks = 2
	}
	stages := make([]Stage, p*chunks)
	f, b, w := dur(), dur(), 0.0
	if rng.Intn(2) == 0 {
		w = dur()
	}
	for i := range stages {
		stages[i] = Stage{F: f, B: b, W: w, ActBytes: 1}
		if rng.Intn(4) == 0 { // occasionally imbalance a stage
			stages[i].F += dur()
			stages[i].B += dur()
		}
	}
	spec := &Spec{
		Name:   fmt.Sprintf("diff-p%d-m%d-c%d", p, m, chunks),
		P:      p,
		M:      m,
		Chunks: chunks,
		Stages: stages,
	}
	if rng.Intn(3) == 0 {
		spec.SendTime = dur()
	}
	switch rng.Intn(4) {
	case 0: // vocabulary, Algorithm 1 or 2
		barriers := 1 + rng.Intn(2)
		spec.Vocab = &VocabSpec{
			SDur:      dur(),
			TDur:      dur(),
			Barriers:  barriers,
			BcastTime: dur() / 4,
			C1Time:    dur() / 4,
			C2Time:    dur() / 4,
			ActBytes:  0.25,
		}
	case 1: // interlaced
		spec.Interlaced = &InterlacedSpec{
			VDur:     dur(),
			SyncTime: dur() / 4,
			ActBytes: 0.25,
		}
	}
	return spec
}

// timelinesDiff reports the first bit-level divergence between two
// timelines, or nil if they are identical. Non-fatal so goroutine-based
// tests (the churn test) can use it too.
func timelinesDiff(spec *Spec, want, got *Timeline) error {
	if len(want.Passes) != len(got.Passes) {
		return fmt.Errorf("%s: pass count want=%d got=%d", spec.Describe(), len(want.Passes), len(got.Passes))
	}
	for k := range want.Passes {
		if want.Passes[k] != got.Passes[k] {
			return fmt.Errorf("%s: commit %d differs:\n want %+v\n got  %+v",
				spec.Describe(), k, want.Passes[k], got.Passes[k])
		}
	}
	if want.Makespan != got.Makespan {
		return fmt.Errorf("%s: makespan want=%v got=%v", spec.Describe(), want.Makespan, got.Makespan)
	}
	for d := range want.ByDevice {
		if len(want.ByDevice[d]) != len(got.ByDevice[d]) {
			return fmt.Errorf("%s: device %d pass count differs", spec.Describe(), d)
		}
		for k := range want.ByDevice[d] {
			if want.ByDevice[d][k] != got.ByDevice[d][k] {
				return fmt.Errorf("%s: device %d pass %d differs", spec.Describe(), d, k)
			}
		}
	}
	return nil
}

func assertTimelinesIdentical(t *testing.T, spec *Spec, want, got *Timeline) {
	t.Helper()
	if err := timelinesDiff(spec, want, got); err != nil {
		t.Fatal(err)
	}
}

// cloneSpec deep-copies a spec so mutations cannot alias the original.
func cloneSpec(s *Spec) *Spec {
	c := *s
	c.Stages = append([]Stage(nil), s.Stages...)
	if s.Vocab != nil {
		v := *s.Vocab
		c.Vocab = &v
	}
	if s.Interlaced != nil {
		iv := *s.Interlaced
		c.Interlaced = &iv
	}
	return &c
}

// mutateSpec returns an adjacent cell: a copy of spec with one axis changed.
// A microbatch-count mutation leaves a shared committed prefix for the warm
// engine to replay; every other mutation (a perturbed duration, a readiness
// offset, a schedule-family switch, a fresh shape) forces its scratch
// fallback, unless the draw repeats the old value. The random axis choice per step is the shuffle: sequences visit
// axes in every order, like a sweep grid whose trailing axis rotates.
func mutateSpec(rng *rand.Rand, s *Spec) *Spec {
	c := cloneSpec(s)
	switch rng.Intn(8) {
	case 0, 1: // replayable: microbatch count
		c.M = 1 + rng.Intn(24)
	case 2: // scratch: one stage's durations
		i := rng.Intn(len(c.Stages))
		c.Stages[i].F += 0.25 * float64(1+rng.Intn(4))
		c.Stages[i].B += 0.25 * float64(rng.Intn(4))
	case 3: // scratch: vocab/interlaced pass durations
		switch {
		case c.Vocab != nil:
			c.Vocab.SDur = 0.25 * float64(rng.Intn(8))
			c.Vocab.TDur = 0.25 * float64(rng.Intn(8))
		case c.Interlaced != nil:
			c.Interlaced.VDur = 0.25 * float64(rng.Intn(8))
		default: // replayable
			c.M = 1 + rng.Intn(24)
		}
	case 4: // scratch: P2P readiness offset
		c.SendTime = 0.25 * float64(rng.Intn(4))
	case 5: // scratch: switch schedule family on the same shape
		c.Vocab, c.Interlaced = nil, nil
		if rng.Intn(2) == 0 {
			c.Vocab = &VocabSpec{SDur: 0.5, TDur: 0.75, Barriers: 1 + rng.Intn(2), ActBytes: 0.25}
		} else {
			c.Interlaced = &InterlacedSpec{VDur: 0.5, SyncTime: 0.25, ActBytes: 0.25}
		}
	default: // scratch: a fresh shape entirely
		return randomSpec(rng)
	}
	return c
}

// assertThreeWay builds spec three ways — the scan reference, a throwaway
// event engine, and the supplied warm engine — and demands bit identity.
// The warm timeline is compared before the engine's next Build, inside its
// validity window.
func assertThreeWay(t *testing.T, eng *Engine, spec *Spec) {
	t.Helper()
	want, errScan := BuildScan(spec)
	scratch, errEvent := Build(spec)
	warm, errWarm := eng.Build(spec)
	if (errScan == nil) != (errEvent == nil) || (errScan == nil) != (errWarm == nil) {
		t.Fatalf("%s: error mismatch scan=%v event=%v warm=%v", spec.Describe(), errScan, errEvent, errWarm)
	}
	if errScan != nil {
		return
	}
	assertTimelinesIdentical(t, spec, want, scratch)
	assertTimelinesIdentical(t, spec, want, warm)
}

func TestDifferentialRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	n := 400
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		spec := randomSpec(rng)
		want, errScan := BuildScan(spec)
		got, errEvent := Build(spec)
		if (errScan == nil) != (errEvent == nil) {
			t.Fatalf("iter %d %s: error mismatch scan=%v event=%v", i, spec.Describe(), errScan, errEvent)
		}
		if errScan != nil {
			continue
		}
		assertTimelinesIdentical(t, spec, want, got)
		if err := got.Validate(); err != nil {
			t.Fatalf("iter %d %s: event timeline invalid: %v", i, spec.Describe(), err)
		}
	}
}

// TestDifferentialCanonicalShapes pins the equivalence on the five schedule
// families at deterministic sizes, independent of the random distribution.
// The sizes run up to the 64 devices sim builds at most; V-Half stops at 32,
// the most it reaches (it splits the model into 2P stages).
//
// It also pins the engine's dispatch work: a commit re-enumerates only the
// devices whose inputs it produced, where the scan oracle recomputes all P.
// That is the committing device and at most one neighbour, except that a
// last-stage forward and a C1 barrier can release a pass on every device.
// Those fan-outs happen at most twice per microbatch, which commits at least
// 3P passes. With the P initial enumerations, a build re-enumerates at most
// 2.5·passes + P devices; the test allows 3·passes + P. An engine that
// rescans every device per commit does P·passes, over the bound from P = 4.
// Measured: 1.59–1.99 re-enumerations per pass on every shape with P >= 8.
//
// And it pins the dispatch fold's work: each fold resumes at the block of
// the lowest device whose choice changed, which sits near the middle of the
// pipeline on average. Measured visits per pass: 0.77–0.80·P at P = 8,
// 0.64–0.66·P at 16, 0.57–0.58·P at 32 and 0.54·P at 64. The test allows
// P/2 + foldBlock per pass. A fold that always starts at device 0 visits
// P per pass, over the bound from P = 16.
func TestDifferentialCanonicalShapes(t *testing.T) {
	var specs []*Spec
	for _, pm := range [][2]int{{1, 1}, {1, 6}, {2, 4}, {4, 8}, {6, 18}, {8, 24}, {16, 32}, {32, 64}, {64, 64}} {
		p, m := pm[0], pm[1]
		specs = append(specs,
			oneF1BSpec(p, m),
			vocabSpec(p, m, 2),
			vocabSpec(p, m, 1),
			interlacedSpec(p, m),
		)
		if p <= 32 {
			specs = append(specs, vhalfSpec(p, m))
		}
	}
	// Barrier and send costs push readiness strictly into the future.
	withCosts := vocabSpec(4, 12, 2)
	withCosts.Vocab.BcastTime = 0.125
	withCosts.Vocab.C1Time = 0.3
	withCosts.Vocab.C2Time = 0.4
	withCosts.SendTime = 0.5
	specs = append(specs, withCosts)

	for _, spec := range specs {
		want, err := BuildScan(spec)
		if err != nil {
			t.Fatalf("%s: scan build failed: %v", spec.Describe(), err)
		}
		eng := NewEngine() // cold: no prefix replay, so run commits every pass
		got, err := eng.Build(spec)
		if err != nil {
			t.Fatalf("%s: event build failed: %v", spec.Describe(), err)
		}
		assertTimelinesIdentical(t, spec, want, got)
		n := len(got.Passes)
		if eng.e.refreshes > 3*n+spec.P {
			t.Errorf("%s: %d device re-enumerations for %d passes, want at most 3·passes + P = %d",
				spec.Describe(), eng.e.refreshes, n, 3*n+spec.P)
		}
		if limit := (spec.P + 2*foldBlock) * n / 2; eng.e.foldVisits > limit {
			t.Errorf("%s: dispatch folds visited %d devices for %d passes, want at most (P/2 + %d)·passes = %d",
				spec.Describe(), eng.e.foldVisits, n, foldBlock, limit)
		}
	}
}

// TestDifferentialAdjacentSequences is the deterministic heart of the
// three-way oracle: one warm engine walks randomized sequences of adjacent
// cells (microbatch-count mutations that replay, axis shuffles, and the
// other mutations that force the scratch fallback) and every step must
// match both the scan reference and a throwaway scratch build bit for bit.
func TestDifferentialAdjacentSequences(t *testing.T) {
	seqs, steps := 24, 14
	if testing.Short() {
		seqs, steps = 6, 8
	}
	rng := rand.New(rand.NewSource(20260808))
	for s := 0; s < seqs; s++ {
		eng := NewEngine()
		cur := randomSpec(rng)
		for i := 0; i < steps; i++ {
			assertThreeWay(t, eng, cur)
			cur = mutateSpec(rng, cur)
		}
	}
}

// TestEngineReuseChurn churns several goroutines, each owning one warm
// engine, through overlapping random spec sequences, checking every build
// against the scan oracle. Under -race (CI runs it so) this proves warm
// engines share no hidden state with each other or with the package-level
// Build path.
func TestEngineReuseChurn(t *testing.T) {
	const workers = 4
	steps := 60
	if testing.Short() {
		steps = 12
	}
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(9000 + w)))
			eng := NewEngine()
			cur := randomSpec(rng)
			for i := 0; i < steps; i++ {
				want, errScan := BuildScan(cur)
				got, errWarm := eng.Build(cur)
				if (errScan == nil) != (errWarm == nil) {
					errc <- fmt.Errorf("worker %d step %d: error mismatch scan=%v warm=%v", w, i, errScan, errWarm)
					return
				}
				if errScan == nil {
					if err := timelinesDiff(cur, want, got); err != nil {
						errc <- fmt.Errorf("worker %d step %d: %w", w, i, err)
						return
					}
				}
				cur = mutateSpec(rng, cur)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// FuzzDifferentialEngines drives the three-way oracle from fuzzed
// dimensions: the fuzzed bytes shape the first cell, then a seeded sequence
// of adjacent mutations runs through one warm engine, comparing the scan
// fold, a scratch build and a warm incremental build at every step.
func FuzzDifferentialEngines(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(0), 1.0, 2.0, int64(1))
	f.Add(uint8(2), uint8(3), uint8(1), 0.5, 1.5, int64(7))
	f.Add(uint8(5), uint8(15), uint8(4), 0.25, 0.25, int64(42))
	f.Fuzz(func(t *testing.T, pRaw, mRaw, kind uint8, fDur, bDur float64, seed int64) {
		if fDur < 0 || bDur < 0 || fDur > 1e6 || bDur > 1e6 ||
			fDur != fDur || bDur != bDur {
			t.Skip()
		}
		p := int(pRaw%6) + 1
		m := int(mRaw%16) + 1
		stages := uniformStages(p, fDur, bDur, 0)
		spec := &Spec{P: p, M: m, Chunks: 1, Stages: stages}
		switch kind % 5 {
		case 1:
			spec.Vocab = &VocabSpec{SDur: fDur / 2, TDur: bDur / 2, Barriers: 2}
		case 2:
			spec.Vocab = &VocabSpec{SDur: fDur / 2, TDur: bDur / 2, Barriers: 1}
		case 3:
			spec.Chunks = 2
			spec.Stages = uniformStages(2*p, fDur/2, bDur/2, bDur/2)
		case 4:
			spec.Interlaced = &InterlacedSpec{VDur: fDur, SyncTime: bDur / 4}
		}
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine()
		cur := spec
		for step := 0; step < 5; step++ {
			assertThreeWay(t, eng, cur)
			cur = mutateSpec(rng, cur)
		}
	})
}
