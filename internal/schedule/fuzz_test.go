package schedule

import (
	"math"
	"testing"
)

// FuzzSpecValidate drives Spec.Validate and Build with randomized shapes,
// durations (including NaN/Inf/negative bit patterns) and scheduling
// variants. Invariants: Validate and Build never panic; an invalid spec is
// rejected with an error; a built Timeline passes Validate, has a finite
// non-negative makespan, and every device's bubble ratio is non-negative.
func FuzzSpecValidate(f *testing.F) {
	// Seeds: plain 1F1B, vocab Alg1/Alg2, interlaced, V-Half chunks,
	// degenerate inputs.
	f.Add(4, 8, 1, 1.0, 2.0, 0.0, 0.1, 0.0, 0.0, uint8(0))
	f.Add(4, 8, 1, 1.0, 2.0, 0.0, 0.0, 0.5, 0.25, uint8(1))
	f.Add(4, 8, 1, 1.0, 2.0, 0.0, 0.0, 0.5, 0.25, uint8(2))
	f.Add(4, 8, 1, 1.0, 2.0, 0.0, 0.0, 0.7, 0.2, uint8(3))
	f.Add(3, 6, 2, 1.0, 1.0, 1.0, 0.05, 0.0, 0.0, uint8(0))
	f.Add(1, 1, 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0))
	f.Add(2, 4, 1, math.Inf(1), 1.0, 0.0, 0.0, 0.0, 0.0, uint8(0))
	f.Add(2, 4, 1, math.NaN(), 1.0, 0.0, 0.0, 0.0, 0.0, uint8(1))
	f.Add(2, 4, 1, -1.0, 1.0, 0.0, -0.5, 0.0, 0.0, uint8(3))

	f.Fuzz(func(t *testing.T, p, m, chunks int, fDur, bDur, wDur, send float64,
		sDur, tDur float64, variant uint8) {
		// Bound the shape so every input builds quickly; durations are left
		// raw so Validate sees NaN, Inf and negative values.
		p = 1 + abs(p)%6
		m = 1 + abs(m)%10
		chunks = 1 + abs(chunks)%2

		stages := make([]Stage, p*chunks)
		for i := range stages {
			// Vary costs per stage so ties and imbalance both occur.
			k := float64(1 + i%3)
			stages[i] = Stage{F: fDur * k, B: bDur * k, W: wDur, ActBytes: fDur, ParamBytes: bDur}
		}
		spec := &Spec{
			P: p, M: m, Chunks: chunks, Stages: stages, SendTime: send,
		}
		switch variant % 4 {
		case 1:
			spec.Vocab = &VocabSpec{SDur: sDur, TDur: tDur, Barriers: 2,
				BcastTime: send, C1Time: tDur / 2, C2Time: sDur / 2, ActBytes: sDur}
		case 2:
			spec.Vocab = &VocabSpec{SDur: sDur, TDur: tDur, Barriers: 1,
				BcastTime: send, C1Time: tDur / 2, C2Time: sDur / 2, ActBytes: sDur}
		case 3:
			spec.Interlaced = &InterlacedSpec{VDur: sDur, SyncTime: tDur, ActBytes: sDur}
		}

		valid := spec.Validate() == nil
		tl, err := Build(spec) // must never panic, valid spec or not
		if !valid {
			if err == nil {
				t.Fatalf("Build accepted a spec Validate rejects: %+v", spec)
			}
			return
		}
		if err != nil {
			// A structurally valid spec should always schedule: the greedy
			// constructor only fails on dependency cycles, which no spec
			// reachable here contains.
			t.Fatalf("Build failed on a valid spec: %v (spec %+v)", err, spec)
		}
		if math.IsNaN(tl.Makespan) || math.IsInf(tl.Makespan, 0) || tl.Makespan < 0 {
			t.Fatalf("makespan %v is not finite non-negative", tl.Makespan)
		}
		for d := 0; d < p; d++ {
			r := tl.BubbleRatio(d)
			if math.IsNaN(r) || r < -1e-9 {
				t.Fatalf("device %d bubble ratio %v is negative or NaN", d, r)
			}
		}
		if err := tl.Validate(); err != nil {
			t.Fatalf("timeline violates dependencies: %v", err)
		}
	})
}

func abs(v int) int {
	if v < 0 {
		if v == math.MinInt {
			return 0
		}
		return -v
	}
	return v
}
