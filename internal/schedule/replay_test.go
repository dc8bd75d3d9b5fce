package schedule

import "testing"

// TestPrefixReplayAscendingMicro pins that cross-build prefix replay engages:
// one warm engine walks an ascending microbatch chain (16, 24, 32, 48, 64) of
// each canonical shape at P = 4, 8 and 16, and the commits it copies from the
// previous build instead of dispatching them are counted, not timed. A
// chain's first build follows a different shape, so it replays nothing;
// each later build replays the previous build's commits up to the first one
// that reaches its last microbatch. Measured (deterministic): 1F1B replays
// 5,339 of 10,304 commits, vocab-2 10,037 of 20,608, vocab-1 10,137 of
// 20,608, interlaced 6,220 of 15,456 and V-Half 15,092 of 30,912, 40–52%
// in all. Each bound sits about 15% under its count, so an engine that
// stopped replaying (or replayed a short prefix) fails while every output
// stays bit-identical. Each build is also checked against a scratch build.
func TestPrefixReplayAscendingMicro(t *testing.T) {
	shapes := []struct {
		name        string
		spec        func(p, m int) *Spec
		minReplayed int
	}{
		{"1f1b", oneF1BSpec, 4538},
		{"vocab-2", func(p, m int) *Spec { return vocabSpec(p, m, 2) }, 8531},
		{"vocab-1", func(p, m int) *Spec { return vocabSpec(p, m, 1) }, 8616},
		{"interlaced", interlacedSpec, 5287},
		{"vhalf", vhalfSpec, 12828},
	}
	eng := NewEngine()
	for _, sh := range shapes {
		replayed, commits := 0, 0
		for _, p := range []int{4, 8, 16} {
			for _, m := range []int{16, 24, 32, 48, 64} {
				spec := sh.spec(p, m)
				want, err := Build(spec)
				if err != nil {
					t.Fatalf("%s: scratch build failed: %v", spec.Describe(), err)
				}
				got, err := eng.Build(spec)
				if err != nil {
					t.Fatalf("%s: warm build failed: %v", spec.Describe(), err)
				}
				assertTimelinesIdentical(t, spec, want, got)
				commits += len(got.Passes)
				replayed += eng.e.replayed
			}
		}
		if replayed < sh.minReplayed {
			t.Errorf("%s chain: replayed %d of %d commits, want at least %d",
				sh.name, replayed, commits, sh.minReplayed)
		}
	}
}
