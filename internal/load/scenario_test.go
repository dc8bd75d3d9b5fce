package load

import (
	"math"
	"testing"
	"time"
)

func TestParseStages(t *testing.T) {
	sc, err := ParseStages("start=0,200:5s,200:30s")
	if err != nil {
		t.Fatal(err)
	}
	if sc.StartRate != 0 || len(sc.Stages) != 2 {
		t.Fatalf("got start=%g stages=%d", sc.StartRate, len(sc.Stages))
	}
	if sc.Stages[0] != (Stage{Target: 200, Duration: 5 * time.Second}) {
		t.Fatalf("stage 0 = %+v", sc.Stages[0])
	}
	if sc.Stages[1] != (Stage{Target: 200, Duration: 30 * time.Second}) {
		t.Fatalf("stage 1 = %+v", sc.Stages[1])
	}
	if sc.Name != "open-loop" || sc.TotalDuration() != 35*time.Second {
		t.Fatalf("scenario %q lasts %s, want open-loop over 35s", sc.Name, sc.TotalDuration())
	}

	// Without start=, the first stage is flat at its own target.
	sc, err = ParseStages("50:1s")
	if err != nil {
		t.Fatal(err)
	}
	if sc.StartRate != 50 {
		t.Fatalf("implicit start rate = %g, want 50", sc.StartRate)
	}

	for _, bad := range []string{
		"", ",", "200", "200:xyz", "abc:5s", "-5:1s", "start=-1,200:5s",
		"200:5s,start=0", "start=1,start=2,200:5s", "0:5s", // never positive
	} {
		if _, err := ParseStages(bad); err == nil {
			t.Errorf("ParseStages(%q) accepted", bad)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"no stages", Scenario{Name: "x"}},
		{"negative target", Scenario{Stages: []Stage{{Target: -1, Duration: time.Second}}}},
		{"negative duration", Scenario{Stages: []Stage{{Target: 1, Duration: -time.Second}}}},
		{"zero total", Scenario{Stages: []Stage{{Target: 1, Duration: 0}}}},
		{"never positive", Scenario{Stages: []Stage{{Target: 0, Duration: time.Second}}}},
	} {
		if err := tc.sc.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

// drain walks the full arrival schedule, checking monotonicity and stage
// bounds, and returns the per-stage arrival counts.
func drain(t *testing.T, sc *Scenario) []int {
	t.Helper()
	gen := &arrivalGen{sc: sc}
	counts := make([]int, len(sc.Stages))
	last := time.Duration(-1)
	total := sc.TotalDuration()
	for {
		off, stage, ok := gen.next()
		if !ok {
			return counts
		}
		if off < last {
			t.Fatalf("schedule went backwards: %s after %s", off, last)
		}
		if off > total {
			t.Fatalf("arrival at %s past scenario end %s", off, total)
		}
		if stage < 0 || stage >= len(sc.Stages) {
			t.Fatalf("arrival in stage %d of %d", stage, len(sc.Stages))
		}
		last = off
		counts[stage]++
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// TestArrivalCounts checks the generator against the analytic arrival mass
// ∫rate dt per stage: a flat 100/s 2s stage carries 200 arrivals, a 0→200
// ramp over 2s carries 200 — within one arrival of the closed form.
func TestArrivalCounts(t *testing.T) {
	flat := &Scenario{Name: "flat", StartRate: 100, Stages: []Stage{
		{Target: 100, Duration: 2 * time.Second},
	}}
	counts := drain(t, flat)
	if got := sum(counts); math.Abs(float64(got-200)) > 1 {
		t.Fatalf("flat 100/s × 2s: %d arrivals, want ~200", got)
	}

	// A ramp starting at rate zero — the case a naive 1/rate(t) stepper
	// degenerates on. Mass = (0+200)/2 × 2s = 200.
	ramp := &Scenario{Name: "ramp", StartRate: 0, Stages: []Stage{
		{Target: 200, Duration: 2 * time.Second},
	}}
	counts = drain(t, ramp)
	if got := sum(counts); math.Abs(float64(got-200)) > 1 {
		t.Fatalf("0→200 ramp over 2s: %d arrivals, want ~200", got)
	}

	// Multi-stage with a cliff: mass carries across the zero-duration step
	// and each stage's share matches its own integral.
	spike := &Scenario{Name: "spike", StartRate: 10, Stages: []Stage{
		{Target: 10, Duration: 1 * time.Second},  // 10
		{Target: 100, Duration: 0},               // cliff, no arrivals
		{Target: 100, Duration: 1 * time.Second}, // 100
		{Target: 10, Duration: 0},                // cliff
		{Target: 10, Duration: 1 * time.Second},  // 10
	}}
	counts = drain(t, spike)
	want := []int{10, 0, 100, 0, 10}
	for i := range want {
		if math.Abs(float64(counts[i]-want[i])) > 1 {
			t.Fatalf("spike stage %d: %d arrivals, want ~%d (all: %v)", i, counts[i], want[i], counts)
		}
	}
}
