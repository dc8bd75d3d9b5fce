package load

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Stage is one leg of an open-loop scenario: the arrival rate ramps linearly
// from the previous stage's target (or the scenario's StartRate for the first
// stage) to Target over Duration. A zero Duration is an instant step — the
// rate jumps to Target and the stage contributes no wall time, which is how
// the spike preset models a cliff-edge rather than a ramp.
type Stage struct {
	// Target is the arrival rate, in requests per second, reached at the END
	// of the stage.
	Target float64 `json:"target"`
	// Duration is the wall time spent ramping to (or holding at) Target.
	Duration time.Duration `json:"duration"`
}

// Scenario is a staged open-loop arrival plan: injection starts at StartRate
// and walks through Stages, each a linear ramp to its target. The total run
// length is the sum of stage durations.
type Scenario struct {
	Name      string  `json:"name"`
	StartRate float64 `json:"start_rate"`
	Stages    []Stage `json:"stages"`
}

// Validate rejects plans the executor cannot schedule: no stages, negative
// rates or durations, a zero total duration, or a plan that never reaches a
// positive rate (nothing would ever be injected).
func (sc *Scenario) Validate() error {
	if len(sc.Stages) == 0 {
		return fmt.Errorf("scenario %q has no stages", sc.Name)
	}
	if sc.StartRate < 0 {
		return fmt.Errorf("scenario %q: negative start rate %g", sc.Name, sc.StartRate)
	}
	peak := sc.StartRate
	for i, st := range sc.Stages {
		if st.Target < 0 {
			return fmt.Errorf("scenario %q stage %d: negative target rate %g", sc.Name, i, st.Target)
		}
		if st.Duration < 0 {
			return fmt.Errorf("scenario %q stage %d: negative duration %s", sc.Name, i, st.Duration)
		}
		if st.Target > peak {
			peak = st.Target
		}
	}
	if sc.TotalDuration() <= 0 {
		return fmt.Errorf("scenario %q has zero total duration", sc.Name)
	}
	if peak <= 0 {
		return fmt.Errorf("scenario %q never reaches a positive rate", sc.Name)
	}
	return nil
}

// TotalDuration is the sum of all stage durations.
func (sc *Scenario) TotalDuration() time.Duration {
	var total time.Duration
	for _, st := range sc.Stages {
		total += st.Duration
	}
	return total
}

// RateAt returns the target arrival rate at offset t from the start of the
// run: linear interpolation within the active stage, the final target beyond
// the end.
func (sc *Scenario) RateAt(t time.Duration) float64 {
	prev := sc.StartRate
	var acc time.Duration
	for _, st := range sc.Stages {
		if st.Duration > 0 && t < acc+st.Duration {
			frac := float64(t-acc) / float64(st.Duration)
			return prev + (st.Target-prev)*frac
		}
		acc += st.Duration
		prev = st.Target
	}
	return prev
}

// PresetNames lists the built-in scenario shapes, alphabetically.
func PresetNames() []string {
	names := []string{"diurnal", "soak", "spike"}
	sort.Strings(names)
	return names
}

// Preset builds a named scenario shape over the given total duration.
//
//   - "soak": constant load at base for the whole run — the boring baseline
//     that catches slow leaks and drift.
//   - "spike": base load, an instant step to peak for the middle ~30% of the
//     run, then an instant step back — the overload-and-recover shape the CI
//     gate drives against the real binary.
//   - "diurnal": a compressed day — ramp from base up to peak, hold, sink to
//     a quarter of base (the overnight trough), climb back to base.
//
// peak defaults to 2×base when zero or negative.
func Preset(name string, base, peak float64, total time.Duration) (*Scenario, error) {
	if base <= 0 {
		return nil, fmt.Errorf("preset %q: base rate must be positive, got %g", name, base)
	}
	if total <= 0 {
		return nil, fmt.Errorf("preset %q: total duration must be positive, got %s", name, total)
	}
	if peak <= 0 {
		peak = 2 * base
	}
	frac := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	switch name {
	case "soak", "constant":
		return &Scenario{Name: "soak", StartRate: base, Stages: []Stage{
			{Target: base, Duration: total},
		}}, nil
	case "spike":
		return &Scenario{Name: "spike", StartRate: base, Stages: []Stage{
			{Target: base, Duration: frac(0.35)},
			{Target: peak, Duration: 0}, // cliff up
			{Target: peak, Duration: frac(0.30)},
			{Target: base, Duration: 0}, // cliff down
			{Target: base, Duration: frac(0.35)},
		}}, nil
	case "diurnal":
		return &Scenario{Name: "diurnal", StartRate: base, Stages: []Stage{
			{Target: peak, Duration: frac(0.30)},
			{Target: peak, Duration: frac(0.15)},
			{Target: base / 4, Duration: frac(0.30)},
			{Target: base, Duration: frac(0.25)},
		}}, nil
	}
	return nil, fmt.Errorf("unknown scenario preset %q (have: %s)", name, strings.Join(PresetNames(), ", "))
}

// ParseStages builds a custom scenario from a compact spec:
//
//	[start=RATE,]TARGET:DURATION[,TARGET:DURATION...]
//
// e.g. "start=0,200:5s,200:30s" ramps 0→200 req/s over 5s then holds for
// 30s. Without start=, the first stage is flat (StartRate = first target).
func ParseStages(spec string) (*Scenario, error) {
	sc := &Scenario{Name: "custom", StartRate: -1}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(part, "start="); ok {
			if len(sc.Stages) > 0 || sc.StartRate >= 0 {
				return nil, fmt.Errorf("stages %q: start= must come first, once", spec)
			}
			r, err := strconv.ParseFloat(rest, 64)
			if err != nil || r < 0 {
				return nil, fmt.Errorf("stages %q: bad start rate %q", spec, rest)
			}
			sc.StartRate = r
			continue
		}
		target, durStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("stages %q: %q is not TARGET:DURATION", spec, part)
		}
		r, err := strconv.ParseFloat(target, 64)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("stages %q: bad target rate %q", spec, target)
		}
		d, err := time.ParseDuration(durStr)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("stages %q: bad duration %q", spec, durStr)
		}
		sc.Stages = append(sc.Stages, Stage{Target: r, Duration: d})
	}
	if len(sc.Stages) == 0 {
		return nil, fmt.Errorf("stages %q: no stages", spec)
	}
	if sc.StartRate < 0 {
		sc.StartRate = sc.Stages[0].Target
	}
	return sc, sc.Validate()
}

// arrivalGen yields the absolute injection schedule for a scenario by
// inverting the cumulative arrival curve exactly: each arrival consumes one
// unit of arrival "mass" (∫rate dt), optionally jittered by ±jitter (a
// fraction, e.g. 0.1 for ±10%) with a seeded PRNG so runs are reproducible.
// Within a stage the rate is linear, so the cumulative mass is a quadratic
// whose inverse has a closed form — ramps through (or starting at) rate zero
// schedule correctly instead of degenerating the way a naive 1/rate(t) step
// would.
type arrivalGen struct {
	sc         *Scenario
	jitter     float64
	rng        *rand.Rand
	stage      int           // current stage index
	stageStart time.Duration // absolute offset where the current stage begins
	s          float64       // seconds into the current stage of the last arrival
}

func newArrivalGen(sc *Scenario, jitter float64, seed int64) *arrivalGen {
	return &arrivalGen{sc: sc, jitter: jitter, rng: rand.New(rand.NewSource(seed))}
}

// rates returns the start and end rate of stage i.
func (g *arrivalGen) rates(i int) (r0, r1 float64) {
	r0 = g.sc.StartRate
	if i > 0 {
		r0 = g.sc.Stages[i-1].Target
	}
	return r0, g.sc.Stages[i].Target
}

// next returns the offset of the next arrival and the stage it belongs to,
// or ok=false when the scenario is over.
func (g *arrivalGen) next() (offset time.Duration, stage int, ok bool) {
	gap := 1.0 // arrival mass to consume before the next injection
	if g.jitter > 0 {
		gap *= 1 + g.jitter*(2*g.rng.Float64()-1)
	}
	for g.stage < len(g.sc.Stages) {
		st := g.sc.Stages[g.stage]
		D := st.Duration.Seconds()
		if D <= 0 {
			g.advanceStage()
			continue
		}
		r0, r1 := g.rates(g.stage)
		// Cumulative mass within the stage: C(s) = r0·s + a·s², a = slope/2.
		a := (r1 - r0) / (2 * D)
		mass := func(s float64) float64 { return r0*s + a*s*s }
		remaining := mass(D) - mass(g.s)
		if remaining < gap {
			// The rest of this stage cannot supply the gap; carry the deficit
			// into the next stage.
			gap -= remaining
			g.advanceStage()
			continue
		}
		target := mass(g.s) + gap
		var snew float64
		if a == 0 {
			snew = g.s + gap/r0 // flat stage; r0>0 since remaining ≥ gap > 0
		} else {
			// Smaller-root-stable form of the quadratic inverse; picks the
			// first crossing for both rising (a>0) and falling (a<0) ramps.
			disc := r0*r0 + 4*a*target
			if disc < 0 {
				disc = 0
			}
			snew = 2 * target / (r0 + math.Sqrt(disc))
		}
		if snew > D {
			snew = D // float guard: stay inside the stage
		}
		g.s = snew
		return g.stageStart + time.Duration(snew*float64(time.Second)), g.stage, true
	}
	return 0, 0, false
}

func (g *arrivalGen) advanceStage() {
	g.stageStart += g.sc.Stages[g.stage].Duration
	g.stage++
	g.s = 0
}
