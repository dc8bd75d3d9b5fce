package load

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Stage is one leg of an open-loop scenario: the arrival rate ramps linearly
// from the previous stage's target (or the scenario's StartRate for the first
// stage) to Target over Duration. A zero Duration is an instant step — the
// rate jumps to Target and the stage contributes no wall time, which is how
// a spike models a cliff edge rather than a ramp.
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

// ParseStages builds the open-loop scenario of a compact spec:
//
//	[start=RATE,]TARGET:DURATION[,TARGET:DURATION...]
//
// e.g. "start=0,200:5s,200:30s" ramps 0→200 req/s over 5s then holds for
// 30s, and "start=50,50:700ms,1000:0s,1000:600ms,50:0s,50:700ms" is a 20×
// spike: 50 req/s, a cliff to 1000 req/s for the middle 600ms, and back.
// Without start=, the first stage is flat (StartRate = first target).
func ParseStages(spec string) (*Scenario, error) {
	sc := &Scenario{Name: "open-loop", StartRate: -1}
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
// unit of arrival "mass" (∫rate dt). Within a stage the rate is linear, so
// the cumulative mass is a quadratic whose inverse has a closed form — ramps
// through (or starting at) rate zero schedule correctly instead of
// degenerating the way a naive 1/rate(t) step would.
type arrivalGen struct {
	sc         *Scenario
	stage      int           // current stage index
	stageStart time.Duration // absolute offset where the current stage begins
	s          float64       // seconds into the current stage of the last arrival
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
