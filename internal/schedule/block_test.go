package schedule_test

import (
	"testing"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/experiments"
	"vocabpipe/internal/schedule"
	"vocabpipe/internal/sim"
)

// TestBlocksHoldOnEveryShape builds, on one warm engine, every one-chunk
// spec of the spec golden's grid (every zoo model, seq 2048 and 4096, five
// vocabularies, 1 to 64 devices, 1, 7, 32 and 128 microbatches, the five
// 1F1B-family methods) and every candidate of the four named tuning
// scenarios (up to 256 microbatches). A block order never deadlocks, so
// every spec that lays out must build; the timeline must pass Validate; and
// each device's peak in-flight is its skeleton's, min(cap, M): never above
// the cap, and never below it while microbatches remain.
func TestBlocksHoldOnEveryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("9,600 specs in -short mode")
	}
	en := schedule.NewEngine()
	var an schedule.Analyzer
	built := 0
	check := func(cfg costmodel.Config, m sim.Method) {
		t.Helper()
		spec, err := sim.BuildSpec(cfg, m)
		if err != nil {
			return // a layout the model cannot take, as the spec golden records
		}
		tl, err := en.Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Describe(), err)
		}
		if err := tl.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Describe(), err)
		}
		if spec.Chunks == 1 {
			for d, n := range an.PeakInFlight(tl) {
				if c := schedule.InFlightCap(spec, d); n != min(c, spec.M) {
					t.Fatalf("%s: device %d holds %d microbatches in flight, want min(cap %d, M %d)", spec.Describe(), d, n, c, spec.M)
				}
			}
		}
		built++
	}
	for _, base := range append(costmodel.OneF1BConfigs(), costmodel.VHalfConfigs()...) {
		for _, m := range sim.OneF1BMethods {
			for _, seq := range []int{2048, 4096} {
				for _, v := range []int{32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 1000} {
					for _, p := range []int{1, 2, 3, 4, 8, 16, 32, 64} {
						for _, micro := range []int{1, 7, 32, 128} {
							c := base.WithSeq(seq).WithVocab(v)
							c.Devices, c.NumMicro = p, micro
							check(c, m)
						}
					}
				}
			}
		}
	}
	grid := built
	for _, name := range experiments.TuneNames() {
		spec, _ := experiments.TuneSpec(name)
		d := spec.Defaulted()
		for _, m := range d.Methods {
			for _, dev := range d.Devices {
				for _, micro := range d.Micros {
					c := d.Base
					c.Devices, c.NumMicro = dev, micro
					check(c, m)
				}
			}
		}
	}
	t.Logf("built %d grid specs and %d tuning candidates", grid, built-grid)
}

// TestBlocksTimeEachPassOnce builds every Table 5 cell on one warm engine. A
// block is written in closed form and timed once, so the engine times
// exactly the timeline's passes; a block planned on its skeleton's own
// timing would time the skeleton's 2PM passes on top.
func TestBlocksTimeEachPassOnce(t *testing.T) {
	en := schedule.NewEngine()
	for _, c := range experiments.Table5Grid().Expand() {
		spec, err := sim.BuildSpec(c.Config, c.Method)
		if err != nil {
			t.Fatalf("%s: %v", c.Label, err)
		}
		tl, err := en.Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", c.Label, err)
		}
		if n := en.Timed(); n != len(tl.Passes) {
			t.Errorf("%s: timed %d passes for %d in the timeline", c.Label, n, len(tl.Passes))
		}
	}
}
