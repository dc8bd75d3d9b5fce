package schedule_test

import (
	"testing"

	"vocabpipe/internal/experiments"
	"vocabpipe/internal/schedule"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
)

// TestTimerReproducesGreedy re-times greedy dispatch's own per-device order
// through the fixed-order timer on every cell the timeline golden pins: the
// six paper grids and every candidate of the four named tuning scenarios,
// V-Half included. Greedy commits each pass at the later of its device's
// previous end and its inputs' readiness, so timing its order by the same
// rules must give every pass the same start and end, and the same makespan,
// bit for bit: the timer and dispatch share each rule and nothing else.
func TestTimerReproducesGreedy(t *testing.T) {
	cells := 0
	each := func(g *sweep.Grid) {
		for _, c := range g.Expand() {
			var spec *schedule.Spec
			if c.Eval != nil {
				r, err := c.Eval(c)
				if err != nil {
					t.Fatalf("%s %s: %v", g.Name, c.Label, err)
				}
				spec = r.Timeline.Spec
			} else {
				var err error
				if spec, err = sim.BuildSpec(c.Config, c.Method); err != nil {
					t.Fatalf("%s %s: %v", g.Name, c.Label, err)
				}
			}
			want, err := schedule.BuildGreedy(spec)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name, c.Label, err)
			}
			got, err := schedule.Retime(want)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name, c.Label, err)
			}
			if got.Makespan != want.Makespan {
				t.Fatalf("%s %s: makespan %v, greedy %v", g.Name, c.Label, got.Makespan, want.Makespan)
			}
			for d, row := range want.ByDevice {
				for k, p := range row {
					if got.ByDevice[d][k] != p {
						t.Fatalf("%s %s: device %d pass %d timed %+v, greedy %+v", g.Name, c.Label, d, k, got.ByDevice[d][k], p)
					}
				}
			}
			cells++
		}
	}
	for _, name := range experiments.Names() {
		grid, _ := experiments.Grid(name)
		each(grid())
	}
	for _, name := range experiments.TuneNames() {
		spec, _ := experiments.TuneSpec(name)
		d := spec.Defaulted()
		g := &sweep.Grid{Name: "tune/" + d.Name}
		for _, m := range d.Methods {
			for _, dev := range d.Devices {
				for _, micro := range d.Micros {
					cfg := d.Base
					cfg.Devices, cfg.NumMicro = dev, micro
					g.Cells = append(g.Cells, sweep.Cell{Label: cfg.Name, Config: cfg, Method: m})
				}
			}
		}
		each(g)
	}
	if cells != 371 {
		t.Errorf("re-timed %d cells, want the timeline golden's 371", cells)
	}
}
