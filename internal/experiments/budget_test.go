package experiments

import (
	"testing"

	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
)

// TestTable5AllocationBudget pins the allocations of the paper's largest
// grid on the warm-engine path, as counts that hold on any machine.
//   - sweep.Run of table5's 120 cells on one worker: measured 1,327
//     allocations, under -race too.
//   - A warm sim.Runner over the same cells in expansion order: measured
//     936, under -race too, 7.8 per cell. That is each Result and its
//     per-device slices; the engine and analyzer reuse their scratch.
//
// A runner that built each cell on a cold engine would double both.
func TestTable5AllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full table5 grid in -short mode")
	}
	const sweepBudget, runnerBudget = 1520, 1075
	g := Table5Grid()
	swept := testing.AllocsPerRun(1, func() {
		if errs := sweep.Run(g, sweep.Options{Parallel: 1}).Errs(); len(errs) > 0 {
			t.Fatal(errs[0])
		}
	})
	cells := g.Expand()
	runner := sim.NewRunner()
	ran := testing.AllocsPerRun(1, func() {
		for _, c := range cells {
			if _, err := runner.Run(c.Config, c.Method); err != nil {
				t.Fatalf("%s: %v", c.Label, err)
			}
		}
	})
	t.Logf("table5: sweep.Run %v allocations, warm sim.Runner %v", swept, ran)
	if swept > sweepBudget {
		t.Errorf("sweep.Run(table5, Parallel 1) made %v allocations, budget %d", swept, sweepBudget)
	}
	if ran > runnerBudget {
		t.Errorf("a warm sim.Runner over table5 made %v allocations, budget %d", ran, runnerBudget)
	}
}
