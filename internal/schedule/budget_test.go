package schedule_test

import (
	"testing"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/schedule"
	"vocabpipe/internal/sim"
)

// TestBuildAllocationBudget pins what the engine allocates on every paper
// cell at its heaviest sweep point (seq 4096, 256k vocabulary): the Table 5
// methods on the 1F1B models and the Table 6 methods on the V-Half models,
// 4k to 33k passes each. A cold Build carves its arenas in a fixed number
// of allocations, whatever the cell's size; measured: 10 or 11, under
// -race too.
// A warm Engine.Build of the same spec reuses them and allocates nothing.
func TestBuildAllocationBudget(t *testing.T) {
	const coldBudget = 18
	groups := []struct {
		cfgs    []costmodel.Config
		methods []sim.Method
	}{
		{costmodel.OneF1BConfigs(), []sim.Method{sim.Baseline, sim.Redis, sim.Vocab1, sim.Vocab2, sim.Interlaced}},
		{costmodel.VHalfConfigs(), []sim.Method{sim.VHalfBaseline, sim.VHalfVocab1}},
	}
	for _, g := range groups {
		for _, cfg := range g.cfgs {
			cfg = cfg.WithSeq(4096).WithVocab(256 * 1024)
			for _, m := range g.methods {
				spec, err := sim.BuildSpec(cfg, m)
				if err != nil {
					t.Fatalf("%s/%s: %v", cfg.Name, m, err)
				}
				cold := testing.AllocsPerRun(3, func() {
					if _, err := schedule.Build(spec); err != nil {
						t.Fatal(err)
					}
				})
				// The first two builds fill the engine's two commit-order
				// slabs, which alternate between builds for prefix replay.
				en := schedule.NewEngine()
				en.Build(spec)
				warm := testing.AllocsPerRun(3, func() {
					if _, err := en.Build(spec); err != nil {
						t.Fatal(err)
					}
				})
				if cold > coldBudget || warm != 0 {
					t.Errorf("%s: cold Build %v allocations (budget %d), warm Engine.Build %v (budget 0)",
						spec.Name, cold, coldBudget, warm)
				}
			}
		}
	}
}
