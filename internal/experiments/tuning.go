// Named tuning scenarios: curated tune.Spec constructors shared by
// `vpbench -tune`, POST /api/v1/optimize (scenario=NAME), the differential
// tests and perfbench — the same registry pattern the sweep grids use.
package experiments

import (
	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/tune"
)

// tuneRegistry lists the named scenarios in presentation order.
var tuneRegistry = []struct {
	name string
	spec func() *tune.Spec
}{
	{"4b-quick", Tune4BQuick},
	{"4b-full", Tune4BFull},
	{"21b-heavy", Tune21BHeavy},
	{"vhalf-30b", TuneVHalf30B},
}

// TuneSpec returns the named tuning scenario, freshly constructed.
func TuneSpec(name string) (*tune.Spec, bool) {
	for _, e := range tuneRegistry {
		if e.name == name {
			return e.spec(), true
		}
	}
	return nil, false
}

// TuneNames lists the scenario names in registry order.
func TuneNames() []string {
	names := make([]string, len(tuneRegistry))
	for i, e := range tuneRegistry {
		names[i] = e.name
	}
	return names
}

// Tune4BQuick is the small differential scenario: the 4B model across the
// divisible device counts and a short microbatch axis, 1F1B methods only —
// 45 candidates, cheap enough that exhaustive is the test oracle against
// which beam's top-1 must agree.
func Tune4BQuick() *tune.Spec {
	cfg, _ := costmodel.ConfigByName("4B")
	return &tune.Spec{
		Name:    "4b-quick",
		Base:    cfg.WithVocab(128 * 1024),
		Devices: []int{8, 16, 32},
		Micros:  []int{32, 64, 128},
		Methods: sim.OneF1BMethods,
	}
}

// Tune4BFull widens the microbatch axis and admits every method, so V-Half
// layouts compete with 1F1B ones (V-Half needs 2p stages to divide the
// layers; infeasible combinations report as such).
func Tune4BFull() *tune.Spec {
	cfg, _ := costmodel.ConfigByName("4B")
	return &tune.Spec{
		Name:    "4b-full",
		Base:    cfg.WithVocab(128 * 1024),
		Devices: []int{4, 8, 16},
		Micros:  []int{16, 32, 64, 128, 256},
		Methods: sim.AllMethods,
	}
}

// Tune21BHeavy is the paper's largest 1F1B model at its heaviest sweep
// point, where vocabulary pressure makes the method choice decisive.
func Tune21BHeavy() *tune.Spec {
	cfg, _ := costmodel.ConfigByName("21B")
	return &tune.Spec{
		Name:    "21b-heavy",
		Base:    cfg.WithSeq(4096).WithVocab(256 * 1024),
		Devices: []int{16, 32, 64},
		Micros:  []int{64, 128},
		Methods: sim.OneF1BMethods,
	}
}

// TuneVHalf30B searches the V-Half family on the largest V-Half model.
func TuneVHalf30B() *tune.Spec {
	cfg, _ := costmodel.ConfigByName("30B")
	return &tune.Spec{
		Name:    "vhalf-30b",
		Base:    cfg.WithVocab(256 * 1024),
		Devices: []int{16, 32},
		Micros:  []int{64, 128, 256},
		Methods: sim.VHalfMethods,
	}
}
