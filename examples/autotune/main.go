// Autotune: ask the planner what to run instead of telling it what to
// evaluate. This example searches the 4B model's configuration space
// (method × devices × microbatches) under an 18 GB per-device memory budget
// with the beam strategy, checks the answer against the exhaustive oracle,
// and prints both ranked tables plus the Pareto frontier.
//
//	go run ./examples/autotune
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/tune"
)

func main() {
	cfg, ok := costmodel.ConfigByName("4B")
	if !ok {
		log.Fatal("no 4B config in the zoo")
	}
	spec := &tune.Spec{
		Name:           "autotune-example",
		Base:           cfg.WithVocab(128 * 1024),
		Devices:        []int{8, 16, 32},
		Micros:         []int{32, 64, 128},
		Methods:        sim.OneF1BMethods,
		MemBudgetBytes: 18 * costmodel.GiB,
	}
	// The same spec can be written as a one-line constraint string — what
	// `vpbench -tune` and POST /api/v1/optimize accept (mem is in GiB, the
	// same unit the ranked table reports):
	parsed, err := tune.ParseSpec("model=4B;vocab=128k;devices=8..32;micro=32..128;method=1f1b;mem=18")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("equivalent spec string parses to %d candidates (literal spec: %d)\n\n",
		parsed.SpaceSize(), spec.SpaceSize())

	beam, err := tune.Search(context.Background(), spec, tune.StrategyBeam, tune.Options{})
	if err != nil {
		log.Fatal(err)
	}
	oracle, err := tune.Search(context.Background(), spec, tune.StrategyExhaustive, tune.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("beam search (evaluated %d of %d candidates):\n", beam.Evaluated, beam.SpaceSize)
	tune.WriteTable(os.Stdout, beam)
	fmt.Printf("\nexhaustive oracle (evaluated all %d):\n", oracle.Evaluated)
	tune.WriteTable(os.Stdout, oracle)

	fmt.Printf("\nbeam found %q, oracle found %q (quality %.1f%%)\n",
		beam.Best.Label, oracle.Best.Label, 100*tune.QualityRatio(beam, oracle))
	fmt.Println("\nPareto frontier (throughput vs memory vs bubble) from the oracle:")
	for _, c := range oracle.Candidates[:oracle.Feasible] {
		if c.Pareto {
			fmt.Printf("  %-24s MFU %5.2f%%  mem %5.1f GB  bubble %5.2f%%\n",
				c.Label, c.MFUPct, c.PeakMemGB, c.BubblePct)
		}
	}
}
