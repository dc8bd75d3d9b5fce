package main

// Tune mode of the vpbench CLI, backed by internal/tune:
//
//	vpbench -tune SPEC [-tune-strategy beam|exhaustive|anneal] [-parallel N]
//	        [-json] [-out FILE] [-v]
//	    runs the auto-tuner and prints the ranked configuration table (the
//	    same table /api/v1/optimize jobs return as JSON). SPEC is either a
//	    named scenario (see -tune-list) or an inline constraint spec in
//	    tune.ParseSpec syntax, e.g.
//	        -tune 'model=4B;devices=8..32;micro=32..128;method=1f1b'
//
//	vpbench -tune-list
//	    lists the named tuning scenarios.
//
// The search runs in-process through tune.Search, the same search a
// POST /api/v1/optimize job runs; -v prints a progress line per simulated
// candidate to stderr.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"vocabpipe/internal/experiments"
	"vocabpipe/internal/tune"
)

// writeTuneJSON emits the result exactly as a finished /api/v1/optimize job's
// result field serializes.
func writeTuneJSON(w io.Writer, res *tune.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// resolveTuneSpec turns the -tune argument into a Spec: a named scenario
// first, inline ParseSpec syntax otherwise (inline specs always contain '=').
func resolveTuneSpec(arg string) (*tune.Spec, error) {
	if !strings.Contains(arg, "=") {
		spec, ok := experiments.TuneSpec(arg)
		if !ok {
			return nil, fmt.Errorf("unknown tuning scenario %q (named scenarios: %s; or pass an inline spec like model=4B;devices=8..32)",
				arg, strings.Join(experiments.TuneNames(), ", "))
		}
		return spec, nil
	}
	return tune.ParseSpec(arg)
}

// runTune executes one search and renders the result.
func runTune(w, stderr io.Writer, specArg, strategyName string, parallel int, jsonOut, verbose bool) int {
	spec, err := resolveTuneSpec(specArg)
	if err != nil {
		fmt.Fprintf(stderr, "vpbench: %v\n", err)
		return 2
	}
	strategy, ok := tune.StrategyByName(strategyName)
	if !ok {
		fmt.Fprintf(stderr, "vpbench: unknown strategy %q (want one of %v)\n", strategyName, tune.Strategies())
		return 2
	}

	opt := tune.Options{Parallel: parallel}
	if verbose {
		opt.OnProgress = func(p tune.Progress) {
			fmt.Fprintf(stderr, "[%d/%d] best %s\n", p.Done, p.Total, p.BestLabel)
		}
	}
	res, err := tune.Search(context.Background(), spec, strategy, opt)
	if err != nil {
		fmt.Fprintf(stderr, "vpbench: %v\n", err)
		return 1
	}

	if jsonOut {
		if err := writeTuneJSON(w, res); err != nil {
			fmt.Fprintf(stderr, "vpbench: %v\n", err)
			return 1
		}
		return 0
	}
	if err := tune.WriteTable(w, res); err != nil {
		fmt.Fprintf(stderr, "vpbench: %v\n", err)
		return 1
	}
	return 0
}

// runTuneList prints the named scenarios with their search-space sizes.
func runTuneList(w io.Writer) int {
	for _, name := range experiments.TuneNames() {
		spec, _ := experiments.TuneSpec(name)
		fmt.Fprintf(w, "%-12s model=%s space=%d candidates (devices %v, micro %v, %d methods)\n",
			name, spec.Base.Name, spec.SpaceSize(), spec.Devices, spec.Micros, len(spec.Methods))
	}
	return 0
}
