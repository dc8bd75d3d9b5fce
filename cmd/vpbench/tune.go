package main

// Tune mode of the vpbench CLI, backed by internal/tune + internal/jobs:
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
// The search is submitted to the same async job queue vpserve uses for
// POST /api/v1/optimize and polled to completion, so the CLI exercises the
// exact submit → poll → result lifecycle the HTTP API exposes; -v streams
// the job's progress snapshots to stderr.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"vocabpipe/internal/experiments"
	"vocabpipe/internal/jobs"
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

// runTune executes one search through the job queue and renders the result.
func runTune(w, stderr io.Writer, specArg, strategyName string, parallel int, jsonOut, verbose bool) int {
	spec, err := resolveTuneSpec(specArg)
	if err != nil {
		fmt.Fprintf(stderr, "vpbench: %v\n", err)
		return 2
	}
	strategy := tune.StrategyBeam
	if strategyName != "" {
		var ok bool
		if strategy, ok = tune.StrategyByName(strategyName); !ok {
			fmt.Fprintf(stderr, "vpbench: unknown strategy %q (want one of %v)\n", strategyName, tune.Strategies())
			return 2
		}
	}

	// One worker, one job, the same tune.JobFunc adapter the server
	// submits: the CLI runs the exact lifecycle the HTTP API exposes.
	q := jobs.New(jobs.Options{Workers: 1, Capacity: 1})
	defer q.Close(context.Background())
	id, err := q.Submit("tune/"+spec.Name, tune.JobFunc(spec, strategy, tune.Options{Parallel: parallel}))
	if err != nil {
		fmt.Fprintf(stderr, "vpbench: %v\n", err)
		return 1
	}

	var lastDone int
	var snap jobs.Snapshot
	for {
		var ok bool
		snap, ok = q.Get(id)
		if !ok {
			fmt.Fprintf(stderr, "vpbench: tune job vanished\n")
			return 1
		}
		if verbose && snap.Progress.Done > lastDone {
			lastDone = snap.Progress.Done
			fmt.Fprintf(stderr, "[%d/%d] best %s\n", snap.Progress.Done, snap.Progress.Total, snap.Progress.Note)
		}
		if snap.State.Terminal() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap.State != jobs.StateDone {
		fmt.Fprintf(stderr, "vpbench: tune job %s: %s\n", snap.State, snap.Error)
		return 1
	}
	res, ok := snap.Result.(*tune.Result)
	if !ok {
		fmt.Fprintf(stderr, "vpbench: tune job returned %T\n", snap.Result)
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
