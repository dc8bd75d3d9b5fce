// vpbench regenerates every table and figure of "Balancing Pipeline
// Parallelism with Vocabulary Parallelism" (MLSys 2025) on the simulated
// substrate, printing measured values next to the paper's. Each experiment is
// a declarative sweep.Grid evaluated concurrently by the sweep engine. Run
// with no arguments for the full suite, or name experiments:
//
//	go run ./cmd/vpbench [flags] [fig1|fig2|fig3|table3|table4|table5|table6|
//	                              blocks|interlaced-mem|ablation-b2|fig17|all]
//
// Flags:
//
//	-parallel N   sweep worker count (default: GOMAXPROCS)
//	-json         emit machine-readable JSON records instead of text tables
//	-csv          emit CSV records instead of text tables
//	-out FILE     write output to FILE instead of stdout
//	-grid SPEC    run a user-defined sweep, e.g.
//	              -grid 'model=4B;seq=2048,4096;vocab=32k,256k;method=1f1b'
//	-v            print per-cell progress to stderr
//	-fidelity     print the Table 5 and Table 6 fidelity reports against the
//	              paper's own numbers, one line per table, and exit
//
// Tune mode (see tune.go and internal/tune): the auto-tuner searches a
// configuration space for the best predicted throughput instead of
// evaluating a fixed grid:
//
//	-tune SPEC            named scenario (-tune-list) or inline constraints,
//	                      e.g. -tune 'model=4B;devices=8..32;micro=32..128'
//	-tune-strategy NAME   beam (default), exhaustive or anneal
//	-tune-list            list the named tuning scenarios
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"

	"vocabpipe/internal/report"
	"vocabpipe/internal/sweep"
)

// openOut resolves the -out flag: the file when set, stdout otherwise. The
// caller closes the returned *os.File when non-nil.
func openOut(path string, stdout io.Writer, stderr io.Writer) (io.Writer, *os.File, int) {
	if path == "" {
		return stdout, nil, 0
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "vpbench: %v\n", err)
		return nil, nil, 1
	}
	return f, f, 0
}

// toOut runs fn on the -out destination (stdout when path is empty) and
// closes the file it opened: fn's exit code, or 1 when the file cannot be
// created or closed.
func toOut(path string, stdout, stderr io.Writer, fn func(io.Writer) int) int {
	w, outF, code := openOut(path, stdout, stderr)
	if code != 0 {
		return code
	}
	rc := fn(w)
	if outF != nil {
		if err := outF.Close(); err != nil {
			fmt.Fprintf(stderr, "vpbench: %v\n", err)
			if rc == 0 {
				rc = 1
			}
		}
	}
	return rc
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses flags, selects experiments,
// evaluates their grids on the sweep engine and renders to stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parallel := fs.Int("parallel", 0, "sweep worker count (default: GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON records instead of text tables")
	csvOut := fs.Bool("csv", false, "emit CSV records instead of text tables")
	outFile := fs.String("out", "", "write output to `FILE` instead of stdout")
	gridSpec := fs.String("grid", "", "user-defined sweep `SPEC` (key=v1,v2;... with keys model, seq, vocab, method, micro, devices)")
	verbose := fs.Bool("v", false, "print per-cell progress to stderr")
	tuneSpec := fs.String("tune", "", "run the auto-tuner on a named scenario or inline `SPEC` (tune.ParseSpec syntax)")
	tuneStrategy := fs.String("tune-strategy", "", "search strategy for -tune: beam (default), exhaustive or anneal")
	tuneList := fs.Bool("tune-list", false, "list the named tuning scenarios and exit")
	fidelity := fs.Bool("fidelity", false, "print the Table 5 and Table 6 fidelity reports against the paper and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parallel < 0 {
		// Zero is the documented GOMAXPROCS default; a negative count has
		// no meaning, so it is refused rather than read as the default.
		fmt.Fprintf(stderr, "vpbench: -parallel must not be negative, got %d\n", *parallel)
		return 2
	}
	if *jsonOut && *csvOut {
		fmt.Fprintln(stderr, "vpbench: -json and -csv are mutually exclusive")
		return 2
	}
	// Reject flags outside the mode they apply to instead of silently
	// ignoring them (a dropped flag makes the user believe it took effect).
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *tuneSpec == "" && explicit["tune-strategy"] {
		fmt.Fprintln(stderr, "vpbench: -tune-strategy only applies to -tune")
		return 2
	}
	if *fidelity {
		if *tuneSpec != "" || *gridSpec != "" || *tuneList || explicit["v"] || len(fs.Args()) > 0 {
			fmt.Fprintln(stderr, "vpbench: -fidelity runs alone (drop -grid, -tune, -tune-list, -v and experiment names)")
			return 2
		}
		if *jsonOut || *csvOut {
			fmt.Fprintln(stderr, "vpbench: -fidelity has a fixed text format (drop -json/-csv)")
			return 2
		}
		return toOut(*outFile, stdout, stderr, func(w io.Writer) int { return runFidelity(w, stderr, *parallel) })
	}
	if *tuneList {
		if *tuneSpec != "" || *gridSpec != "" || explicit["parallel"] || explicit["v"] || len(fs.Args()) > 0 {
			fmt.Fprintln(stderr, "vpbench: -tune-list takes no other modes or arguments")
			return 2
		}
		if *jsonOut || *csvOut {
			fmt.Fprintln(stderr, "vpbench: -tune-list has a fixed text format (drop -json/-csv)")
			return 2
		}
		return toOut(*outFile, stdout, stderr, runTuneList)
	}
	if *tuneSpec != "" {
		if *gridSpec != "" || len(fs.Args()) > 0 {
			fmt.Fprintln(stderr, "vpbench: -tune runs alone (drop -grid and experiment names)")
			return 2
		}
		if *csvOut {
			fmt.Fprintln(stderr, "vpbench: -tune emits a ranked table or -json, not CSV")
			return 2
		}
		return toOut(*outFile, stdout, stderr, func(w io.Writer) int {
			return runTune(w, stderr, *tuneSpec, *tuneStrategy, *parallel, *jsonOut, *verbose)
		})
	}

	// Select experiments. A custom -grid runs after any named experiments;
	// bare "-grid ..." with no names runs only the custom sweep.
	var selected []experiment
	names := fs.Args()
	if len(names) == 0 && *gridSpec == "" {
		names = []string{"all"}
	}
	for _, name := range names {
		if name == "all" {
			selected = append(selected, experimentList...)
			continue
		}
		e, ok := experimentByName(name)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q\n", name)
			return 2
		}
		selected = append(selected, e)
	}
	if *gridSpec != "" {
		g, err := sweep.ParseGrid(*gridSpec)
		if err != nil {
			fmt.Fprintf(stderr, "vpbench: %v\n", err)
			return 2
		}
		selected = append(selected, experiment{
			name:   g.Name,
			grid:   func() *sweep.Grid { return g },
			render: renderGridTable,
		})
	}

	w, outF, code := openOut(*outFile, stdout, stderr)
	if code != 0 {
		return code
	}

	opt := sweep.Options{Parallel: *parallel}
	if *verbose {
		// Sweep OnCell callbacks can run concurrently; serialize writes to
		// stderr (which may be an in-memory buffer under test).
		var printMu sync.Mutex
		opt.OnCell = func(done, total int, r sweep.CellResult) {
			status := ""
			switch {
			case r.Err != nil:
				status = "  ERROR: " + r.Err.Error()
			case r.Result != nil && r.Result.OOM:
				status = "  OOM"
			}
			printMu.Lock()
			fmt.Fprintf(stderr, "[%d/%d] %s %s%s\n", done, total, r.Experiment, r.Label, status)
			printMu.Unlock()
		}
	}

	var records []report.Record
	cellsFailed := false
	for _, e := range selected {
		var res *sweep.Results
		if e.grid != nil {
			res = sweep.Run(e.grid(), opt)
			if len(res.Errs()) > 0 {
				cellsFailed = true
			}
		}
		if *jsonOut || *csvOut {
			// Machine-readable mode skips text rendering.
			if res == nil {
				fmt.Fprintf(stderr, "vpbench: note: %s is closed-form and has no machine-readable records\n", e.name)
				continue
			}
			records = append(records, res.Records()...)
			continue
		}
		e.render(w, res)
	}

	if *jsonOut {
		if err := report.WriteJSON(w, records); err != nil {
			fmt.Fprintf(stderr, "vpbench: %v\n", err)
			return 1
		}
	}
	if *csvOut {
		if err := report.WriteCSV(w, records); err != nil {
			fmt.Fprintf(stderr, "vpbench: %v\n", err)
			return 1
		}
	}
	if outF != nil {
		if err := outF.Close(); err != nil {
			fmt.Fprintf(stderr, "vpbench: %v\n", err)
			return 1
		}
	}
	if cellsFailed {
		// Per-cell failures are reported in the output (error rows/records)
		// but must still fail the process for scripted use.
		return 1
	}
	return 0
}
