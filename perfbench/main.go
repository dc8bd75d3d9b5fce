// Command perfbench is the repository's benchmark. It runs one workload in
// one process through the program's public entry points, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer breakdown) as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 3 --seconds 10 --trace 0
//
// Workloads:
//
//	paper-grids  the six grid-backed paper experiments, back to back, through
//	             sweep.RunCtx, Results.Records and report.WriteJSON
//	serve-mixed  two closed-loop connections against an in-process server:
//	             ~90% repeated dashboard queries, ~10% never-repeated cells
//	tune-jobs    one client cycling the named tuning scenarios × strategies
//	             through POST /api/v1/optimize and the job's SSE stream
//
// Every load is a closed loop: each caller waits for its reply before it
// sends the next request. Set-up (reference results, cache and hot-set
// warm-up, one untimed tuning cycle) is repeated and timed separately, so a
// change that moves work into set-up shows in setup_s. Every time is scaled
// to a quiet host by a reference loop timed between ops (refLoop in
// host.go), so that a co-tenant's load on the host cancels. The traced run
// measures an untraced window, then a traced window with spans around every
// call into each layer, then probes that time single layers; it writes the
// spans as Chrome trace_event JSON under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart approximates process start for the first set-up.
var processStart = time.Now()

// instance is one set-up workload, ready for measured windows.
type instance interface {
	// window runs the closed loop for at least d, finishing the op (or
	// cycle) in flight, and reports what it measured. A non-nil recorder
	// traces every call the loop makes into the program.
	window(d time.Duration, rec *recorder) windowResult
	// layers computes the per-layer metrics from the traced window just run
	// and from probes of single layers, returning the number of failed
	// checks the probes made.
	layers(rec *recorder, m layerValues) int
	close()
}

// workload names a set-up function.
type workload struct {
	name  string
	setup func(seed int64) (instance, error)
}

var workloads = []workload{
	{"paper-grids", setupPaperGrids},
	{"serve-mixed", setupServeMixed},
	{"tune-jobs", setupTuneJobs},
}

// windowResult is one measured window.
type windowResult struct {
	ops, failed int
	cells       int
	elapsed     time.Duration // without the refLoop samples
	lat         *histogram    // per-op latency
	heapMB      float64
	clock       hostClock // refLoop samples taken between ops
}

// quiet is the window's elapsed time scaled to a quiet host.
func (w windowResult) quiet() float64 { return w.elapsed.Seconds() * w.clock.scale() }

func (w windowResult) opsPerS() float64 { return float64(w.ops) / w.quiet() }

// metricDef describes one metric in the benchmark's catalogue.
type metricDef struct {
	name, unit string
	// about says what an end-to-end metric measures, or which end-to-end
	// metric a per-layer metric should move, on which workload: written
	// down before measuring.
	about string
}

// endToEnd lists the metrics a user of the system sees. Every time in it is
// scaled to a quiet host: multiplied by refQuiet over the mean refLoop time
// taken beside it (see refLoop). Standard error prints the raw figures too.
var endToEnd = []metricDef{
	{"setup_s", "s", "set-up, median of the run's set-ups"},
	{"cells_per_s", "cells/s", "cells simulated (paper-grids, tune-jobs) or served (serve-mixed) per second"},
	{"ops_per_s", "ops/s", "passes over the six grids, requests, or searches per second"},
	{"p50_ms", "ms", "median op latency: pass, request, or cycle of 12 searches"},
	{"p99_ms", "ms", "99th-percentile op latency"},
	{"retained_heap_mb", "MB", "live heap after forced GC once caches and rings are full"},
}

// layerValues holds per-layer metric values by name.
type layerValues map[string]float64

// perLayer lists the traced run's metrics. A layer the workload does not
// cross reads 0.
var perLayer = []metricDef{
	{"sim.spec_us", "us", "cells_per_s on paper-grids (~1% of a cell: predict no visible change)"},
	{"schedule.build_us.1f1b", "us", "cells_per_s on paper-grids; p99_ms on serve-mixed"},
	{"schedule.build_us.vhalf", "us", "cells_per_s on paper-grids; p99_ms on serve-mixed"},
	{"schedule.passes", "count", "cells_per_s on paper-grids (more passes vs slower dispatch)"},
	{"schedule.passes.1f1b", "count", "cells_per_s on paper-grids"},
	{"schedule.passes.vhalf", "count", "cells_per_s on paper-grids"},
	{"schedule.ns_per_pass", "ns", "cells_per_s on paper-grids"},
	{"schedule.ns_per_pass.1f1b", "ns", "cells_per_s on paper-grids"},
	{"schedule.ns_per_pass.vhalf", "ns", "cells_per_s on paper-grids"},
	{"schedule.analyze_us", "us", "cells_per_s on paper-grids"},
	{"sim.run_us", "us", "cells_per_s on paper-grids and tune-jobs"},
	{"sim.allocs", "count", "cells_per_s on paper-grids and tune-jobs"},
	{"sweep.parallel_eff", "ratio", "cells_per_s on paper-grids (2-proc scaling)"},
	{"sweep.key_us", "us", "p50_ms on serve-mixed hits; cells_per_s on paper-grids (small)"},
	{"sweep.records_us", "us", "p99_ms on serve-mixed; cells_per_s on paper-grids (small)"},
	{"report.encode_us", "us", "p50_ms on serve-mixed hits; cells_per_s on paper-grids (small)"},
	{"http.hit_us", "us", "p50_ms on serve-mixed"},
	{"http.miss_ms", "ms", "p99_ms on serve-mixed"},
	{"http.transport_us", "us", "p50_ms on serve-mixed"},
	{"server.self_us", "us", "p50_ms on serve-mixed"},
	{"admission.wait_us.cheap", "us", "p50_ms on serve-mixed"},
	{"admission.wait_us.compute", "us", "p99_ms on serve-mixed"},
	{"cache.lookup_self_us", "us", "p50_ms on serve-mixed"},
	{"server.compute_ms", "ms", "p99_ms on serve-mixed"},
	{"cache.hit_pct", "%", "ops_per_s on serve-mixed"},
	{"cache.evictions_per_s", "1/s", "ops_per_s on serve-mixed"},
	{"obs.spans_per_req", "count", "p50_ms on serve-mixed"},
	{"obs.overhead_us", "us", "p50_ms on serve-mixed"},
	{"server.submit_ms", "ms", "ops_per_s on tune-jobs"},
	{"jobs.queue_wait_ms", "ms", "ops_per_s on tune-jobs"},
	{"jobs.sse_lag_ms", "ms", "ops_per_s on tune-jobs"},
	{"tune.search_ms.exhaustive", "ms", "ops_per_s on tune-jobs"},
	{"tune.search_ms.beam", "ms", "ops_per_s on tune-jobs"},
	{"tune.search_ms.anneal", "ms", "ops_per_s on tune-jobs"},
	{"tune.cells_per_search", "count", "ops_per_s vs cells_per_s on tune-jobs"},
	{"tune.quality_pct", "%", "ops_per_s vs cells_per_s on tune-jobs"},
	{"schedule.chain_gain_pct", "%", "cells_per_s on tune-jobs (prefix replay); ~0 on paper-grids"},
	{"host.spin_mops", "Mops/s", "none (host-speed diagnostic)"},
	{"bench.trace_overhead_pct", "%", "none (throughput lost to tracing)"},
}

// metric is one value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times an untraced run sets its workload up; setup_s
// is their median.
const setupRuns = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-grids, serve-mixed or tune-jobs")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of one measured window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer breakdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload paper-grids|serve-mixed|tune-jobs, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	traced := *traceFlag == 1
	d := time.Duration(*seconds) * time.Second

	spinStart := time.Now()
	initRef()
	spinBefore := spinMops()
	fmt.Fprintf(stderr, "perfbench %s seed=%d GOMAXPROCS=%d host.spin_mops before=%.1f\n",
		w.name, *seed, runtime.GOMAXPROCS(0), spinBefore)

	runs := setupRuns
	if traced {
		runs = 1
	}
	var inst instance
	var setups []float64
	// refLoop samples before, between and after the set-ups scale them.
	var clock hostClock
	clock.sample()
	for i := 0; i < runs; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		if i == 0 {
			start = processStart.Add(time.Since(spinStart))
		}
		var err error
		if inst, err = w.setup(*seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", w.name, err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
		clock.sample()
	}
	defer inst.close()
	fmt.Fprintf(stderr, "set-up times (s): %.4f; host scale %.4f\n", setups, clock.scale())

	var res result
	if traced {
		res = runTraced(w.name, *seed, inst, d, stderr)
	} else {
		win := inst.window(d, nil)
		sc := win.clock.scale()
		res = result{
			Correct:   win.failed == 0,
			Attempted: win.ops,
			Failed:    win.failed,
			Metrics: map[string]metric{
				"setup_s":          {median(setups) * clock.scale(), "s"},
				"cells_per_s":      {float64(win.cells) / win.quiet(), "cells/s"},
				"ops_per_s":        {win.opsPerS(), "ops/s"},
				"p50_ms":           {win.lat.quantile(0.50) * sc, "ms"},
				"p99_ms":           {win.lat.quantile(0.99) * sc, "ms"},
				"retained_heap_mb": {win.heapMB, "MB"},
			},
		}
		printTable(stderr, endToEnd, res.Metrics)
		fmt.Fprintf(stderr, "raw: setup_s %.4f, cells_per_s %.4f, ops_per_s %.4f, p50_ms %.4f, p99_ms %.4f; "+
			"host scale %.4f (%d refLoop samples, mean %.3f ms, quiet %.3f ms)\n",
			median(setups), float64(win.cells)/win.elapsed.Seconds(), float64(win.ops)/win.elapsed.Seconds(),
			win.lat.quantile(0.50), win.lat.quantile(0.99),
			sc, win.clock.n, float64(win.clock.sum)/float64(win.clock.n)/1e6, float64(refQuiet)/1e6)
		fmt.Fprintf(stderr, "latency samples: %d; fail_pct: %.3f (%d of %d)\n",
			win.lat.total(), 100*float64(win.failed)/float64(win.ops), win.failed, win.ops)
	}

	spinAfter := spinMops()
	fmt.Fprintf(stderr, "host.spin_mops after=%.1f (before=%.1f)\n", spinAfter, spinBefore)
	if traced {
		res.Metrics["host.spin_mops"] = metric{(spinBefore + spinAfter) / 2, "Mops/s"}
		printTable(stderr, perLayer, res.Metrics)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runTraced measures an untraced window, then a traced one, then the
// workload's single-layer probes, and writes the Chrome trace.
func runTraced(name string, seed int64, inst instance, d time.Duration, stderr io.Writer) result {
	plain := inst.window(d, nil)
	rec := &recorder{}
	tw := inst.window(d, rec)
	vals := layerValues{}
	probeFailed := inst.layers(rec, vals)
	vals["bench.trace_overhead_pct"] = 100 * (1 - tw.opsPerS()/plain.opsPerS())

	path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := rec.writeChrome(path); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
	} else {
		fmt.Fprintf(stderr, "chrome trace: %s\n", path)
	}
	failed := plain.failed + tw.failed + probeFailed
	res := result{
		Correct:   failed == 0,
		Attempted: plain.ops + tw.ops,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	for _, def := range perLayer {
		res.Metrics[def.name] = metric{vals[def.name], def.unit}
	}
	return res
}

// printTable writes the metrics in catalogue order, for a human reader.
func printTable(w io.Writer, defs []metricDef, ms map[string]metric) {
	for _, def := range defs {
		m, ok := ms[def.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.4f %-8s %s\n", def.name, m.Value, def.unit, def.about)
	}
}

// median of a non-empty slice.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
