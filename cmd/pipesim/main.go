// pipesim explores pipeline schedules interactively: pick a model, method,
// vocabulary and sequence length; get the timeline, per-device stats, and
// optionally a Chrome trace.
//
//	go run ./cmd/pipesim -model 4B -method vocab-2 -vocab 262144 -seq 2048 \
//	    -micro 32 -chart -trace /tmp/trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/report"
	"vocabpipe/internal/schedule"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses and checks the flags,
// simulates the chosen cell and prints its report to stdout. A usage error
// exits 2; a failed simulation or trace write exits 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "4B", "model config: 4B/10B/21B (1F1B) or 7B/16B/30B (V-Half)")
	method := fs.String("method", "vocab-1", "baseline|redis|vocab-1|vocab-2|interlaced|vhalf-baseline|vhalf-vocab-1")
	vocabSize := fs.Int("vocab", 131072, "vocabulary size")
	seq := fs.Int("seq", 2048, "sequence length")
	micro := fs.Int("micro", 0, "microbatches (0 = paper's 128)")
	chart := fs.Bool("chart", false, "print the ASCII timeline")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "pipesim: "+format+"\n", a...)
		return 2
	}
	cfg, ok := costmodel.ConfigByName(*model)
	m, okMethod := sim.MethodByName(*method)
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case !ok:
		return usage("unknown model %q", *model)
	case !okMethod:
		return usage("unknown method %q", *method)
	case *vocabSize <= 0:
		return usage("-vocab must be positive, got %d", *vocabSize)
	case *seq <= 0:
		return usage("-seq must be positive, got %d", *seq)
	case *micro < 0:
		return usage("-micro must be positive, or 0 for the paper's 128, got %d", *micro)
	}
	cfg = cfg.WithVocab(*vocabSize).WithSeq(*seq)
	if *micro > 0 {
		cfg.NumMicro = *micro
	}

	r, err := sim.Run(cfg, m)
	if err != nil {
		fmt.Fprintf(stderr, "pipesim: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "%s on %s: iteration %.3fs, MFU %.2f%%, worst bubble %s, OOM=%v\n",
		m, cfg, r.IterTime, 100*r.MFU, report.Pct(r.Bubble), r.OOM)
	t := report.New("per device", "device", "peak memory GB", "bubble", "in-flight")
	for d := 0; d < cfg.Devices; d++ {
		t.Add(d, report.GB(r.PeakMem[d]), report.Pct(r.Timeline.BubbleRatio(d)), r.InFlight[d])
	}
	fmt.Fprint(stdout, t.String())

	if *chart {
		fmt.Fprint(stdout, trace.ASCII(r.Timeline, 150))
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, r.Timeline); err != nil {
			fmt.Fprintf(stderr, "pipesim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote Chrome trace to %s (open in chrome://tracing or Perfetto)\n", *traceOut)
	}
	return 0
}

// writeTrace writes tl to path as a Chrome trace. The file counts as
// written only once it is closed without error.
func writeTrace(path string, tl *schedule.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, tl); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
