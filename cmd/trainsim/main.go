// trainsim runs the numeric training equivalence demo: a small GPT trained
// with and without Vocabulary Parallelism, printing both loss curves
// (Appendix E / Fig 17).
//
//	go run ./cmd/trainsim -steps 200 -devices 4 -alg vocab-2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vocabpipe/internal/pipeline"
	"vocabpipe/internal/transformer"
	"vocabpipe/internal/vocab"
)

// heads is the demo model's attention head count; -hidden must divide by it.
const heads = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses and checks the flags, trains
// the model both ways and prints the two loss curves to stdout. A usage
// error exits 2.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trainsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	steps := fs.Int("steps", 100, "training steps")
	devices := fs.Int("devices", 4, "vocabulary shards")
	algName := fs.String("alg", "vocab-2", "naive|vocab-1|vocab-2")
	vocabSize := fs.Int("vocab", 64, "vocabulary size (divisible by devices)")
	hidden := fs.Int("hidden", 16, "hidden size")
	layers := fs.Int("layers", 2, "transformer layers")
	seed := fs.Uint64("seed", 2024, "seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "trainsim: "+format+"\n", a...)
		return 2
	}
	var alg vocab.Algorithm
	switch *algName {
	case "naive":
		alg = vocab.AlgNaive
	case "vocab-1":
		alg = vocab.Alg1
	case "vocab-2":
		alg = vocab.Alg2
	default:
		return usage("unknown algorithm %q", *algName)
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case *steps <= 0:
		return usage("-steps must be positive, got %d", *steps)
	case *devices <= 0:
		return usage("-devices must be positive, got %d", *devices)
	case *vocabSize <= 0 || *vocabSize%*devices != 0:
		return usage("-vocab must be a positive multiple of -devices (%d), got %d", *devices, *vocabSize)
	case *hidden <= 0 || *hidden%heads != 0:
		return usage("-hidden must be a positive multiple of the head count (%d), got %d", heads, *hidden)
	case *layers < 0:
		return usage("-layers must not be negative, got %d", *layers)
	}

	cfg := pipeline.TrainConfig{
		Model:     transformer.ModelConfig{Vocab: *vocabSize, MaxSeq: 16, Hidden: *hidden, Layers: *layers, Heads: heads},
		Steps:     *steps,
		SeqLen:    16,
		LR:        5e-3,
		Seed:      *seed,
		Devices:   *devices,
		Algorithm: alg,
	}

	fmt.Fprintf(stdout, "training GPT(V=%d h=%d L=%d) for %d steps, vocabulary sharded %d ways (%s)\n",
		*vocabSize, *hidden, *layers, *steps, *devices, alg)
	serial := pipeline.TrainSerial(cfg)
	par := pipeline.TrainVocabParallel(cfg)
	fmt.Fprintln(stdout, "step   original     vocab-parallel   |diff|")
	stride := *steps / 20
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < len(serial); i += stride {
		d := serial[i].Loss - par[i].Loss
		if d < 0 {
			d = -d
		}
		fmt.Fprintf(stdout, "%4d   %.8f   %.8f   %.2e\n", i, serial[i].Loss, par[i].Loss, d)
	}
	fmt.Fprintf(stdout, "max divergence: %.3g\n", pipeline.MaxLossDiff(serial, par))
	return 0
}
