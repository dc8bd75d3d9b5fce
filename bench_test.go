// Package vocabpipe's root benchmark harness: one testing.B benchmark per
// table and figure of the paper, plus micro-benchmarks of the numeric core
// and two ablations: Appendix B.2's interlaced schedule with and without
// its synchronous all-reduces, and the communication barrier count. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark reports domain metrics (MFU, peak GB, bubble %) via
// b.ReportMetric so the bench output doubles as an experiment record.
package vocabpipe_test

import (
	"fmt"
	"testing"

	"vocabpipe/internal/comm"
	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/layout"
	"vocabpipe/internal/pipeline"
	"vocabpipe/internal/schedule"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/tensor"
	"vocabpipe/internal/transformer"
	"vocabpipe/internal/vocab"
)

// benchCell simulates one (config, method) cell and reports its metrics.
func benchCell(b *testing.B, cfg costmodel.Config, m sim.Method) {
	b.Helper()
	var r *sim.Result
	for i := 0; i < b.N; i++ {
		r = sim.MustRun(cfg, m)
	}
	b.ReportMetric(100*r.MFU, "MFU%")
	b.ReportMetric(r.MaxMem/costmodel.GiB, "peakGB")
	b.ReportMetric(100*r.Bubble, "bubble%")
}

// BenchmarkTable5 covers Table 5 / Figures 11-12: every model × sequence ×
// vocabulary × method cell of the 1F1B comparison.
func BenchmarkTable5(b *testing.B) {
	for _, cfg := range costmodel.OneF1BConfigs() {
		for _, seq := range costmodel.SeqLengths {
			for _, v := range costmodel.VocabSizes {
				for _, m := range sim.OneF1BMethods {
					name := fmt.Sprintf("%s/seq%d/V%dk/%s", cfg.Name, seq, v/1024, m)
					b.Run(name, func(b *testing.B) {
						benchCell(b, cfg.WithSeq(seq).WithVocab(v), m)
					})
				}
			}
		}
	}
}

// BenchmarkTable6 covers Table 6 / Figures 13-14: the V-Half comparison.
func BenchmarkTable6(b *testing.B) {
	for _, cfg := range costmodel.VHalfConfigs() {
		for _, seq := range costmodel.SeqLengths {
			for _, v := range costmodel.VocabSizes {
				for _, m := range sim.VHalfMethods {
					name := fmt.Sprintf("%s/seq%d/V%dk/%s", cfg.Name, seq, v/1024, m)
					b.Run(name, func(b *testing.B) {
						benchCell(b, cfg.WithSeq(seq).WithVocab(v), m)
					})
				}
			}
		}
	}
}

// BenchmarkFig1Imbalance quantifies the repeating bubble pattern of Fig 1.
func BenchmarkFig1Imbalance(b *testing.B) {
	mk := func(extra float64) *schedule.Spec {
		stages := make([]schedule.Stage, 4)
		for i := range stages {
			stages[i] = schedule.Stage{F: 1, B: 2, ActBytes: 1}
		}
		stages[3].F += extra
		stages[3].B += 2 * extra
		return &schedule.Spec{P: 4, M: 32, Chunks: 1, Stages: stages}
	}
	for _, tc := range []struct {
		name  string
		extra float64
	}{{"balanced", 0}, {"output-on-last", 1}} {
		b.Run(tc.name, func(b *testing.B) {
			var tl *schedule.Timeline
			for i := 0; i < b.N; i++ {
				tl = schedule.MustBuild(mk(tc.extra))
			}
			b.ReportMetric(100*tl.BubbleRatio(0), "dev0-bubble%")
		})
	}
}

// BenchmarkFig2Ratios evaluates the Gemma2-9B vocabulary/transformer ratios.
func BenchmarkFig2Ratios(b *testing.B) {
	for _, v := range costmodel.VocabSizes {
		b.Run(fmt.Sprintf("V%dk", v/1024), func(b *testing.B) {
			cfg := costmodel.Gemma2_9B().WithVocab(v)
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = cfg.OutputToTransformerRatio()
			}
			b.ReportMetric(ratio, "compute-ratio")
			b.ReportMetric(cfg.VocabToTransformerParamRatio(), "memory-ratio")
		})
	}
}

// BenchmarkFig3Redistribution measures the residual imbalance after greedy
// layer redistribution (Fig 3).
func BenchmarkFig3Redistribution(b *testing.B) {
	cfg := costmodel.Fig3Config()
	b.Run("baseline", func(b *testing.B) {
		var loads []layout.StageLoad
		for i := 0; i < b.N; i++ {
			loads, _ = layout.Baseline(cfg, 16)
		}
		b.ReportMetric(layout.MaxComputeUnits(cfg, loads)/layout.MeanComputeUnits(cfg, loads), "max/mean")
	})
	b.Run("redis", func(b *testing.B) {
		var loads []layout.StageLoad
		for i := 0; i < b.N; i++ {
			loads, _ = layout.Redis(cfg, 16)
		}
		b.ReportMetric(layout.MaxComputeUnits(cfg, loads)/layout.MeanComputeUnits(cfg, loads), "max/mean")
	})
}

// BenchmarkTable3Scaling evaluates the calibrated kernel-scaling model.
func BenchmarkTable3Scaling(b *testing.B) {
	for _, seq := range []int{2048, 4096} {
		for _, p := range []int{8, 16, 32} {
			b.Run(fmt.Sprintf("seq%d/p%d", seq, p), func(b *testing.B) {
				var s float64
				for i := 0; i < b.N; i++ {
					s = costmodel.OutputScalingFactor(vocab.Alg1, seq, p)
				}
				b.ReportMetric(100*s, "vocab1-scaling%")
				b.ReportMetric(100*costmodel.OutputScalingFactor(vocab.Alg2, seq, p), "vocab2-scaling%")
				b.ReportMetric(100*costmodel.InputScalingFactor(seq, p), "input-scaling%")
			})
		}
	}
}

// BenchmarkAblationB2 reproduces Appendix B.2: interlaced with and without
// its synchronous all-reduces (21B, 32 GPUs, 256k vocabulary).
func BenchmarkAblationB2(b *testing.B) {
	cfg, _ := costmodel.ConfigByName("21B")
	cfg = cfg.WithVocab(256 * 1024)
	for _, tc := range []struct {
		name string
		sync bool
	}{{"with-sync", true}, {"no-sync", false}} {
		b.Run(tc.name, func(b *testing.B) {
			var iter float64
			for i := 0; i < b.N; i++ {
				spec, err := sim.BuildSpec(cfg, sim.Interlaced)
				if err != nil {
					b.Fatal(err)
				}
				if !tc.sync {
					spec.Interlaced.SyncTime = 0
				}
				tl, err := schedule.Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				iter = tl.Makespan
			}
			b.ReportMetric(iter, "iter-seconds")
		})
	}
}

// BenchmarkBarrierCountAblation sweeps the number of communication
// barriers: the in-flight activation overhead equals the barrier count, and
// the makespan improves as barriers are removed.
func BenchmarkBarrierCountAblation(b *testing.B) {
	cfg, _ := costmodel.ConfigByName("4B")
	cfg = cfg.WithVocab(256 * 1024)
	for _, tc := range []struct {
		name string
		m    sim.Method
	}{{"2-barriers-vocab1", sim.Vocab1}, {"1-barrier-vocab2", sim.Vocab2}} {
		b.Run(tc.name, func(b *testing.B) {
			var r *sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.MustRun(cfg, tc.m)
			}
			b.ReportMetric(float64(r.InFlight[0]), "in-flight-dev0")
			b.ReportMetric(100*r.MFU, "MFU%")
		})
	}
}

// BenchmarkFig17Convergence runs the numeric serial vs vocabulary-parallel
// trainers and reports their divergence (must be ~float64 round-off).
func BenchmarkFig17Convergence(b *testing.B) {
	cfg := pipeline.TrainConfig{
		Model:     transformer.ModelConfig{Vocab: 32, MaxSeq: 12, Hidden: 8, Layers: 2, Heads: 2},
		Steps:     20,
		SeqLen:    10,
		LR:        5e-3,
		Seed:      7,
		Devices:   4,
		Algorithm: vocab.Alg2,
	}
	var diff float64
	for i := 0; i < b.N; i++ {
		serial := pipeline.TrainSerial(cfg)
		par := pipeline.TrainVocabParallel(cfg)
		diff = pipeline.MaxLossDiff(serial, par)
	}
	b.ReportMetric(diff, "max-loss-diff")
}

// --- micro-benchmarks of the numeric substrates ---

func BenchmarkMatMul(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 128, 128, 1)
	y := tensor.Randn(rng, 128, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

func BenchmarkOutputLayerSharded(b *testing.B) {
	for _, alg := range []vocab.Algorithm{vocab.AlgNaive, vocab.Alg1, vocab.Alg2} {
		b.Run(alg.String(), func(b *testing.B) {
			rng := tensor.NewRNG(2)
			w := tensor.Randn(rng, 512, 64, 0.5)
			x := tensor.Randn(rng, 32, 64, 1)
			labels := tensor.RandTokens(rng, 32, 512)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vocab.RunSharded(w, x, labels, 4, alg)
			}
		})
	}
}

func BenchmarkAllReduce(b *testing.B) {
	// Collective throughput of the channel-based world.
	b.Run("p8-n1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			world := comm.NewWorld(8)
			world.Run(func(rank int) {
				data := make([]float64, 1024)
				world.AllReduce(rank, data, comm.OpSum)
			})
		}
	})
}

// BenchmarkEngine compares the event-driven schedule engine (build) against
// the full-recompute oracle (scan) on the largest Table 5 config: 21B,
// 32 devices, 128 microbatches, seq 4096, 256k vocabulary. The two produce
// bit-identical timelines (see internal/schedule differential tests); this
// benchmark tracks the dispatch-loop speedup itself.
func BenchmarkEngine(b *testing.B) {
	cfg, _ := costmodel.ConfigByName("21B")
	cfg = cfg.WithSeq(4096).WithVocab(256 * 1024)
	for _, tc := range []struct {
		method sim.Method
		name   string
	}{{sim.Vocab1, "vocab-1"}, {sim.Baseline, "baseline"}} {
		spec, err := sim.BuildSpec(cfg, tc.method)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("build/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Build(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("scan/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := schedule.BuildScan(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleConstruction measures the greedy constructor itself at
// paper scale (32 devices, 128 microbatches).
func BenchmarkScheduleConstruction(b *testing.B) {
	cfg, _ := costmodel.ConfigByName("21B")
	cfg = cfg.WithVocab(256 * 1024)
	spec, err := sim.BuildSpec(cfg, sim.Vocab1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Build(spec); err != nil {
			b.Fatal(err)
		}
	}
}
