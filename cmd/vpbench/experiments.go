// Experiment registry: every table and figure of the paper, pairing the
// shared grid constructors of internal/experiments (also served by vpserve)
// with a renderer that formats the results. Analytical figures with no
// simulation (closed form or training runs) have a nil grid and render
// directly.
package main

import (
	"fmt"
	"io"
	"math"
	"strings"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/experiments"
	"vocabpipe/internal/layout"
	"vocabpipe/internal/pipeline"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/trace"
	"vocabpipe/internal/transformer"
	"vocabpipe/internal/vocab"
)

// experiment is one named table/figure reproduction.
type experiment struct {
	name string
	// grid declares the simulation cells, nil for closed-form/training
	// experiments.
	grid func() *sweep.Grid
	// render formats the experiment; res is nil when grid is nil.
	render func(w io.Writer, res *sweep.Results)
}

// experimentList lists every reproduction in "all" execution order.
var experimentList = []experiment{
	{"fig1", experiments.Fig1Grid, fig1},
	{"fig2", nil, fig2},
	{"fig3", nil, fig3},
	{"table4", nil, table4},
	{"table3", nil, table3},
	{"table5", experiments.Table5Grid, table5},
	{"table6", experiments.Table6Grid, table6},
	{"blocks", experiments.BlocksGrid, blocks},
	{"interlaced-mem", experiments.InterlacedMemGrid, interlacedMem},
	{"ablation-b2", experiments.AblationB2Grid, ablationB2},
	{"fig17", nil, fig17},
}

func experimentByName(name string) (experiment, bool) {
	for _, e := range experimentList {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

func header(w io.Writer, s string) {
	fmt.Fprintf(w, "\n%s\n%s\n", s, strings.Repeat("=", len(s)))
}

// fig1 renders the repeating bubble pattern of an imbalanced pipeline (grid:
// experiments.Fig1Grid).
func fig1(w io.Writer, res *sweep.Results) {
	header(w, "Figure 1 — bubbles from an extra output layer on the last stage")
	balanced := res.MustGet("balanced").Timeline
	imbalanced := res.MustGet("with-output-layer").Timeline
	fmt.Fprintln(w, "balanced 1F1B:")
	fmt.Fprint(w, trace.ASCII(balanced, 110))
	fmt.Fprintln(w, "with an output layer (1 extra transformer-layer equivalent) on device 3:")
	fmt.Fprint(w, trace.ASCII(imbalanced, 110))
	fmt.Fprintf(w, "makespan %.0f -> %.0f; device-0 bubble %s -> %s\n",
		balanced.Makespan, imbalanced.Makespan,
		report.Pct(balanced.BubbleRatio(0)), report.Pct(imbalanced.BubbleRatio(0)))
}

// fig2 prints the compute/memory ratios of the vocabulary layers for
// Gemma2-9B across vocabulary sizes.
func fig2(w io.Writer, _ *sweep.Results) {
	header(w, "Figure 2 — vocabulary vs transformer layer ratios (Gemma2-9B)")
	t := report.New("", "vocab", "compute ratio (output)", "compute ratio (input)", "memory ratio (each vocab layer)")
	for _, v := range costmodel.VocabSizes {
		c := costmodel.Gemma2_9B().WithVocab(v)
		t.Add(fmt.Sprintf("%dk", v/1024),
			c.OutputToTransformerRatio(),
			c.InputLayerFLOPs()/c.TransformerLayerFLOPs(),
			c.VocabToTransformerParamRatio())
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "paper: at 256k both compute and parameter memory of the output layer ≈5x a transformer layer")
}

// fig3 shows per-device compute and memory with and without transformer
// layer redistribution (7B, V=128k, 16 stages).
func fig3(w io.Writer, _ *sweep.Results) {
	header(w, "Figure 3 — layer redistribution on 7B, V=128k, 16 stages")
	cfg := costmodel.Fig3Config()
	base, err := layout.Baseline(cfg, 16)
	if err != nil {
		panic(err)
	}
	redis, err := layout.Redis(cfg, 16)
	if err != nil {
		panic(err)
	}
	t := report.New("", "stage", "base layers", "base compute", "base params GB", "redis layers", "redis compute", "redis params GB")
	for s := 0; s < 16; s++ {
		t.Add(s,
			base[s].TransformerLayers, base[s].ComputeUnits(cfg), report.GB(base[s].ParamBytes(cfg)),
			redis[s].TransformerLayers, redis[s].ComputeUnits(cfg), report.GB(redis[s].ParamBytes(cfg)))
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "output layer = %.2fx transformer compute (paper 2.4x), %.2fx parameter memory (paper 2.6x)\n",
		cfg.OutputToTransformerRatio(), cfg.VocabToTransformerParamRatio())
	fmt.Fprintf(w, "max/mean compute: baseline %.2f, redis %.2f (imbalance persists after redistribution)\n",
		layout.MaxComputeUnits(cfg, base)/layout.MeanComputeUnits(cfg, base),
		layout.MaxComputeUnits(cfg, redis)/layout.MeanComputeUnits(cfg, redis))
}

// table4 prints the analytical cost formulas evaluated on the 4B model.
func table4(w io.Writer, _ *sweep.Results) {
	header(w, "Table 4 — compute and memory cost of vocabulary and transformer layers")
	c, _ := costmodel.ConfigByName("4B")
	c = c.WithVocab(128 * 1024)
	t := report.New("", "layer", "compute FLOPs", "param memory (bytes, fp16)")
	t.Add("transformer", fmt.Sprintf("bsh(72h+12s) = %.3g", c.TransformerLayerFLOPs()), fmt.Sprintf("24h^2 = %.3g", 2*c.TransformerLayerParams()))
	t.Add("input", fmt.Sprintf("3bsh = %.3g", c.InputLayerFLOPs()), fmt.Sprintf("2hV = %.3g", 2*c.VocabLayerParams()))
	t.Add("output", fmt.Sprintf("6bshV = %.3g", c.OutputLayerFLOPs()), fmt.Sprintf("2hV = %.3g", 2*c.VocabLayerParams()))
	fmt.Fprint(w, t.String())
}

// table3 regenerates the scaling-factor table from the calibrated kernel
// model (p=8 and p=32 anchor the fit; p=16 is predicted).
func table3(w io.Writer, _ *sweep.Results) {
	header(w, "Table 3 — scaling factor of vocabulary layers vs linear scaling (V=256k)")
	t := report.New("", "seq", "layer", "8GPU", "16GPU", "32GPU")
	for _, seq := range []int{2048, 4096} {
		rows := []struct {
			name string
			f    func(p int) float64
		}{
			{"output-vocab-1", func(p int) float64 { return costmodel.OutputScalingFactor(costmodel.Alg1Kind, seq, p) }},
			{"output-vocab-2", func(p int) float64 { return costmodel.OutputScalingFactor(costmodel.Alg2Kind, seq, p) }},
			{"input", func(p int) float64 { return costmodel.InputScalingFactor(seq, p) }},
		}
		for _, r := range rows {
			paper := paperTable3[seq][r.name]
			t.Add(seq, r.name,
				report.PaperVs(100*r.f(8), paper[0]),
				report.PaperVs(100*r.f(16), paper[1]),
				report.PaperVs(100*r.f(32), paper[2]))
		}
	}
	fmt.Fprint(w, t.String())
}

// table5 regenerates the 1F1B comparison (also Figs 11 and 12).
func table5(w io.Writer, res *sweep.Results) {
	header(w, "Table 5 / Figures 11-12 — methods on 1F1B (MFU % and peak memory GB)")
	for _, cfg := range costmodel.OneF1BConfigs() {
		for _, seq := range costmodel.SeqLengths {
			t := report.New(fmt.Sprintf("%s, %d GPUs, seq %d", cfg.Name, cfg.Devices, seq),
				"method", "metric", "32k", "64k", "128k", "256k")
			for _, m := range sim.OneF1BMethods {
				paper := paperTable5[cfg.Name][seq][m.String()]
				mfuRow := []any{m.String(), "MFU%"}
				memRow := []any{m.String(), "peak GB"}
				for vi, v := range costmodel.VocabSizes {
					r := res.MustGet(sweep.CellLabel(cfg.WithSeq(seq).WithVocab(v), m))
					if r.OOM {
						mfuRow = append(mfuRow, fmt.Sprintf("OOM (paper %s)", paperStr(paper.mfu[vi])))
						memRow = append(memRow, fmt.Sprintf(">80 (paper %s)", paperStr(paper.mem[vi])))
						continue
					}
					mfuRow = append(mfuRow, report.PaperVs(100*r.MFU, paper.mfu[vi]))
					memRow = append(memRow, report.PaperVs(r.MaxMem/costmodel.GiB, paper.mem[vi]))
				}
				t.Add(mfuRow...)
				t.Add(memRow...)
			}
			fmt.Fprint(w, t.String())
			fmt.Fprintln(w)
		}
	}
}

func paperStr(v float64) string {
	if v < 0 {
		return "OOM"
	}
	return fmt.Sprintf("%.2f", v)
}

// table6 regenerates the V-Half comparison (also Figs 13 and 14).
func table6(w io.Writer, res *sweep.Results) {
	header(w, "Table 6 / Figures 13-14 — methods on V-Half (MFU % and peak memory GB)")
	for _, cfg := range costmodel.VHalfConfigs() {
		for _, seq := range costmodel.SeqLengths {
			t := report.New(fmt.Sprintf("%s, %d GPUs, seq %d", cfg.Name, cfg.Devices, seq),
				"method", "metric", "32k", "64k", "128k", "256k")
			for _, m := range sim.VHalfMethods {
				paper := paperTable6[cfg.Name][seq][m.String()]
				mfuRow := []any{m.String(), "MFU%"}
				memRow := []any{m.String(), "max/min GB"}
				for vi, v := range costmodel.VocabSizes {
					r := res.MustGet(sweep.CellLabel(cfg.WithSeq(seq).WithVocab(v), m))
					if r.OOM {
						mfuRow = append(mfuRow, fmt.Sprintf("OOM (paper %s)", paperStr(paper.mfu[vi])))
						memRow = append(memRow, fmt.Sprintf(">80 (paper %s)", paperStr(paper.mem[vi])))
						continue
					}
					mfuRow = append(mfuRow, report.PaperVs(100*r.MFU, paper.mfu[vi]))
					memRow = append(memRow, fmt.Sprintf("%s/%s (paper %s)",
						report.GB(r.MaxMem), report.GB(r.MinMem), paperStr(paper.mem[vi])))
				}
				t.Add(mfuRow...)
				t.Add(memRow...)
			}
			fmt.Fprint(w, t.String())
			fmt.Fprintln(w)
		}
	}
}

// blocks renders the building blocks / schedules of Figs 9, 10, 15 and 16.
func blocks(w io.Writer, res *sweep.Results) {
	header(w, "Figures 9/10/15/16 — building blocks and schedules")
	for _, b := range experiments.BlocksList {
		cfg := experiments.BlocksCfg(b.CfgName)
		r := res.MustGet(sweep.CellLabel(cfg, b.M))
		fmt.Fprintf(w, "\n%s (%s, %d devices, %d microbatches): in-flight per device %v\n",
			b.Title, b.CfgName, cfg.Devices, cfg.NumMicro, r.InFlight)
		fmt.Fprint(w, trace.ASCII(r.Timeline, 140))
	}
}

// interlacedMem quantifies Appendix B.1's 1.5x activation memory claim.
func interlacedMem(w io.Writer, res *sweep.Results) {
	header(w, "Appendix B.1 — interlaced pipeline activation memory (vs 1F1B)")
	t := report.New("", "p", "1F1B in-flight (dev 0)", "interlaced in-flight (dev 0)", "ratio")
	cfg, _ := costmodel.ConfigByName("4B")
	b := res.MustGet("1f1b")
	i := res.MustGet("interlaced")
	t.Add(cfg.Devices, b.InFlight[0], i.InFlight[0], float64(i.InFlight[0])/float64(b.InFlight[0]))
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "paper: the interlaced building block enlarges the lifespan from 3p to ~4.5p ⇒ 1.5x activation memory")
}

// ablationB2 removes the interlaced pipeline's synchronous all-reduces.
func ablationB2(w io.Writer, res *sweep.Results) {
	header(w, "Appendix B.2 — removing synchronous all-reduces from interlaced (21B, 32 GPUs)")
	withSync := res.MustGet("with-sync").IterTime
	noSync := res.MustGet("no-sync").IterTime
	fmt.Fprintf(w, "iteration time with sync: %.3fs, without: %.3fs — improvement %.2f%% (paper ~10.95%%)\n",
		withSync, noSync, 100*(withSync-noSync)/withSync)
}

// fig17 compares serial vs vocabulary-parallel training loss curves.
func fig17(w io.Writer, _ *sweep.Results) {
	header(w, "Figure 17 / Appendix E — convergence of vocab-parallel vs original")
	cfg := pipeline.TrainConfig{
		Model:     transformer.ModelConfig{Vocab: 64, MaxSeq: 16, Hidden: 16, Layers: 2, Heads: 2},
		Steps:     120,
		SeqLen:    16,
		LR:        5e-3,
		Seed:      7,
		Devices:   4,
		Algorithm: vocab.Alg2,
	}
	serial := pipeline.TrainSerial(cfg)
	par := pipeline.TrainVocabParallel(cfg)
	t := report.New("", "step", "loss (original)", "loss (vocab parallel)", "|diff|")
	for i := 0; i < len(serial); i += 20 {
		t.Add(i, serial[i].Loss, par[i].Loss, fmt.Sprintf("%.2e", math.Abs(serial[i].Loss-par[i].Loss)))
	}
	last := len(serial) - 1
	t.Add(last, serial[last].Loss, par[last].Loss, fmt.Sprintf("%.2e", math.Abs(serial[last].Loss-par[last].Loss)))
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "max per-step divergence over %d steps: %.3g (float64 round-off only)\n",
		cfg.Steps, pipeline.MaxLossDiff(serial, par))
}

// renderGridTable is the generic renderer for user-defined -grid sweeps.
func renderGridTable(w io.Writer, res *sweep.Results) {
	noun := "cells"
	if len(res.Cells) == 1 {
		noun = "cell"
	}
	header(w, fmt.Sprintf("Custom sweep — %d %s", len(res.Cells), noun))
	t := report.New("", "cell", "status", "iter s", "MFU%", "peak GB", "min GB", "bubble%")
	for _, rec := range res.Records() {
		status := "ok"
		switch {
		case rec.Error != "":
			t.Add(rec.Label, "error: "+rec.Error, "-", "-", "-", "-", "-")
			continue
		case rec.OOM:
			status = "OOM"
		}
		t.Add(rec.Label, status,
			fmt.Sprintf("%.3f", rec.IterTimeS), rec.MFUPct, rec.PeakMemGB, rec.MinMemGB, rec.BubblePct)
	}
	fmt.Fprint(w, t.String())
}
