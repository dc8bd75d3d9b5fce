// Package layout computes how model layers are placed onto pipeline stages
// for each method the paper compares (§6.2):
//
//   - Baseline: transformer layers split evenly; the input layer joins the
//     first stage and the output layer the last, leaving both ends heavier.
//   - Redis: transformer layers are redistributed greedily to minimize the
//     longest stage's estimated compute (following Narayanan et al.'s FLOP
//     estimates, as DeepSpeed and Skywork-MoE do). The vocabulary layers
//     cannot move, so imbalance persists whenever the output layer alone
//     outweighs an average stage.
//   - Vocab: transformer layers split evenly; both vocabulary layers are
//     partitioned across every device (the paper's method).
//
// The same placements apply per-stage for the V-shape used by V-Half, where
// stage 0 and stage 2p−1 both live on device 0.
package layout

import (
	"fmt"

	"vocabpipe/internal/costmodel"
)

// StageLoad describes what one pipeline stage holds.
type StageLoad struct {
	// TransformerLayers on this stage.
	TransformerLayers int
	// InputFrac and OutputFrac are the fractions of the input/output
	// vocabulary layer on this stage (1 = whole layer, 1/p = vocab-parallel
	// shard, 0 = none).
	InputFrac, OutputFrac float64
}

// ComputeUnits returns the stage's forward compute in transformer-layer
// forward units, using the Table 4 ratios for the vocabulary layers.
func (s StageLoad) ComputeUnits(cfg costmodel.Config) float64 {
	units := float64(s.TransformerLayers)
	units += s.OutputFrac * cfg.OutputToTransformerRatio()
	units += s.InputFrac * cfg.InputLayerFLOPs() / cfg.TransformerLayerFLOPs()
	return units
}

// ParamBytes returns the stage's parameter training-state bytes.
func (s StageLoad) ParamBytes(cfg costmodel.Config) float64 {
	params := float64(s.TransformerLayers) * cfg.TransformerLayerParams()
	params += (s.InputFrac + s.OutputFrac) * cfg.VocabLayerParams()
	return params * costmodel.BytesPerParam
}

// Baseline places layers the way Megatron-LM does by default.
func Baseline(cfg costmodel.Config, stages int) ([]StageLoad, error) {
	if cfg.Layers%stages != 0 {
		return nil, fmt.Errorf("layout: %d layers not divisible by %d stages", cfg.Layers, stages)
	}
	out := make([]StageLoad, stages)
	per := cfg.Layers / stages
	for i := range out {
		out[i].TransformerLayers = per
	}
	out[0].InputFrac = 1
	out[stages-1].OutputFrac = 1
	return out, nil
}

// Redis redistributes transformer layers to minimize the maximum stage
// compute, keeping the vocabulary layers pinned to the ends. It water-fills:
// each of the L layers goes to the currently cheapest stage. The first stage
// is capped at its baseline share — its input layer has negligible compute
// but large parameter memory, so production systems (and the paper's Redis
// column, whose peak memory equals the baseline's) do not pile extra layers
// onto it. More stages than layers is an error: that cap would be zero and
// some stages would hold nothing.
func Redis(cfg costmodel.Config, stages int) ([]StageLoad, error) {
	if stages > cfg.Layers {
		return nil, fmt.Errorf("layout: %d stages exceed %d layers", stages, cfg.Layers)
	}
	out := make([]StageLoad, stages)
	out[0].InputFrac = 1
	out[stages-1].OutputFrac = 1
	cost := make([]float64, stages)
	cost[0] = out[0].ComputeUnits(cfg)
	cost[stages-1] = out[stages-1].ComputeUnits(cfg)
	firstCap := cfg.Layers / stages
	for l := 0; l < cfg.Layers; l++ {
		best := -1
		for s := 0; s < stages; s++ {
			if s == 0 && out[0].TransformerLayers >= firstCap {
				continue
			}
			if best < 0 || cost[s] < cost[best]-1e-12 {
				best = s
			}
		}
		out[best].TransformerLayers++
		cost[best]++
	}
	return out, nil
}

// Vocab places transformer layers evenly and shards both vocabulary layers
// across all p devices. For a V-shape (stages = 2p) each *device* owns a
// 1/p shard; the shard is attributed to the device's first chunk stage so it
// is counted once.
func Vocab(cfg costmodel.Config, stages, devices int) ([]StageLoad, error) {
	if cfg.Layers%stages != 0 {
		return nil, fmt.Errorf("layout: %d layers not divisible by %d stages", cfg.Layers, stages)
	}
	out := make([]StageLoad, stages)
	per := cfg.Layers / stages
	frac := 1 / float64(devices)
	for i := range out {
		out[i].TransformerLayers = per
		if i < devices { // one shard per device, attributed to chunk 0
			out[i].InputFrac = frac
			out[i].OutputFrac = frac
		}
	}
	return out, nil
}

// MaxComputeUnits returns the longest stage's compute, the quantity Redis
// minimizes and the pipeline's per-microbatch critical resource.
func MaxComputeUnits(cfg costmodel.Config, loads []StageLoad) float64 {
	worst := 0.0
	for _, s := range loads {
		if u := s.ComputeUnits(cfg); u > worst {
			worst = u
		}
	}
	return worst
}

// MeanComputeUnits returns the average stage compute (the balanced ideal).
func MeanComputeUnits(cfg costmodel.Config, loads []StageLoad) float64 {
	total := 0.0
	for _, s := range loads {
		total += s.ComputeUnits(cfg)
	}
	return total / float64(len(loads))
}
