// Package costmodel provides the analytical compute and memory model used by
// the pipeline simulator: FLOP counts per Table 4 of the paper (following
// Narayanan et al. 2021), parameter/activation/optimizer memory, MFU
// computation, and a kernel-efficiency model calibrated against the paper's
// Table 3 that captures the sub-linear scaling of partitioned vocabulary
// kernels.
//
// Substitution note: absolute GPU timings are testbed
// properties we cannot measure; the model's constants are calibrated to the
// paper's published A100 numbers so that the simulator reproduces the shape
// of every table and figure. All calibration constants are named and
// documented here.
package costmodel

import (
	"fmt"
	"math"

	"vocabpipe/internal/vocab"
)

// Config describes one training configuration (one column of Table 1/2).
type Config struct {
	Name       string
	Layers     int // transformer layers L
	Heads      int // attention heads a
	Hidden     int // hidden dimension h
	Seq        int // sequence length s
	MicroBatch int // microbatch size b
	NumMicro   int // microbatches per iteration m
	Vocab      int // vocabulary size V
	Devices    int // pipeline devices p
}

func (c Config) String() string {
	return fmt.Sprintf("%s(p=%d L=%d h=%d s=%d V=%d)", c.Name, c.Devices, c.Layers, c.Hidden, c.Seq, c.Vocab)
}

// WithVocab returns a copy with a different vocabulary size.
func (c Config) WithVocab(v int) Config { c.Vocab = v; return c }

// WithSeq returns a copy with a different sequence length.
func (c Config) WithSeq(s int) Config { c.Seq = s; return c }

// --- Table 4: compute FLOPs (forward + backward combined) ---

// TransformerLayerFLOPs returns bsh(72h + 12s): the combined forward+backward
// FLOPs of a single transformer layer for one microbatch.
func (c Config) TransformerLayerFLOPs() float64 {
	b, s, h := float64(c.MicroBatch), float64(c.Seq), float64(c.Hidden)
	return b * s * h * (72*h + 12*s)
}

// OutputLayerFLOPs returns 6bshV: combined forward+backward FLOPs of the
// output vocabulary layer for one microbatch.
func (c Config) OutputLayerFLOPs() float64 {
	b, s, h, v := float64(c.MicroBatch), float64(c.Seq), float64(c.Hidden), float64(c.Vocab)
	return 6 * b * s * h * v
}

// InputLayerFLOPs returns 3bsh: combined forward+backward FLOPs of the input
// embedding layer for one microbatch (lookup + scatter-add, no matmul).
func (c Config) InputLayerFLOPs() float64 {
	b, s, h := float64(c.MicroBatch), float64(c.Seq), float64(c.Hidden)
	return 3 * b * s * h
}

// ModelFLOPsPerMicrobatch is the full-model forward+backward FLOPs for one
// microbatch, the numerator unit of MFU.
func (c Config) ModelFLOPsPerMicrobatch() float64 {
	return float64(c.Layers)*c.TransformerLayerFLOPs() + c.OutputLayerFLOPs() + c.InputLayerFLOPs()
}

// ModelFLOPsPerIteration multiplies by the number of microbatches.
func (c Config) ModelFLOPsPerIteration() float64 {
	return float64(c.NumMicro) * c.ModelFLOPsPerMicrobatch()
}

// OutputToTransformerRatio returns the compute ratio of the output layer to
// one transformer layer: 6V/(72h+12s). For the paper's Fig 3 example (7B,
// V=128k, s=2048) this is ≈2.4; for Gemma2-9B at 256k it is ≈5.
func (c Config) OutputToTransformerRatio() float64 {
	return c.OutputLayerFLOPs() / c.TransformerLayerFLOPs()
}

// --- Table 4: parameter counts and memory ---

// TransformerLayerParams returns 12h² parameters per transformer layer
// (Table 4 lists 24h² *bytes* at 2 bytes/param).
func (c Config) TransformerLayerParams() float64 {
	h := float64(c.Hidden)
	return 12 * h * h
}

// VocabLayerParams returns hV parameters for one vocabulary layer (input or
// output; Table 4 lists 2hV bytes each).
func (c Config) VocabLayerParams() float64 {
	return float64(c.Hidden) * float64(c.Vocab)
}

// VocabToTransformerParamRatio is the parameter-memory ratio of one vocab
// layer to one transformer layer: V/(12h). ≈2.6 for the Fig 3 example.
func (c Config) VocabToTransformerParamRatio() float64 {
	return c.VocabLayerParams() / c.TransformerLayerParams()
}

// TotalParams returns the full model parameter count (untied embeddings, as
// in all the paper's experiments).
func (c Config) TotalParams() float64 {
	return float64(c.Layers)*c.TransformerLayerParams() + 2*c.VocabLayerParams()
}

// --- Memory model constants ---

// Calibration constants for the memory model. Derived from the paper's
// baseline column of Table 5 (8 GPU, seq 2048): the per-vocab-size deltas
// give ≈16 bytes of training state per parameter (fp16 weight + fp16 grad +
// fp32 master + Adam m/v), and the residual after parameters gives the
// activation coefficient and fixed runtime overhead.
const (
	// BytesPerParam is the training-state footprint per parameter under
	// Megatron-style mixed precision.
	BytesPerParam = 16.0
	// ActBytesCoef: activation bytes per transformer layer per microbatch =
	// ActBytesCoef · s · b · h (fp16 with selective recomputation plus
	// attention workspace, folded into one calibrated coefficient).
	ActBytesCoef = 34.0
	// RuntimeOverheadBytes models the CUDA context, NCCL buffers and
	// allocator slack present on every device.
	RuntimeOverheadBytes = 2.0e9
	// VocabActBytesPerLogit: transient bytes per logit element held by the
	// output layer between its S and T passes (fp32 softmax buffer).
	VocabActBytesPerLogit = 4.0
	// GiB converts bytes to the paper's GB axis.
	GiB = 1 << 30
)

// ActivationBytesPerLayerPerMicrobatch returns the activation memory one
// in-flight microbatch pins per transformer layer.
func (c Config) ActivationBytesPerLayerPerMicrobatch() float64 {
	return ActBytesCoef * float64(c.Seq) * float64(c.MicroBatch) * float64(c.Hidden)
}

// InputActivationBytesPerMicrobatch is the [s,b,h] fp16 output tensor of the
// input layer that a device holds while a microbatch traverses the pipeline.
func (c Config) InputActivationBytesPerMicrobatch() float64 {
	return 2 * float64(c.Seq) * float64(c.MicroBatch) * float64(c.Hidden)
}

// VocabOutputActivationBytes returns the transient activation (softmax and
// logit buffers) of one microbatch of the output layer when the vocabulary is
// sharded p ways. shardFrac = 1/p for vocab-parallel runs, 1 for the
// baseline's last stage.
func (c Config) VocabOutputActivationBytes(shardFrac float64) float64 {
	return VocabActBytesPerLogit * float64(c.Seq) * float64(c.MicroBatch) * float64(c.Vocab) * shardFrac
}

// --- Device model ---

// A100PeakFLOPS is the bf16 tensor-core peak of the paper's A100 SXM 80GB.
const A100PeakFLOPS = 312e12

// DeviceMemoryBytes is the HBM capacity; exceeding it is reported as OOM,
// matching the paper's OOM entries (Interlaced at 21B/4096, V-Half baseline
// at 32 GPU/256k).
const DeviceMemoryBytes = 80.0e9

// Kernel efficiency of large transformer-layer kernels, per sequence length.
// Calibrated so that the balanced Vocab-1 schedule lands at the paper's ≈50%
// MFU plateau on 1F1B (Table 5): longer sequences have higher arithmetic
// intensity and slightly higher efficiency.
func baseEfficiency(seq int) float64 {
	if seq >= 4096 {
		return 0.585
	}
	return 0.575
}

// scalingCoef holds the a + b/p fit of Table 3: throughput relative to ideal
// linear scaling. Fit anchors are the paper's p=8 and p=32 entries; the p=16
// entries are held out and predicted within 0.2 points (TestTable3Midpoint).
type scalingCoef struct{ a, b float64 }

// fitScaling solves a + b/8 = s8, a + b/32 = s32.
func fitScaling(s8, s32 float64) scalingCoef {
	b := (s8 - s32) / (1.0/8 - 1.0/32)
	return scalingCoef{a: s8 - b/8, b: b}
}

var scalingTable = map[vocab.Algorithm]map[int]scalingCoef{
	vocab.Alg1: {
		2048: fitScaling(0.9129, 0.8059),
		4096: fitScaling(0.9321, 0.8524),
	},
	vocab.Alg2: {
		2048: fitScaling(0.8672, 0.7593),
		4096: fitScaling(0.8836, 0.7966),
	},
}

// inputScalingPoints holds Table 3's INPUT rows at p = 8, 16, 32. The input
// layer's scaling is not well described by a + b/p (every device constructs
// the full [s,b,h] output tensor, so the overhead grows with p), so we
// interpolate piecewise-linearly in log2(p) through all three published
// points instead. The input layer's FLOPs are negligible (3bsh), so this
// curve only matters for regenerating Table 3 itself.
var inputScalingPoints = map[int][3]float64{
	2048: {0.3999, 0.2885, 0.1518},
	4096: {0.2769, 0.1552, 0.0835},
}

func seqBucket(seq int) int {
	if seq >= 4096 {
		return 4096
	}
	return 2048
}

// OutputScalingFactor returns the throughput of the partitioned output layer
// relative to ideal linear scaling across p devices (Table 3).
func OutputScalingFactor(alg vocab.Algorithm, seq, p int) float64 {
	if p <= 1 {
		return 1
	}
	c := scalingTable[alg][seqBucket(seq)]
	return clamp01(c.a + c.b/float64(p))
}

// clamp01 caps the 1/p extrapolation at ideal scaling for small p, where the
// fit would otherwise exceed 1.
func clamp01(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

// InputScalingFactor is the Table 3 input-layer row: heavily sub-linear
// because every device constructs the full [s,b,h] output tensor regardless
// of its vocabulary slice.
func InputScalingFactor(seq, p int) float64 {
	if p <= 1 {
		return 1
	}
	pts := inputScalingPoints[seqBucket(seq)]
	lg := log2(float64(p))
	// Anchors at log2(p) = 3, 4, 5.
	switch {
	case lg <= 3:
		// Extrapolate the 8→16 slope back toward ideal scaling.
		v := pts[0] + (pts[0]-pts[1])*(3-lg)
		return clamp01(v)
	case lg <= 4:
		return pts[0] + (pts[1]-pts[0])*(lg-3)
	case lg <= 5:
		return pts[1] + (pts[2]-pts[1])*(lg-4)
	default:
		v := pts[2] + (pts[2]-pts[1])*(lg-5)
		if v < 0.02 {
			v = 0.02
		}
		return v
	}
}

func log2(x float64) float64 { return math.Log2(x) }

// --- Pass durations ---

// TransformerTime returns the wall-clock seconds of a dense transformer
// kernel executing flops of work. The unpartitioned vocabulary layers on the
// baseline's end stages run at this efficiency too.
func (c Config) TransformerTime(flops float64) float64 {
	return flops / (A100PeakFLOPS * baseEfficiency(c.Seq))
}

// OutputTime returns the wall-clock seconds of an output-layer pass under
// alg executing flops of work on shardFrac of the vocabulary. A partitioned
// pass (shardFrac < 1) runs at Table 3's scaling for its 1/shardFrac
// devices: a little below linear, and a little lower for Algorithm 2, which
// computes more before its barrier.
func (c Config) OutputTime(alg vocab.Algorithm, flops, shardFrac float64) float64 {
	eff := baseEfficiency(c.Seq)
	if shardFrac < 1 {
		eff *= OutputScalingFactor(alg, c.Seq, int(1/shardFrac+0.5))
	}
	return flops / (A100PeakFLOPS * eff)
}

// MFU computes model FLOPs utilization for an iteration time across p
// devices.
func (c Config) MFU(iterSeconds float64) float64 {
	return c.ModelFLOPsPerIteration() / (float64(c.Devices) * A100PeakFLOPS * iterSeconds)
}

// --- Interconnect model ---

// Interconnect bandwidths for the synchronous all-reduce of the interlaced
// baseline: the paper's testbed has NVLink inside an 8-GPU node and RoCE
// RDMA across nodes. Collectives that stay inside one node are fast; the
// 16- and 32-GPU runs cross nodes and pay the RoCE bus bandwidth.
const (
	IntraNodeBusBW = 250e9 // bytes/s effective all-reduce bus bandwidth
	InterNodeBusBW = 22e9
	GPUsPerNode    = 8
	// AllReduceLatency is the per-collective launch+sync latency.
	AllReduceLatency = 30e-6
)

// AllReduceTime estimates a ring all-reduce of nbytes across p devices.
func AllReduceTime(nbytes float64, p int) float64 {
	if p <= 1 {
		return 0
	}
	bw := IntraNodeBusBW
	if p > GPUsPerNode {
		bw = InterNodeBusBW
	}
	return AllReduceLatency + 2*float64(p-1)/float64(p)*nbytes/bw
}

// P2PTime estimates a point-to-point activation send of nbytes between
// adjacent pipeline stages.
func P2PTime(nbytes float64) float64 {
	return 10e-6 + nbytes/25e9
}
