// Package sim turns a paper configuration (model, devices, vocabulary,
// method) into a schedule.Spec using the calibrated cost model, builds the
// timed schedule, and reports the metrics the paper's tables use: MFU, peak
// memory per device (with OOM detection), bubble ratios and iteration time.
package sim

import (
	"fmt"
	"math"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/layout"
	"vocabpipe/internal/schedule"
)

// Method enumerates the compared systems (§6.2).
type Method int

const (
	// Baseline is Megatron-LM's default placement on 1F1B.
	Baseline Method = iota
	// Redis redistributes transformer layers to balance compute.
	Redis
	// Vocab1 is Vocabulary Parallelism with Algorithm 1 (2 barriers).
	Vocab1
	// Vocab2 adds the backward optimization (Algorithm 2, 1 barrier).
	Vocab2
	// Interlaced is the synchronous interlaced pipeline (Lin et al. 2024).
	Interlaced
	// VHalfBaseline is the V-Half schedule with vocabulary layers on the
	// V's end stages (both on device 0).
	VHalfBaseline
	// VHalfVocab1 is V-Half with Vocabulary Parallelism (Algorithm 1).
	VHalfVocab1
)

func (m Method) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case Redis:
		return "redis"
	case Vocab1:
		return "vocab-1"
	case Vocab2:
		return "vocab-2"
	case Interlaced:
		return "interlaced"
	case VHalfBaseline:
		return "vhalf-baseline"
	case VHalfVocab1:
		return "vhalf-vocab-1"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// OneF1BMethods are the five systems compared in Table 5 / Figs 11-12.
var OneF1BMethods = []Method{Baseline, Redis, Vocab1, Vocab2, Interlaced}

// VHalfMethods are the two systems compared in Table 6 / Figs 13-14.
var VHalfMethods = []Method{VHalfBaseline, VHalfVocab1}

// AllMethods lists every method, in declaration order.
var AllMethods = []Method{Baseline, Redis, Vocab1, Vocab2, Interlaced, VHalfBaseline, VHalfVocab1}

// MethodByName resolves a method's String() name ("baseline", "vocab-1", ...).
func MethodByName(name string) (Method, bool) {
	for _, m := range AllMethods {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// Result is one cell of a paper table.
type Result struct {
	Config   costmodel.Config
	Method   Method
	IterTime float64   // seconds per iteration
	MFU      float64   // fraction of peak FLOPS
	PeakMem  []float64 // bytes per device
	MaxMem   float64   // max over devices (the paper's "peak memory")
	MinMem   float64   // min over devices (Fig 14's shaded band)
	OOM      bool      // any device above HBM capacity
	Bubble   float64   // worst per-device bubble ratio
	InFlight []int     // peak in-flight microbatches per device
	Timeline *schedule.Timeline
}

// Run simulates one (config, method) cell.
func Run(cfg costmodel.Config, m Method) (*Result, error) {
	spec, err := BuildSpec(cfg, m)
	if err != nil {
		return nil, err
	}
	tl, err := schedule.Build(spec)
	if err != nil {
		return nil, err
	}
	return FromTimeline(cfg, m, tl), nil
}

// Runner is a reusable simulation context: a warm schedule.Engine (arena
// state plus prefix reuse across adjacent specs) and an analyzer with
// persistent scratch. A warm runner simulates a cell with a handful of
// small allocations — the Result and its per-device slices — instead of
// rebuilding every engine table. Not safe for concurrent use; pool runners
// per worker (sweep.Run does).
type Runner struct {
	// KeepTimeline controls whether results carry a detached copy of the
	// built timeline. Off (the default), the timeline stays in the engine's
	// arena and the next Run recycles it.
	KeepTimeline bool

	eng schedule.Engine
	an  schedule.Analyzer
}

// NewRunner returns a cold runner; the first Run warms it.
func NewRunner() *Runner { return &Runner{} }

// Run simulates one (config, method) cell on the runner's warm engine. The
// Result never aliases the engine's arena: measured slices are copied out
// of the analyzer's scratch, and a timeline is attached only when
// KeepTimeline is set, as a detached self-owned copy.
func (r *Runner) Run(cfg costmodel.Config, m Method) (*Result, error) {
	spec, err := BuildSpec(cfg, m)
	if err != nil {
		return nil, err
	}
	tl, err := r.eng.Build(spec)
	if err != nil {
		return nil, err
	}
	res := measure(&r.an, cfg, m, tl)
	if r.KeepTimeline {
		res.Timeline = tl.Detach()
	}
	return res, nil
}

// FromTimeline measures a built timeline into a Result. Used by Run and by
// ablations that mutate a spec before building (e.g. Appendix B.2's
// sync-free interlaced pipeline). A timeline that aliases a reusable
// engine's arena (Timeline.Ephemeral) is detached first, so the Result is
// always safe to cache.
func FromTimeline(cfg costmodel.Config, m Method, tl *schedule.Timeline) *Result {
	var an schedule.Analyzer
	res := measure(&an, cfg, m, tl)
	res.Timeline = tl.Detach()
	return res
}

// measure computes a timeline's metrics into a fresh Result whose slices
// are owned copies (an's scratch is reused across calls). The Timeline
// field is left nil for the caller to decide.
func measure(an *schedule.Analyzer, cfg costmodel.Config, m Method, tl *schedule.Timeline) *Result {
	mem, inflight, bubble := an.Measure(tl, costmodel.RuntimeOverheadBytes)
	res := &Result{
		Config:   cfg,
		Method:   m,
		IterTime: tl.Makespan,
		MFU:      cfg.MFU(tl.Makespan),
		PeakMem:  append([]float64(nil), mem...),
		Bubble:   bubble,
		InFlight: append([]int(nil), inflight...),
	}
	res.MinMem = math.Inf(1)
	for _, b := range mem {
		res.MaxMem = math.Max(res.MaxMem, b)
		res.MinMem = math.Min(res.MinMem, b)
		if b > costmodel.DeviceMemoryBytes {
			res.OOM = true
		}
	}
	return res
}

// PassCount is the number of passes the schedule of (cfg, m) commits —
// len(Timeline.Passes) of a successful build — without building it. The
// engine's work grows with it, which makes it the cost estimate callers use
// to order cells. Per device and microbatch: F and B (2) on 1F1B layouts,
// plus the interlaced V segment (3) or the vocabulary S and T passes (4);
// V-Half runs two chunks of F, B and split W (6), plus S and T (8). The
// count needs no layout, so a config whose build would fail still gets
// one; a cell with no model config (zero devices) counts 0.
func PassCount(cfg costmodel.Config, m Method) int {
	perDevMicro := 0
	switch m {
	case Baseline, Redis:
		perDevMicro = 2
	case Interlaced:
		perDevMicro = 3
	case Vocab1, Vocab2:
		perDevMicro = 4
	case VHalfBaseline:
		perDevMicro = 6
	case VHalfVocab1:
		perDevMicro = 8
	}
	return perDevMicro * cfg.Devices * cfg.NumMicro
}

// MustRun panics on configuration errors (used by benches over the zoo).
func MustRun(cfg costmodel.Config, m Method) *Result {
	r, err := Run(cfg, m)
	if err != nil {
		panic(err)
	}
	return r
}

// BuildSpec translates a configuration+method into a schedule spec with
// durations and memory from the cost model. The spec is named
// "<config>/<method>" so schedule errors and panics identify their cell.
func BuildSpec(cfg costmodel.Config, m Method) (*schedule.Spec, error) {
	var spec *schedule.Spec
	var err error
	switch m {
	case Baseline, Redis, Vocab1, Vocab2, Interlaced:
		spec, err = build1F1BSpec(cfg, m)
	case VHalfBaseline, VHalfVocab1:
		spec, err = buildVHalfSpec(cfg, m)
	default:
		return nil, fmt.Errorf("sim: unknown method %v", m)
	}
	if err != nil {
		return nil, err
	}
	spec.Name = cfg.Name + "/" + m.String()
	return spec, nil
}

// stageDurations converts a layout stage into (F, B) seconds. Vocabulary
// fractions of 1 (baseline/redis ends) run at full-kernel efficiency;
// fractional shards never appear here (they become S/T passes).
func stageDurations(cfg costmodel.Config, s layout.StageLoad) (f, b float64) {
	tfFwd := cfg.TransformerLayerFLOPs() / 3
	f = cfg.TimeFor(costmodel.PassTransformer, float64(s.TransformerLayers)*tfFwd, 1)
	b = 2 * f
	if s.OutputFrac > 0 {
		outFwd := s.OutputFrac * cfg.OutputLayerFLOPs() / 3
		f += cfg.TimeFor(costmodel.PassTransformer, outFwd, 1)
		b += cfg.TimeFor(costmodel.PassTransformer, 2*outFwd, 1)
	}
	if s.InputFrac > 0 {
		inFwd := s.InputFrac * cfg.InputLayerFLOPs() / 3
		f += cfg.TimeFor(costmodel.PassTransformer, inFwd, 1)
		b += cfg.TimeFor(costmodel.PassTransformer, 2*inFwd, 1)
	}
	return f, b
}

func stageFromLoad(cfg costmodel.Config, s layout.StageLoad, split bool) schedule.Stage {
	f, b := stageDurations(cfg, s)
	st := schedule.Stage{
		F:          f,
		ActBytes:   float64(s.TransformerLayers) * cfg.ActivationBytesPerLayerPerMicrobatch(),
		ParamBytes: s.ParamBytes(cfg),
	}
	if split {
		// Zero-bubble split: activation gradient ≈ weight gradient ≈ forward.
		st.B = b / 2
		st.W = b / 2
	} else {
		st.B = b
	}
	if s.OutputFrac >= 1 {
		// The unpartitioned output layer's softmax/logit buffers live on this
		// stage while a microbatch's F/B pair executes (transient, ≈1 live).
		st.ExtraActBytes = cfg.VocabOutputActivationBytes(1)
	}
	// Note: the input layer's [s,b,h] output is the first transformer layer's
	// input activation and is already covered by ActBytesCoef; charging it
	// again would double count.
	return st
}

// vocabSpecFor builds the S/T pass descriptor for vocabulary parallelism.
func vocabSpecFor(cfg costmodel.Config, alg costmodel.AlgKind) *schedule.VocabSpec {
	p := float64(cfg.Devices)
	outFwd := cfg.OutputLayerFLOPs() / 3 / p // logits matmul per device
	outBwd := 2 * cfg.OutputLayerFLOPs() / 3 / p
	inputShare := cfg.InputLayerFLOPs() / p // folded into S (piggybacked, App C)

	var kind costmodel.PassKind
	var sFlops, tFlops float64
	var barriers int
	switch alg {
	case costmodel.Alg1Kind:
		kind = costmodel.PassOutput
		// S: logits + local softmax; T: both gradient matmuls.
		sFlops, tFlops = outFwd, outBwd
		barriers = 2
	case costmodel.Alg2Kind:
		kind = costmodel.PassOutputAlg2
		// S additionally computes softmax'(Y)W and GW before the barrier;
		// T retains only the weight gradient.
		sFlops, tFlops = outFwd+outBwd/2, outBwd/2
		barriers = 1
	default:
		panic("sim: bad algorithm")
	}
	bs := float64(cfg.MicroBatch) * float64(cfg.Seq)
	h := float64(cfg.Hidden)
	return &schedule.VocabSpec{
		SDur:     cfg.TimeFor(kind, sFlops+inputShare, 1/p),
		TDur:     cfg.TimeFor(kind, tFlops, 1/p),
		Barriers: barriers,
		// C0: broadcast of X [b,s,h] fp16 from the last stage.
		BcastTime: costmodel.AllReduceTime(2*bs*h, cfg.Devices),
		// C1: two [b,s] fp32 all-reduces (max, then sum with the fused label
		// logits) — lightweight by design (§4.3).
		C1Time: 2 * costmodel.AllReduceTime(4*bs, cfg.Devices),
		// C2 / ∇X reduce: [b,s,h] fp16.
		C2Time:   costmodel.AllReduceTime(2*bs*h, cfg.Devices),
		ActBytes: cfg.VocabOutputActivationBytes(1/p) + 2*cfg.InputActivationBytesPerMicrobatch()/p,
	}
}

func build1F1BSpec(cfg costmodel.Config, m Method) (*schedule.Spec, error) {
	p := cfg.Devices
	spec := &schedule.Spec{
		P: p, M: cfg.NumMicro, Chunks: 1,
		SendTime: costmodel.P2PTime(2 * float64(cfg.MicroBatch) * float64(cfg.Seq) * float64(cfg.Hidden)),
	}

	var loads []layout.StageLoad
	var err error
	switch m {
	case Baseline:
		loads, err = layout.Baseline(cfg, p)
	case Redis:
		loads, err = layout.Redis(cfg, p)
	case Vocab1, Vocab2, Interlaced:
		loads, err = layout.Vocab(cfg, p, p)
	}
	if err != nil {
		return nil, err
	}

	spec.Stages = make([]schedule.Stage, p)
	for i, l := range loads {
		// Vocabulary shards become S/T (or V) passes, not stage work; keep
		// only their parameter memory on the stage.
		noVocabCompute := l
		if m == Vocab1 || m == Vocab2 || m == Interlaced {
			noVocabCompute.InputFrac, noVocabCompute.OutputFrac = 0, 0
		}
		spec.Stages[i] = stageFromLoad(cfg, noVocabCompute, false)
		if m == Vocab1 || m == Vocab2 || m == Interlaced {
			spec.Stages[i].ParamBytes = l.ParamBytes(cfg)
		}
	}

	switch m {
	case Vocab1:
		spec.Vocab = vocabSpecFor(cfg, costmodel.Alg1Kind)
		spec.ExtraInFlight = 2
	case Vocab2:
		spec.Vocab = vocabSpecFor(cfg, costmodel.Alg2Kind)
		spec.ExtraInFlight = 1
	case Interlaced:
		spec.Interlaced = interlacedSpecFor(cfg)
		spec.CapScale = 1.5
	}
	return spec, nil
}

// interlacedSpecFor models the TP-style vocabulary segment: the same sharded
// compute as Vocab-1 but with the collectives blocking the compute stream
// (Appendix B.2), plus the 1.5× activation lifespan (Appendix B.1).
func interlacedSpecFor(cfg costmodel.Config) *schedule.InterlacedSpec {
	p := float64(cfg.Devices)
	bs := float64(cfg.MicroBatch) * float64(cfg.Seq)
	h := float64(cfg.Hidden)
	segFlops := (cfg.OutputLayerFLOPs() + cfg.InputLayerFLOPs()) / p
	sync := costmodel.AllReduceTime(2*bs*h, cfg.Devices) + // broadcast of X
		2*costmodel.AllReduceTime(4*bs, cfg.Devices) + // softmax max/sum
		costmodel.AllReduceTime(2*bs*h, cfg.Devices) // ∇X all-reduce
	return &schedule.InterlacedSpec{
		VDur:     cfg.TimeFor(costmodel.PassOutput, segFlops, 1/p),
		SyncTime: sync,
		ActBytes: cfg.VocabOutputActivationBytes(1 / p),
	}
}

func buildVHalfSpec(cfg costmodel.Config, m Method) (*schedule.Spec, error) {
	p := cfg.Devices
	nStages := 2 * p
	spec := &schedule.Spec{
		P: p, M: cfg.NumMicro, Chunks: 2,
		SendTime: costmodel.P2PTime(2 * float64(cfg.MicroBatch) * float64(cfg.Seq) * float64(cfg.Hidden)),
	}

	var loads []layout.StageLoad
	var err error
	switch m {
	case VHalfBaseline:
		loads, err = layout.Baseline(cfg, nStages)
	case VHalfVocab1:
		loads, err = layout.Vocab(cfg, nStages, p)
	}
	if err != nil {
		return nil, err
	}

	spec.Stages = make([]schedule.Stage, nStages)
	for i, l := range loads {
		noVocabCompute := l
		if m == VHalfVocab1 {
			noVocabCompute.InputFrac, noVocabCompute.OutputFrac = 0, 0
		}
		spec.Stages[i] = stageFromLoad(cfg, noVocabCompute, true)
		if m == VHalfVocab1 {
			spec.Stages[i].ParamBytes = l.ParamBytes(cfg)
		}
	}

	if m == VHalfVocab1 {
		spec.Vocab = vocabSpecFor(cfg, costmodel.Alg1Kind)
		spec.ExtraInFlight = 2
	}
	return spec, nil
}

// scheduleBuild re-exports schedule.Build for ablations that mutate a spec.
func scheduleBuild(spec *schedule.Spec) (*schedule.Timeline, error) {
	return schedule.Build(spec)
}
