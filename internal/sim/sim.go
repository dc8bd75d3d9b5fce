// Package sim turns a paper configuration (model, devices, vocabulary,
// method) into a schedule.Spec using the calibrated cost model, builds the
// timed schedule, and reports the metrics the paper's tables use: MFU, peak
// memory per device (with OOM detection), bubble ratios and iteration time.
// Each method is one row of a recipe table: a layer placement, a pipeline
// shape and what becomes of the vocabulary layers.
package sim

import (
	"fmt"
	"math"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/layout"
	"vocabpipe/internal/schedule"
	"vocabpipe/internal/vocab"
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

// vocabPlan is what a method does with the vocabulary layers.
type vocabPlan int

const (
	// onEnds keeps both layers whole on the first and last stages.
	onEnds vocabPlan = iota
	// stPasses shards them over every device as S and T passes (§5).
	stPasses
	// vSegment shards them into the interlaced pipeline's synchronous V
	// segment (Appendix B).
	vSegment
)

// recipe is one method: its layer placement, called with chunks × P stages
// on P devices; its model chunks per device (2 for V-Half's V shape);
// whether its backward splits into B and W (zero bubble); and what becomes
// of its vocabulary layers, with the algorithm their sharded passes run at.
type recipe struct {
	name   string
	place  func(cfg costmodel.Config, stages, devices int) ([]layout.StageLoad, error)
	chunks int
	split  bool
	plan   vocabPlan
	alg    vocab.Algorithm
}

// recipes holds one row per method (§6.2). The interlaced segment computes
// what Algorithm 1's S and T compute, at Algorithm 1's efficiency.
var recipes = [...]recipe{
	Baseline:      {"baseline", ends(layout.Baseline), 1, false, onEnds, 0},
	Redis:         {"redis", ends(layout.Redis), 1, false, onEnds, 0},
	Vocab1:        {"vocab-1", layout.Vocab, 1, false, stPasses, vocab.Alg1},
	Vocab2:        {"vocab-2", layout.Vocab, 1, false, stPasses, vocab.Alg2},
	Interlaced:    {"interlaced", layout.Vocab, 1, false, vSegment, vocab.Alg1},
	VHalfBaseline: {"vhalf-baseline", ends(layout.Baseline), 2, true, onEnds, 0},
	VHalfVocab1:   {"vhalf-vocab-1", layout.Vocab, 2, true, stPasses, vocab.Alg1},
}

// ends adapts a placement that pins the vocabulary layers to the end stages,
// and so needs no device count, to the recipe's place signature.
func ends(place func(costmodel.Config, int) ([]layout.StageLoad, error)) func(costmodel.Config, int, int) ([]layout.StageLoad, error) {
	return func(cfg costmodel.Config, stages, _ int) ([]layout.StageLoad, error) { return place(cfg, stages) }
}

// recipe returns m's row, or nil for an unknown method.
func (m Method) recipe() *recipe {
	if m < 0 || int(m) >= len(recipes) {
		return nil
	}
	return &recipes[m]
}

func (m Method) String() string {
	if r := m.recipe(); r != nil {
		return r.name
	}
	return fmt.Sprintf("Method(%d)", int(m))
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

// Run simulates one (config, method) cell on a cold runner and keeps its
// timeline.
func Run(cfg costmodel.Config, m Method) (*Result, error) {
	r := Runner{KeepTimeline: true}
	return r.Run(cfg, m)
}

// Runner is a reusable simulation context: a warm schedule.Engine (arena
// state plus prefix replay along the microbatch axis) and an analyzer with
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

// FromTimeline measures a built timeline into a Result. Used by ablations
// that mutate a spec before building (e.g. Appendix B.2's sync-free
// interlaced pipeline). A timeline that aliases a reusable engine's arena
// is detached first (Timeline.Detach), so the Result is always safe to
// cache.
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
// to order cells. Per device and microbatch, m's recipe runs F and B per
// chunk, W per chunk when its backward splits, then S and T, or the
// interlaced V: 2 for baseline and redis, 3 interlaced, 4 vocab-1 and
// vocab-2, 6 vhalf-baseline and 8 vhalf-vocab-1. The count needs no layout,
// so a config whose build would fail still gets one; a cell with no model
// config (zero devices) or an unknown method counts 0.
func PassCount(cfg costmodel.Config, m Method) int {
	r := m.recipe()
	if r == nil {
		return 0
	}
	perDevMicro := 2 * r.chunks
	if r.split {
		perDevMicro += r.chunks
	}
	switch r.plan {
	case stPasses:
		perDevMicro += 2
	case vSegment:
		perDevMicro++
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
// durations and memory from the cost model, following m's recipe. The spec
// is named "<config>/<method>" so schedule errors and panics identify their
// cell.
func BuildSpec(cfg costmodel.Config, m Method) (*schedule.Spec, error) {
	r := m.recipe()
	if r == nil {
		return nil, fmt.Errorf("sim: unknown method %v", m)
	}
	p := cfg.Devices
	if p < 1 {
		return nil, fmt.Errorf("sim: %s: %d devices, want at least 1", cfg.Name, p)
	}
	loads, err := r.place(cfg, r.chunks*p, p)
	if err != nil {
		return nil, err
	}
	spec := &schedule.Spec{
		Name: cfg.Name + "/" + r.name,
		P:    p, M: cfg.NumMicro, Chunks: r.chunks,
		Stages:   make([]schedule.Stage, len(loads)),
		SendTime: costmodel.P2PTime(2 * float64(cfg.MicroBatch) * float64(cfg.Seq) * float64(cfg.Hidden)),
	}
	for i, l := range loads {
		spec.Stages[i] = r.stage(cfg, l)
	}
	switch r.plan {
	case stPasses:
		spec.Vocab = vocabSpecFor(cfg, r.alg)
	case vSegment:
		spec.Interlaced = interlacedSpecFor(cfg, r.alg)
	}
	return spec, nil
}

// stage converts a layout stage into schedule work and memory. Whole
// vocabulary layers on an end stage run at transformer-kernel efficiency.
// Sharded ones become S/T (or V) passes, not stage work, so only their
// parameter memory stays on the stage.
func (r *recipe) stage(cfg costmodel.Config, l layout.StageLoad) schedule.Stage {
	st := schedule.Stage{
		ActBytes:   float64(l.TransformerLayers) * cfg.ActivationBytesPerLayerPerMicrobatch(),
		ParamBytes: l.ParamBytes(cfg),
	}
	if r.plan != onEnds {
		l.InputFrac, l.OutputFrac = 0, 0
	}
	tfFwd := cfg.TransformerLayerFLOPs() / 3
	f := cfg.TransformerTime(float64(l.TransformerLayers) * tfFwd)
	b := 2 * f
	if l.OutputFrac > 0 {
		outFwd := l.OutputFrac * cfg.OutputLayerFLOPs() / 3
		f += cfg.TransformerTime(outFwd)
		b += cfg.TransformerTime(2 * outFwd)
	}
	if l.InputFrac > 0 {
		inFwd := l.InputFrac * cfg.InputLayerFLOPs() / 3
		f += cfg.TransformerTime(inFwd)
		b += cfg.TransformerTime(2 * inFwd)
	}
	st.F, st.B = f, b
	if r.split {
		// Zero-bubble split: activation gradient ≈ weight gradient ≈ forward.
		st.B, st.W = b/2, b/2
	}
	if l.OutputFrac >= 1 {
		// The unpartitioned output layer's softmax/logit buffers live on this
		// stage while a microbatch's F/B pair executes (transient, ≈1 live).
		st.ExtraActBytes = cfg.VocabOutputActivationBytes(1)
	}
	// Note: the input layer's [s,b,h] output is the first transformer layer's
	// input activation and is already covered by ActBytesCoef; charging it
	// again would double count.
	return st
}

// collectives returns the seconds of the vocabulary layers' three
// collectives per microbatch over the P devices, each charged as an
// all-reduce: the C0 broadcast of X [b,s,h] fp16 from the last stage; C1's
// two [b,s] fp32 all-reduces (max, then sum with the fused label logits),
// lightweight by design (§4.3); and the C2 reduce of ∇X [b,s,h] fp16.
func collectives(cfg costmodel.Config) (bcast, c1, c2 float64) {
	bs := float64(cfg.MicroBatch) * float64(cfg.Seq)
	h := float64(cfg.Hidden)
	bcast = costmodel.AllReduceTime(2*bs*h, cfg.Devices)
	c1 = 2 * costmodel.AllReduceTime(4*bs, cfg.Devices)
	c2 = costmodel.AllReduceTime(2*bs*h, cfg.Devices)
	return bcast, c1, c2
}

// vocabSpecFor builds the S/T passes of alg: each device computes its 1/p
// shard of the output layer, and S also carries the device's share of the
// input layer (piggybacked, Appendix C).
func vocabSpecFor(cfg costmodel.Config, alg vocab.Algorithm) *schedule.VocabSpec {
	p := float64(cfg.Devices)
	outFwd := cfg.OutputLayerFLOPs() / 3 / p // logits matmul per device
	outBwd := 2 * cfg.OutputLayerFLOPs() / 3 / p
	inputShare := cfg.InputLayerFLOPs() / p
	// Algorithm 1's S: logits + local softmax; its T: both gradient matmuls.
	sFlops, tFlops := outFwd, outBwd
	if alg == vocab.Alg2 {
		// S additionally computes softmax'(Y)W and GW before the barrier;
		// T retains only the weight gradient.
		sFlops, tFlops = outFwd+outBwd/2, outBwd/2
	}
	bcast, c1, c2 := collectives(cfg)
	return &schedule.VocabSpec{
		SDur:      cfg.OutputTime(alg, sFlops+inputShare, 1/p),
		TDur:      cfg.OutputTime(alg, tFlops, 1/p),
		Barriers:  alg.Barriers(),
		BcastTime: bcast,
		C1Time:    c1,
		C2Time:    c2,
		ActBytes:  cfg.VocabOutputActivationBytes(1/p) + 2*cfg.InputActivationBytesPerMicrobatch()/p,
	}
}

// interlacedSpecFor models the TP-style vocabulary segment: the sharded
// compute of alg's S and T in one V pass, with the three collectives
// blocking the compute stream (Appendix B.2), plus the 1.5× activation
// lifespan (Appendix B.1).
func interlacedSpecFor(cfg costmodel.Config, alg vocab.Algorithm) *schedule.InterlacedSpec {
	p := float64(cfg.Devices)
	bcast, c1, c2 := collectives(cfg)
	return &schedule.InterlacedSpec{
		VDur:     cfg.OutputTime(alg, (cfg.OutputLayerFLOPs()+cfg.InputLayerFLOPs())/p, 1/p),
		SyncTime: bcast + c1 + c2,
		ActBytes: cfg.VocabOutputActivationBytes(1 / p),
	}
}
