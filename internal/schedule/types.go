// Package schedule constructs pipeline-parallel training schedules following
// the building-block methodology of Qi et al. (2024) that the paper adopts in
// §5: each microbatch contributes the same pattern of passes, vocabulary
// passes (S and T) are inserted between the forward and backward of the last
// transformer stage, and the number of communication barriers between them
// determines the extra in-flight activation memory.
//
// A spec with one chunk per device and no split backward (1F1B, Redis,
// both vocabulary algorithms, the interlaced pipeline) is built from its
// block: a fixed per-device order, written in closed form and timed once,
// each pass starting at the latest of its device coming free, its
// dependencies ending and its barrier clearing. Each device runs the 1F1B
// skeleton of its in-flight cap (p−d for 1F1B, +1 per vocabulary barrier,
// 1.5× for the interlaced baseline), and the S/T (or V) passes go where §5
// places them on the skeleton's clock, which the package writes in closed
// form for uniform stages: in the steady state each sits a fixed lag
// behind its device's forwards.
//
// V-Half (two chunks, split backward) is built by a deterministic greedy
// list scheduler instead: it repeatedly commits the globally
// earliest-startable pass (ties broken by pass priority, then device),
// under a per-device in-flight cap from the V's lifespans. Both
// constructors read one statement of each dependency rule:
//
//   - per-stage dataflow (F follows the previous stage's F of the same
//     microbatch; B follows the next stage's B),
//   - vocabulary barriers C1/C2 (all-device rendezvous between S, T and the
//     last transformer backward, per Algorithms 1 and 2).
//
// Passes within a type execute in microbatch order on each device, matching
// how Megatron-style runtimes issue work. The result is a fully timed
// Timeline from which iteration time, per-device bubbles and live-activation
// traces are measured rather than assumed.
package schedule

import (
	"fmt"
	"math"
)

// PassType enumerates the kinds of work a device performs.
type PassType int

const (
	// PassF is a transformer-stage forward.
	PassF PassType = iota
	// PassB is a transformer-stage backward (activation gradient; includes
	// the weight gradient unless the stage splits it into PassW).
	PassB
	// PassW is a split weight-gradient pass (zero-bubble style, used by
	// V-Half).
	PassW
	// PassS is the vocabulary output-layer S pass (§4: logits, local softmax
	// and, under Algorithm 2, the pre-barrier gradient matmuls).
	PassS
	// PassT is the vocabulary output-layer T pass (weight gradient, plus the
	// input-gradient matmuls under Algorithm 1).
	PassT
	// PassV is the interlaced baseline's synchronous tensor-parallel
	// vocabulary segment (Lin et al. 2024), executed by every device with
	// blocking all-reduces inside.
	PassV
)

func (t PassType) String() string {
	switch t {
	case PassF:
		return "F"
	case PassB:
		return "B"
	case PassW:
		return "W"
	case PassS:
		return "S"
	case PassT:
		return "T"
	case PassV:
		return "V"
	default:
		return fmt.Sprintf("PassType(%d)", int(t))
	}
}

// Pass identifies one unit of work.
type Pass struct {
	Type   PassType
	Device int
	Chunk  int // model chunk on the device (0 unless Chunks > 1)
	Micro  int // microbatch index, 0-based
}

// TimedPass is a committed pass with its scheduled interval.
type TimedPass struct {
	Pass
	Start, End float64
}

// Stage describes one pipeline stage's per-microbatch costs. A stage is a
// (device, chunk) pair; stages are numbered 0..P*Chunks-1 in dataflow order.
type Stage struct {
	// F and B are the forward and backward durations (seconds, or abstract
	// units in tests). If W > 0 the backward is split and B covers only the
	// activation gradient.
	F, B, W float64
	// ActBytes is the activation memory pinned per in-flight microbatch
	// (from F start to B end).
	ActBytes float64
	// ParamBytes is the static parameter+optimizer footprint of the stage.
	ParamBytes float64
	// ExtraActBytes is activation charged statically to the device (e.g. the
	// baseline's transient output-layer softmax on the last stage).
	ExtraActBytes float64
}

// VocabSpec configures vocabulary-parallel S/T passes.
type VocabSpec struct {
	// SDur and TDur are the per-device pass durations.
	SDur, TDur float64
	// Barriers is 2 for Algorithm 1 (last backward waits for the C2 barrier
	// after all T passes) or 1 for Algorithm 2 (last backward waits only for
	// C1 after all S passes; T is delayable).
	Barriers int
	// BcastTime is the C0 broadcast of X from the last stage to all devices
	// (overlapped on the communication stream: it delays S readiness only).
	BcastTime float64
	// C1Time is the duration of the all-reduces inside barrier C1.
	C1Time float64
	// C2Time is the duration of the ∇X reduce (C2 for Algorithm 1; under
	// Algorithm 2 the reduce happens inside C1 and C2Time is added to C1's
	// effect on the last backward).
	C2Time float64
	// ActBytes is the transient activation (softmax'/logit buffers) pinned
	// per microbatch from S start to T end on each device.
	ActBytes float64
}

// InterlacedSpec configures the synchronous interlaced baseline.
type InterlacedSpec struct {
	// VDur is the per-device vocabulary segment duration, excluding syncs.
	VDur float64
	// SyncTime is the blocking communication time charged inside each
	// segment (the non-overlapped all-reduces; set to 0 for the Appendix B.2
	// ablation).
	SyncTime float64
	// ActBytes is the transient activation pinned during the segment.
	ActBytes float64
}

// Spec is the full input to the schedule constructor.
type Spec struct {
	// Name optionally labels the spec for error and panic messages
	// (generators set it to "<config>/<method>"). It does not affect the
	// schedule.
	Name   string
	P      int // pipeline devices
	M      int // microbatches per iteration
	Chunks int // model chunks per device (1 for 1F1B, 2 for V-Half)
	// Stages has length P*Chunks in dataflow order. Chunks==1 maps stage s to
	// device s. Chunks==2 uses the V-shape placement: stage s<P on device s,
	// stage s>=P on device 2P-1-s (so device 0 runs both the first and last
	// stages — the placement that concentrates both vocabulary layers on
	// device 0 in the V-Half baseline).
	Stages []Stage
	// SendTime delays F/B readiness across stage boundaries (point-to-point
	// activation transfer, overlapped on the communication stream).
	SendTime float64
	// Vocab, if non-nil, inserts S/T passes per the selected algorithm and
	// raises every device's in-flight cap by one per barrier (§5.2).
	Vocab *VocabSpec
	// Interlaced, if non-nil, inserts synchronous V segments and scales the
	// base per-device cap by 1.5 (Appendix B.1). Mutually exclusive with
	// Vocab.
	Interlaced *InterlacedSpec
}

// Validate checks structural consistency. Every duration and byte count must
// be finite and non-negative: a NaN or Inf would silently poison the
// constructors' start-time comparisons and every downstream metric.
func (s *Spec) Validate() error {
	if s.P <= 0 || s.M <= 0 {
		return fmt.Errorf("schedule: P=%d M=%d must be positive", s.P, s.M)
	}
	if s.Chunks != 1 && s.Chunks != 2 {
		return fmt.Errorf("schedule: Chunks=%d unsupported (1 or 2)", s.Chunks)
	}
	if len(s.Stages) != s.P*s.Chunks {
		return fmt.Errorf("schedule: %d stages for P=%d Chunks=%d", len(s.Stages), s.P, s.Chunks)
	}
	if s.Vocab != nil && s.Interlaced != nil {
		return fmt.Errorf("schedule: Vocab and Interlaced are mutually exclusive")
	}
	if s.Vocab != nil && s.Vocab.Barriers != 1 && s.Vocab.Barriers != 2 {
		return fmt.Errorf("schedule: Vocab.Barriers=%d (want 1 or 2)", s.Vocab.Barriers)
	}
	bad := func(v float64) bool { return v < 0 || math.IsNaN(v) || math.IsInf(v, 0) }
	for i, st := range s.Stages {
		if bad(st.F) || bad(st.B) || bad(st.W) {
			return fmt.Errorf("schedule: stage %d has negative or non-finite duration", i)
		}
		if bad(st.ActBytes) || bad(st.ParamBytes) || bad(st.ExtraActBytes) {
			return fmt.Errorf("schedule: stage %d has negative or non-finite memory", i)
		}
	}
	if bad(s.SendTime) {
		return fmt.Errorf("schedule: SendTime is negative or non-finite")
	}
	if v := s.Vocab; v != nil {
		if bad(v.SDur) || bad(v.TDur) || bad(v.BcastTime) || bad(v.C1Time) || bad(v.C2Time) || bad(v.ActBytes) {
			return fmt.Errorf("schedule: Vocab has a negative or non-finite field")
		}
	}
	if iv := s.Interlaced; iv != nil {
		if bad(iv.VDur) || bad(iv.SyncTime) || bad(iv.ActBytes) {
			return fmt.Errorf("schedule: Interlaced has a negative or non-finite field")
		}
	}
	return nil
}

// Describe identifies the spec for error and panic messages: its Name (or
// "unnamed") plus the dimensions that determine the schedule's shape.
func (s *Spec) Describe() string {
	name := s.Name
	if name == "" {
		name = "unnamed"
	}
	return fmt.Sprintf("%s P=%d M=%d Chunks=%d", name, s.P, s.M, s.Chunks)
}

// NumStages returns P*Chunks.
func (s *Spec) NumStages() int { return s.P * s.Chunks }

// DeviceOf maps a stage index to its executing device.
func (s *Spec) DeviceOf(stage int) int {
	if s.Chunks == 1 || stage < s.P {
		return stage
	}
	return 2*s.P - 1 - stage
}

// ChunkOf maps a stage index to its chunk on the device.
func (s *Spec) ChunkOf(stage int) int {
	if stage < s.P {
		return 0
	}
	return 1
}

// StageOf maps (device, chunk) back to the stage index.
func (s *Spec) StageOf(device, chunk int) int {
	if chunk == 0 {
		return device
	}
	return 2*s.P - 1 - device
}

// Timeline is the committed schedule.
type Timeline struct {
	Spec *Spec
	// Passes is in commit order. On a block build that is the timer's sweep
	// order: the devices in turn, alternately ascending and descending, each
	// committing its next passes while their inputs have landed, so commit
	// order is not start order and only ByDevice is the schedule. On a
	// greedy build it
	// is start order up to the dispatch tie tolerance (tieTol, 1e-15 s):
	// starts within tieTol of each other tie, and the tie goes to the
	// higher-priority pass even when it starts a little later, so a later
	// commit can start a few tieTol earlier than the one before it. Over the
	// Table 6 cells, starts drop by up to 1.78e-15 s, in 44 of 48 cells.
	Passes []TimedPass
	// ByDevice is each device's execution order: a pass starts no earlier
	// than the previous one ends, so starts and ends never decrease.
	ByDevice [][]TimedPass
	Makespan float64

	// arena marks a timeline whose slices alias a reusable Engine's arena
	// and are only valid until that engine's next Build. The package-level
	// Build/BuildScan clear it (their throwaway engine's memory is owned by
	// the timeline); Engine.Build sets it.
	arena bool
}

// Detach returns a compact self-owned copy of the timeline, safe to retain
// after the engine that produced it is rebuilt or pooled. Passes and every
// ByDevice row are carved from two fresh slabs sized exactly; the Spec
// pointer is shared (specs are caller-owned and never recycled). A timeline
// that already owns its memory is returned unchanged.
func (tl *Timeline) Detach() *Timeline {
	if !tl.arena {
		return tl
	}
	out := &Timeline{Spec: tl.Spec, Makespan: tl.Makespan}
	out.Passes = make([]TimedPass, len(tl.Passes))
	copy(out.Passes, tl.Passes)
	total := 0
	for _, row := range tl.ByDevice {
		total += len(row)
	}
	back := make([]TimedPass, 0, total)
	out.ByDevice = make([][]TimedPass, len(tl.ByDevice))
	for d, row := range tl.ByDevice {
		start := len(back)
		back = append(back, row...)
		out.ByDevice[d] = back[start:len(back):len(back)]
	}
	return out
}

// BubbleRatio returns 1 - busy/makespan for a device, with the busy time
// walkRow sums.
func (tl *Timeline) BubbleRatio(d int) float64 {
	_, _, busy := walkRow(tl.ByDevice[d], tl.Spec.Chunks, [3]float64{})
	return bubbleRatio(busy, tl.Makespan)
}

// bubbleRatio is 1 - busy/makespan, or 0 for an empty timeline.
func bubbleRatio(busy, makespan float64) float64 {
	if makespan == 0 {
		return 0
	}
	return 1 - busy/makespan
}

// MaxBubbleRatio returns the worst bubble ratio across devices.
func (tl *Timeline) MaxBubbleRatio() float64 {
	worst := 0.0
	for d := 0; d < tl.Spec.P; d++ {
		if r := tl.BubbleRatio(d); r > worst {
			worst = r
		}
	}
	return worst
}
