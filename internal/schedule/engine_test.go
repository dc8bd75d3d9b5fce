package schedule

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func uniformStages(n int, f, b, w float64) []Stage {
	out := make([]Stage, n)
	for i := range out {
		out[i] = Stage{F: f, B: b, W: w, ActBytes: 1}
	}
	return out
}

func oneF1BSpec(p, m int) *Spec {
	return &Spec{P: p, M: m, Chunks: 1, Stages: uniformStages(p, 1, 2, 0)}
}

func vocabSpec(p, m, barriers int) *Spec {
	return &Spec{P: p, M: m, Chunks: 1, Stages: uniformStages(p, 1, 2, 0),
		Vocab: &VocabSpec{SDur: 0.5, TDur: 1, Barriers: barriers, ActBytes: 0.25}}
}

func vhalfSpec(p, m int) *Spec {
	return &Spec{P: p, M: m, Chunks: 2, Stages: uniformStages(2*p, 0.5, 0.5, 0.5)}
}

func interlacedSpec(p, m int) *Spec {
	return &Spec{P: p, M: m, Chunks: 1, Stages: uniformStages(p, 1, 2, 0),
		Interlaced: &InterlacedSpec{VDur: 0.75, SyncTime: 0.25, ActBytes: 0.25}}
}

// peakInFlight is Analyzer.PeakInFlight on a fresh analyzer, so the result
// is the caller's.
func peakInFlight(tl *Timeline) []int {
	var an Analyzer
	return an.PeakInFlight(tl)
}

// peakMemory is Analyzer.PeakMemoryBytes on a fresh analyzer. With no
// overhead, on a spec whose stages set no ParamBytes or ExtraActBytes, it
// is each device's peak activation bytes.
func peakMemory(tl *Timeline, overhead float64) []float64 {
	var an Analyzer
	return an.PeakMemoryBytes(tl, overhead)
}

func TestOneF1BMakespanExact(t *testing.T) {
	// Classic 1F1B with tF=1, tB=2: makespan = (m + p − 1)(tF + tB).
	for _, pm := range [][2]int{{2, 4}, {4, 8}, {4, 16}, {8, 24}} {
		p, m := pm[0], pm[1]
		tl := MustBuild(oneF1BSpec(p, m))
		want := float64(m+p-1) * 3
		if math.Abs(tl.Makespan-want) > 1e-9 {
			t.Errorf("p=%d m=%d: makespan %v, want %v", p, m, tl.Makespan, want)
		}
	}
}

func TestOneF1BInFlightIsPMinusD(t *testing.T) {
	tl := MustBuild(oneF1BSpec(6, 18))
	got := peakInFlight(tl)
	for d, v := range got {
		if v != 6-d {
			t.Errorf("device %d in-flight = %d, want %d", d, v, 6-d)
		}
	}
}

func TestOneF1BOrderIsCanonical(t *testing.T) {
	// Device p−1 must strictly alternate F,B (the "one forward one backward"
	// pattern); device d starts with p−d−1 warmup forwards... plus the first
	// steady-state forward, i.e. B appears first at position p−d.
	p, m := 4, 8
	tl := MustBuild(oneF1BSpec(p, m))
	for d := 0; d < p; d++ {
		firstB := -1
		for k, pass := range tl.ByDevice[d] {
			if pass.Type == PassB {
				firstB = k
				break
			}
		}
		if firstB != p-d {
			t.Errorf("device %d: first B at position %d, want %d", d, firstB, p-d)
		}
	}
	// Last device alternates strictly.
	for k, pass := range tl.ByDevice[p-1] {
		wantType := PassF
		if k%2 == 1 {
			wantType = PassB
		}
		if pass.Type != wantType {
			t.Errorf("last device position %d: got %v, want %v", k, pass.Type, wantType)
		}
	}
}

func TestAllSchedulesValidate(t *testing.T) {
	specs := map[string]*Spec{
		"1f1b":       oneF1BSpec(4, 8),
		"vocab1":     vocabSpec(4, 8, 2),
		"vocab2":     vocabSpec(4, 8, 1),
		"vhalf":      vhalfSpec(4, 8),
		"interlaced": interlacedSpec(4, 8),
	}
	for name, spec := range specs {
		tl, err := Build(spec)
		if err != nil {
			t.Fatalf("%s: build failed: %v", name, err)
		}
		if err := tl.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestValidateRejectsBrokenTimelines edits built timelines so that a pass
// the spec calls for is missing, repeated or early, and requires Validate to
// refuse each one.
func TestValidateRejectsBrokenTimelines(t *testing.T) {
	// edit returns a copy of spec's timeline with every pass passed through
	// fix; a pass fix reports false for is dropped.
	edit := func(spec *Spec, fix func(tp *TimedPass) bool) *Timeline {
		tl := MustBuild(spec)
		out := &Timeline{Spec: spec, Makespan: tl.Makespan, ByDevice: make([][]TimedPass, spec.P)}
		for _, tp := range tl.Passes {
			if fix(&tp) {
				out.Passes = append(out.Passes, tp)
				out.ByDevice[tp.Device] = append(out.ByDevice[tp.Device], tp)
			}
		}
		return out
	}
	is := func(tp *TimedPass, pt PassType, d, c, i int) bool {
		return tp.Type == pt && tp.Device == d && tp.Chunk == c && tp.Micro == i
	}
	cases := []struct {
		name string
		tl   *Timeline
	}{
		{"every W missing", edit(vhalfSpec(4, 8), func(tp *TimedPass) bool { return tp.Type != PassW })},
		{"one W missing", edit(vhalfSpec(4, 8), func(tp *TimedPass) bool { return !is(tp, PassW, 2, 1, 5) })},
		{"one W twice, another never", edit(vhalfSpec(4, 8), func(tp *TimedPass) bool {
			if is(tp, PassW, 2, 1, 5) {
				tp.Micro = 4
			}
			return true
		})},
		{"two Ws swap microbatches", edit(vhalfSpec(4, 8), func(tp *TimedPass) bool {
			if is(tp, PassW, 1, 0, 0) || is(tp, PassW, 1, 0, 7) {
				tp.Micro = 7 - tp.Micro // the first W now runs before its B ends
			}
			return true
		})},
		{"every V missing", edit(interlacedSpec(4, 8), func(tp *TimedPass) bool { return tp.Type != PassV })},
		{"one V missing", edit(interlacedSpec(4, 8), func(tp *TimedPass) bool { return !is(tp, PassV, 2, 0, 3) })},
		{"one V twice, another never", edit(interlacedSpec(4, 8), func(tp *TimedPass) bool {
			if is(tp, PassV, 2, 0, 3) {
				tp.Micro = 4
			}
			return true
		})},
		{"one S missing", edit(vocabSpec(4, 8, 2), func(tp *TimedPass) bool { return !is(tp, PassS, 1, 0, 6) })},
		{"one T missing", edit(vocabSpec(4, 8, 1), func(tp *TimedPass) bool { return !is(tp, PassT, 3, 0, 7) })},
	}
	for _, c := range cases {
		if err := c.tl.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the timeline", c.name)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
	}
}

// TestVocabActivationCounts verifies the Fig 10 caption: Algorithm 1 requires
// activation memory for p+2 microbatches, Algorithm 2 for p+1 (device 0).
func TestVocabActivationCounts(t *testing.T) {
	for _, p := range []int{4, 6, 8} {
		m := 3 * p
		alg1 := peakInFlight(MustBuild(vocabSpec(p, m, 2)))
		if alg1[0] != p+2 {
			t.Errorf("p=%d Algorithm 1: device 0 in-flight = %d, want p+2 = %d", p, alg1[0], p+2)
		}
		alg2 := peakInFlight(MustBuild(vocabSpec(p, m, 1)))
		if alg2[0] != p+1 {
			t.Errorf("p=%d Algorithm 2: device 0 in-flight = %d, want p+1 = %d", p, alg2[0], p+1)
		}
		base := peakInFlight(MustBuild(oneF1BSpec(p, m)))
		if base[0] != p {
			t.Errorf("p=%d baseline: device 0 in-flight = %d, want p", p, base[0])
		}
	}
}

// TestInterlacedActivation15x verifies Appendix B.1: the interlaced pipeline
// raises 1F1B's peak activation to ~1.5×.
func TestInterlacedActivation15x(t *testing.T) {
	for _, p := range []int{4, 8} {
		m := 3 * p
		inter := peakInFlight(MustBuild(interlacedSpec(p, m)))
		want := int(math.Ceil(1.5 * float64(p)))
		if inter[0] != want {
			t.Errorf("p=%d interlaced: device 0 in-flight = %d, want 1.5p = %d", p, inter[0], want)
		}
	}
}

func TestVHalfActivationBalancedAndBelow1F1B(t *testing.T) {
	// V-Half: activation in *full-stage equivalents* (each chunk holds half a
	// stage's layers) must be balanced across devices and at most ~0.75 of
	// 1F1B's device-0 peak (the paper's V-Half achieves exactly half; our
	// greedy construction is at least as tight at scale).
	for _, p := range []int{4, 8, 16} {
		m := 3 * p
		spec := vhalfSpec(p, m)
		// Each chunk-stage pins 0.5 "full stage" of activation.
		for i := range spec.Stages {
			spec.Stages[i].ActBytes = 0.5
		}
		acts := peakMemory(MustBuild(spec), 0) // no parameters: activations only
		lo, hi := acts[0], acts[0]
		for _, a := range acts {
			lo = math.Min(lo, a)
			hi = math.Max(hi, a)
		}
		if hi-lo > 1.01 {
			t.Errorf("p=%d: V-Half activation imbalanced: %v", p, acts)
		}
		if hi > 0.75*float64(p)+1.01 {
			t.Errorf("p=%d: V-Half peak %v full-stage acts, want ≤ ~0.75p+1", p, hi)
		}
	}
}

// TestWeightGradientIsFiller pins the W admission rule: a weight-gradient
// pass runs only if it ends before any other ready pass on its device could
// start. Build and BuildScan share that rule, so the differential tests
// cannot see it change. On this V-Half shape a W takes twice as long as an F
// or a B, and device 0 defers every W until its backwards are done.
// Admitting every W instead runs F0 F1 F0 F1 B0 B1 W0 B0 B1 W0 W1 W1 on
// device 0, with makespan 19.
func TestWeightGradientIsFiller(t *testing.T) {
	tl := MustBuild(&Spec{P: 2, M: 2, Chunks: 2, Stages: uniformStages(4, 1, 1, 2)})
	var got []string
	for _, p := range tl.ByDevice[0] {
		got = append(got, fmt.Sprintf("%v%d/c%d", p.Type, p.Micro, p.Chunk))
	}
	want := "F0/c0 F1/c0 F0/c1 F1/c1 B0/c1 B1/c1 B0/c0 B1/c0 W0/c0 W1/c0 W0/c1 W1/c1"
	if s := strings.Join(got, " "); s != want || tl.Makespan != 20 {
		t.Errorf("device 0 runs %s with makespan %v, want %s with makespan 20", s, tl.Makespan, want)
	}
}

func TestVHalfMakespanNearOptimal(t *testing.T) {
	p, m := 4, 16
	tl := MustBuild(vhalfSpec(p, m))
	work := float64(m) * 2 * (0.5 + 0.5 + 0.5) // per device
	if tl.Makespan > work*1.25 {
		t.Errorf("V-Half makespan %v vs per-device work %v: bubble too large", tl.Makespan, work)
	}
	if tl.Makespan < work {
		t.Errorf("V-Half makespan %v below per-device work %v: impossible", tl.Makespan, work)
	}
}

func TestImbalancedLastStageCreatesBubbles(t *testing.T) {
	// Fig 1: an extra output layer on the last stage forces bubbles on the
	// other devices proportional to the imbalance.
	p, m := 4, 16
	balanced := MustBuild(oneF1BSpec(p, m))
	stages := uniformStages(p, 1, 2, 0)
	stages[p-1].F += 1 // output layer forward
	stages[p-1].B += 2 // output layer backward
	imbalanced := MustBuild(&Spec{P: p, M: m, Chunks: 1, Stages: stages})
	if imbalanced.Makespan <= balanced.Makespan+float64(m) {
		t.Errorf("imbalanced makespan %v should exceed balanced %v by ≥ m·extra",
			imbalanced.Makespan, balanced.Makespan)
	}
	// Device 0 idles while the last stage grinds through the output layer.
	if r := imbalanced.BubbleRatio(0); r < 0.3 {
		t.Errorf("device 0 bubble ratio %v, want ≥ 0.3 under 2x last-stage load", r)
	}
	if r := balanced.BubbleRatio(0); r > 0.25 {
		t.Errorf("balanced device 0 bubble ratio %v unexpectedly high", r)
	}
}

func TestVocabScheduleBeatsImbalanced(t *testing.T) {
	// The core throughput claim: distributing the output layer as S/T passes
	// across all devices beats leaving it on the last stage.
	p, m := 4, 32
	r := 2.4 // output layer ≈ 2.4 transformer layers (Fig 3 regime)
	stages := uniformStages(p, 1, 2, 0)
	stages[p-1].F += r
	stages[p-1].B += 2 * r
	baseline := MustBuild(&Spec{P: p, M: m, Chunks: 1, Stages: stages})

	vocab := MustBuild(&Spec{P: p, M: m, Chunks: 1, Stages: uniformStages(p, 1, 2, 0),
		Vocab: &VocabSpec{SDur: r / float64(p), TDur: 2 * r / float64(p), Barriers: 2}})

	if vocab.Makespan >= baseline.Makespan {
		t.Errorf("vocab-parallel makespan %v should beat imbalanced baseline %v",
			vocab.Makespan, baseline.Makespan)
	}
	// And it should be close to the perfectly balanced ideal.
	ideal := float64(m) * (3 + 3*r/float64(p))
	if vocab.Makespan > ideal*1.2 {
		t.Errorf("vocab-parallel makespan %v vs ideal %v: too much overhead", vocab.Makespan, ideal)
	}
}

func TestAlg2NotWorseThanAlg1(t *testing.T) {
	// With equal total S+T duration, one fewer barrier can only help the
	// makespan (and strictly helps activation memory).
	p, m := 4, 16
	a1 := MustBuild(vocabSpec(p, m, 2))
	a2spec := vocabSpec(p, m, 1)
	a2spec.Vocab.SDur, a2spec.Vocab.TDur = 1, 0.5 // same total 1.5
	a2 := MustBuild(a2spec)
	if a2.Makespan > a1.Makespan+1e-9 {
		t.Errorf("Algorithm 2 makespan %v worse than Algorithm 1 %v", a2.Makespan, a1.Makespan)
	}
}

func TestSyncCostSlowsInterlaced(t *testing.T) {
	// Appendix B.2 ablation: removing the synchronous all-reduces speeds up
	// the interlaced schedule.
	p, m := 4, 32
	withSync := MustBuild(interlacedSpec(p, m))
	noSync := interlacedSpec(p, m)
	noSync.Interlaced.SyncTime = 0
	without := MustBuild(noSync)
	if without.Makespan >= withSync.Makespan {
		t.Errorf("removing sync should reduce makespan: %v vs %v", without.Makespan, withSync.Makespan)
	}
}

func TestBarrierDelaysLastBackward(t *testing.T) {
	// C1/C2 times must push the last-stage backward out (§5.1 constraints are
	// enforced in time, not just order).
	spec := vocabSpec(2, 4, 2)
	spec.Vocab.C1Time = 0.3
	spec.Vocab.C2Time = 0.4
	tl := MustBuild(spec)
	if err := tl.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestSendTimeDelaysDownstream(t *testing.T) {
	fast := MustBuild(oneF1BSpec(4, 8))
	slow := oneF1BSpec(4, 8)
	slow.SendTime = 0.5
	tlSlow := MustBuild(slow)
	if err := tlSlow.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if tlSlow.Makespan <= fast.Makespan {
		t.Errorf("send time should lengthen makespan: %v vs %v", tlSlow.Makespan, fast.Makespan)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []*Spec{
		{P: 0, M: 1, Chunks: 1},
		{P: 2, M: 2, Chunks: 3, Stages: uniformStages(6, 1, 1, 0)},
		{P: 2, M: 2, Chunks: 1, Stages: uniformStages(3, 1, 1, 0)},
		{P: 2, M: 2, Chunks: 1, Stages: uniformStages(2, 1, 1, 0),
			Vocab: &VocabSpec{Barriers: 3}},
		{P: 2, M: 2, Chunks: 1, Stages: uniformStages(2, -1, 1, 0)},
		{P: 2, M: 2, Chunks: 1, Stages: uniformStages(2, 1, 1, 0),
			Vocab: &VocabSpec{Barriers: 1}, Interlaced: &InterlacedSpec{}},
	}
	for i, spec := range bad {
		if _, err := Build(spec); err == nil {
			t.Errorf("spec %d should fail validation", i)
		}
	}
}

func TestVShapeStageMapping(t *testing.T) {
	spec := vhalfSpec(4, 4)
	// Stage 0 → device 0 chunk 0; stage 7 → device 0 chunk 1 (both vocabulary
	// ends land on device 0 — the V-Half baseline's imbalance source).
	if spec.DeviceOf(0) != 0 || spec.ChunkOf(0) != 0 {
		t.Fatalf("stage 0 mapping wrong")
	}
	if spec.DeviceOf(7) != 0 || spec.ChunkOf(7) != 1 {
		t.Fatalf("stage 7 mapping wrong: dev %d chunk %d", spec.DeviceOf(7), spec.ChunkOf(7))
	}
	if spec.DeviceOf(4) != 3 || spec.ChunkOf(4) != 1 {
		t.Fatalf("stage 4 mapping wrong")
	}
	for d := 0; d < 4; d++ {
		for c := 0; c < 2; c++ {
			st := spec.StageOf(d, c)
			if spec.DeviceOf(st) != d || spec.ChunkOf(st) != c {
				t.Fatalf("round-trip mapping broken for device %d chunk %d", d, c)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := MustBuild(vocabSpec(4, 12, 2))
	b := MustBuild(vocabSpec(4, 12, 2))
	if len(a.Passes) != len(b.Passes) {
		t.Fatalf("pass counts differ")
	}
	for i := range a.Passes {
		if a.Passes[i] != b.Passes[i] {
			t.Fatalf("pass %d differs: %+v vs %+v", i, a.Passes[i], b.Passes[i])
		}
	}
}

func TestPropSchedulesAlwaysValid(t *testing.T) {
	f := func(pRaw, mRaw, kind uint8) bool {
		p := int(pRaw%6) + 2
		m := int(mRaw%20) + p
		var spec *Spec
		switch kind % 5 {
		case 0:
			spec = oneF1BSpec(p, m)
		case 1:
			spec = vocabSpec(p, m, 2)
		case 2:
			spec = vocabSpec(p, m, 1)
		case 3:
			spec = vhalfSpec(p, m)
		default:
			spec = interlacedSpec(p, m)
		}
		tl, err := Build(spec)
		if err != nil {
			return false
		}
		return tl.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMustBuildPanicIdentifiesSpec asserts the panic message names the
// offending spec and its dimensions rather than swallowing them.
func TestMustBuildPanicIdentifiesSpec(t *testing.T) {
	bad := &Spec{Name: "table5/21B/vocab-1", P: 3, M: 4, Chunks: 1,
		Stages: uniformStages(2, 1, 1, 0)} // wrong stage count
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustBuild should panic on an invalid spec")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, want := range []string{"table5/21B/vocab-1", "P=3", "M=4", "Chunks=1"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q missing %q", msg, want)
			}
		}
	}()
	MustBuild(bad)
}

// TestMustBuildPanicUnnamedSpec covers specs without a Name.
func TestMustBuildPanicUnnamedSpec(t *testing.T) {
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "unnamed P=0 M=0 Chunks=0") {
			t.Errorf("panic = %v, want unnamed spec dimensions", r)
		}
	}()
	MustBuild(&Spec{})
}

func TestBubbleRatioBounds(t *testing.T) {
	tl := MustBuild(oneF1BSpec(4, 8))
	for d := 0; d < 4; d++ {
		r := tl.BubbleRatio(d)
		if r < 0 || r >= 1 {
			t.Errorf("bubble ratio device %d = %v out of [0,1)", d, r)
		}
	}
	if tl.MaxBubbleRatio() < tl.BubbleRatio(2) {
		t.Errorf("MaxBubbleRatio below a device's ratio")
	}
}

func TestPeakMemoryComposition(t *testing.T) {
	acts := peakMemory(MustBuild(oneF1BSpec(2, 4)), 0) // no parameters: activations only
	spec := oneF1BSpec(2, 4)
	spec.Stages[0].ParamBytes = 100
	spec.Stages[0].ExtraActBytes = 7
	spec.Stages[1].ParamBytes = 50
	mem := peakMemory(MustBuild(spec), 10)
	if mem[0] != 100+acts[0]+7+10 {
		t.Errorf("device 0 memory = %v, want %v", mem[0], 100+acts[0]+7+10)
	}
	if mem[1] != 50+acts[1]+10 {
		t.Errorf("device 1 memory = %v, want %v", mem[1], 50+acts[1]+10)
	}
}

// TestBlockSkipsDispatch builds each block family on a fresh engine: the
// block path times its fixed order without greedy dispatch, so it never
// sizes the slot tables (armDispatch) and never marks a device (markKind,
// which would index the unsized tables and panic).
func TestBlockSkipsDispatch(t *testing.T) {
	interlaced := oneF1BSpec(4, 8)
	interlaced.Interlaced = &InterlacedSpec{VDur: 0.5, SyncTime: 0.1, ActBytes: 1}
	for _, spec := range []*Spec{oneF1BSpec(4, 8), vocabSpec(4, 8, 1), vocabSpec(4, 8, 2), interlaced} {
		var e engine
		tl, err := e.build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if e.nSlots != 0 || e.dirtyKind != nil || e.dirtyList != nil {
			t.Errorf("%s: the block build armed greedy dispatch", spec.Describe())
		}
		if e.timed != len(tl.Passes) {
			t.Errorf("%s: timed %d passes for %d in the timeline", spec.Describe(), e.timed, len(tl.Passes))
		}
	}
}
