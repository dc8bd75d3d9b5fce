package costmodel

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"vocabpipe/internal/vocab"
)

func cfg4B() Config {
	c, ok := ConfigByName("4B")
	if !ok {
		panic("missing 4B config")
	}
	return c
}

func TestTable4Formulas(t *testing.T) {
	c := Config{Layers: 1, Hidden: 100, Seq: 10, MicroBatch: 2, Vocab: 1000}
	b, s, h, v := 2.0, 10.0, 100.0, 1000.0
	if got, want := c.TransformerLayerFLOPs(), b*s*h*(72*h+12*s); got != want {
		t.Fatalf("transformer FLOPs = %v, want %v", got, want)
	}
	if got, want := c.OutputLayerFLOPs(), 6*b*s*h*v; got != want {
		t.Fatalf("output FLOPs = %v, want %v", got, want)
	}
	if got, want := c.InputLayerFLOPs(), 3*b*s*h; got != want {
		t.Fatalf("input FLOPs = %v, want %v", got, want)
	}
	if got, want := c.TransformerLayerParams(), 12*h*h; got != want {
		t.Fatalf("transformer params = %v, want %v", got, want)
	}
	if got, want := c.VocabLayerParams(), h*v; got != want {
		t.Fatalf("vocab params = %v, want %v", got, want)
	}
}

func TestFig3Ratios(t *testing.T) {
	// The paper states the Fig 3 example (7B, V=128k) has the output layer at
	// ≈2.4× a transformer layer's compute and ≈2.6× its parameter memory.
	c := Fig3Config()
	if r := c.OutputToTransformerRatio(); math.Abs(r-2.4) > 0.1 {
		t.Fatalf("compute ratio = %v, want ≈2.4", r)
	}
	if r := c.VocabToTransformerParamRatio(); math.Abs(r-2.6) > 0.1 {
		t.Fatalf("param ratio = %v, want ≈2.6", r)
	}
}

func TestGemma2RatiosRoughlyFive(t *testing.T) {
	// §1: "in the case of Gemma2 9B ... both the computation and parameter
	// memory of the output layer are approximately 5 times those of the
	// transformer layers".
	c := Gemma2_9B()
	comp := c.OutputToTransformerRatio()
	if comp < 4 || comp > 7 {
		t.Fatalf("Gemma2 compute ratio = %v, want ≈5", comp)
	}
	mem := c.VocabToTransformerParamRatio()
	if mem < 4 || mem > 7 {
		t.Fatalf("Gemma2 param ratio = %v, want ≈5", mem)
	}
}

func TestModelSizesMatchNames(t *testing.T) {
	// Zoo configs should be close to their nominal parameter counts.
	wants := map[string]float64{
		"4B": 4e9, "10B": 10e9, "21B": 21e9,
		"7B": 7e9, "16B": 16e9, "30B": 30e9,
	}
	for name, want := range wants {
		c, ok := ConfigByName(name)
		if !ok {
			t.Fatalf("config %s missing", name)
		}
		// Use the largest vocab for the nominal count; the paper sizes are "≈".
		got := c.WithVocab(128 * 1024).TotalParams()
		if got < 0.75*want || got > 1.35*want {
			t.Errorf("%s: params = %.2fB, want ≈%.0fB", name, got/1e9, want/1e9)
		}
	}
}

func TestConfigByNameUnknown(t *testing.T) {
	if _, ok := ConfigByName("nope"); ok {
		t.Fatalf("unexpected config found")
	}
}

func TestWithVocabWithSeq(t *testing.T) {
	c := cfg4B()
	c2 := c.WithVocab(999).WithSeq(123)
	if c2.Vocab != 999 || c2.Seq != 123 {
		t.Fatalf("WithVocab/WithSeq wrong: %+v", c2)
	}
	if c.Vocab == 999 {
		t.Fatalf("WithVocab mutated the receiver")
	}
}

func TestTable3AnchorsReproduced(t *testing.T) {
	// The fit must pass exactly through the p=8 and p=32 anchors.
	cases := []struct {
		alg  vocab.Algorithm
		seq  int
		p    int
		want float64
	}{
		{vocab.Alg1, 2048, 8, 0.9129}, {vocab.Alg1, 2048, 32, 0.8059},
		{vocab.Alg1, 4096, 8, 0.9321}, {vocab.Alg1, 4096, 32, 0.8524},
		{vocab.Alg2, 2048, 8, 0.8672}, {vocab.Alg2, 2048, 32, 0.7593},
		{vocab.Alg2, 4096, 8, 0.8836}, {vocab.Alg2, 4096, 32, 0.7966},
	}
	for _, tc := range cases {
		got := OutputScalingFactor(tc.alg, tc.seq, tc.p)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("scaling(%v, %d, %d) = %v, want %v", tc.alg, tc.seq, tc.p, got, tc.want)
		}
	}
	inputs := []struct {
		seq  int
		p    int
		want float64
	}{
		{2048, 8, 0.3999}, {2048, 32, 0.1518},
		{4096, 8, 0.2769}, {4096, 32, 0.0835},
	}
	for _, tc := range inputs {
		got := InputScalingFactor(tc.seq, tc.p)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("input scaling(%d, %d) = %v, want %v", tc.seq, tc.p, got, tc.want)
		}
	}
}

func TestTable3Midpoint(t *testing.T) {
	// Held-out check: the p=16 column of Table 3 was NOT used in the fit.
	// The a+b/p model must predict it within 1.5 points.
	cases := []struct {
		alg  vocab.Algorithm
		seq  int
		want float64
	}{
		{vocab.Alg1, 2048, 0.8422},
		{vocab.Alg1, 4096, 0.8802},
		{vocab.Alg2, 2048, 0.7984},
		{vocab.Alg2, 4096, 0.8342},
	}
	for _, tc := range cases {
		got := OutputScalingFactor(tc.alg, tc.seq, 16)
		if math.Abs(got-tc.want) > 0.015 {
			t.Errorf("held-out scaling(%v, %d, 16) = %v, paper %v", tc.alg, tc.seq, got, tc.want)
		}
	}
	inputs := []struct {
		seq  int
		want float64
	}{
		{2048, 0.2885}, // exact anchors: input uses all three published points
		{4096, 0.1552},
	}
	for _, tc := range inputs {
		got := InputScalingFactor(tc.seq, 16)
		if math.Abs(got-tc.want) > 0.03 {
			t.Errorf("input scaling anchor(%d, 16) = %v, paper %v", tc.seq, got, tc.want)
		}
	}
}

func TestScalingMonotoneInP(t *testing.T) {
	for _, alg := range []vocab.Algorithm{vocab.Alg1, vocab.Alg2} {
		for _, seq := range []int{2048, 4096} {
			prev := 1.0
			for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
				s := OutputScalingFactor(alg, seq, p)
				if s > prev+1e-12 {
					t.Errorf("scaling(%v,%d) not monotone at p=%d: %v > %v", alg, seq, p, s, prev)
				}
				if s <= 0 || s > 1 {
					t.Errorf("scaling(%v,%d,%d) out of (0,1]: %v", alg, seq, p, s)
				}
				prev = s
			}
		}
	}
}

func TestAlg2ScalesBelowAlg1(t *testing.T) {
	// §6.5: Algorithm 2 introduces a bit more computation overhead.
	for _, seq := range []int{2048, 4096} {
		for _, p := range []int{8, 16, 32} {
			if OutputScalingFactor(vocab.Alg2, seq, p) >= OutputScalingFactor(vocab.Alg1, seq, p) {
				t.Errorf("Alg2 should scale below Alg1 at seq=%d p=%d", seq, p)
			}
		}
	}
}

// TestEfficiencyBounds: no pass runs faster than its flops at peak, and
// every pass time is finite, whole or sharded, under either algorithm.
func TestEfficiencyBounds(t *testing.T) {
	c := cfg4B()
	flops := c.OutputLayerFLOPs()
	ideal := flops / A100PeakFLOPS
	check := func(name string, dt float64) {
		if math.IsNaN(dt) || math.IsInf(dt, 0) || dt < ideal {
			t.Errorf("%s = %v s, want finite and ≥ the ideal %v s", name, dt, ideal)
		}
	}
	check("TransformerTime", c.TransformerTime(flops))
	for _, alg := range []vocab.Algorithm{vocab.Alg1, vocab.Alg2} {
		for _, frac := range []float64{1, 0.5, 1.0 / 8, 1.0 / 32} {
			check(fmt.Sprintf("OutputTime(%v, frac %v)", alg, frac), c.OutputTime(alg, flops, frac))
		}
	}
}

func TestTimeForPositive(t *testing.T) {
	c := cfg4B()
	dt := c.TransformerTime(c.TransformerLayerFLOPs())
	if dt <= 0 {
		t.Fatalf("TransformerTime returned %v", dt)
	}
	// A 4-layer stage pass should be on the order of milliseconds on an A100.
	if dt > 0.1 || dt < 1e-6 {
		t.Fatalf("transformer layer time %v s implausible", dt)
	}
}

func TestMFUOfPerfectlyBalancedPipeline(t *testing.T) {
	// If every device ran model FLOPs back-to-back at base efficiency with no
	// bubbles, MFU would equal the base efficiency.
	c := cfg4B()
	perDevice := c.ModelFLOPsPerIteration() / float64(c.Devices)
	iter := perDevice / (A100PeakFLOPS * baseEfficiency(c.Seq))
	mfu := c.MFU(iter)
	if math.Abs(mfu-baseEfficiency(c.Seq)) > 1e-9 {
		t.Fatalf("MFU = %v, want %v", mfu, baseEfficiency(c.Seq))
	}
}

func TestAllReduceTimeRegimes(t *testing.T) {
	small := AllReduceTime(1024, 8)
	if small < AllReduceLatency {
		t.Fatalf("allreduce cannot beat latency: %v", small)
	}
	intra := AllReduceTime(1e9, 8)
	inter := AllReduceTime(1e9, 16)
	if inter <= intra {
		t.Fatalf("inter-node all-reduce should be slower: intra=%v inter=%v", intra, inter)
	}
	if AllReduceTime(1e9, 1) != 0 {
		t.Fatalf("p=1 all-reduce should be free")
	}
}

func TestP2PTime(t *testing.T) {
	if P2PTime(0) <= 0 {
		t.Fatalf("P2P should include latency")
	}
	if P2PTime(25e9) < 1.0 {
		t.Fatalf("25 GB at 25 GB/s should take ≥1 s")
	}
}

func TestMemoryComponentsPositive(t *testing.T) {
	c := cfg4B()
	if c.ActivationBytesPerLayerPerMicrobatch() <= 0 ||
		c.InputActivationBytesPerMicrobatch() <= 0 ||
		c.VocabOutputActivationBytes(1.0/8) <= 0 {
		t.Fatalf("memory components must be positive")
	}
}

func TestBaselineFirstStageMemoryNearPaper(t *testing.T) {
	// Sanity-check the calibrated memory model: the paper's baseline peak at
	// 8 GPU / seq 2048 / V=32k is 14.86 GB, and at 256k is 25.64 GB. The
	// device 0 estimate (4 transformer layers + input embedding + p in-flight
	// activations + overhead) should land within ~20%.
	c := cfg4B()
	layersPerStage := float64(c.Layers / c.Devices)
	estimate := func(v int) float64 {
		cc := c.WithVocab(v)
		params := layersPerStage*cc.TransformerLayerParams() + cc.VocabLayerParams()
		act := float64(cc.Devices) * layersPerStage * cc.ActivationBytesPerLayerPerMicrobatch()
		return (params*BytesPerParam + act + RuntimeOverheadBytes) / GiB
	}
	if got := estimate(32 * 1024); math.Abs(got-14.86) > 3.0 {
		t.Errorf("32k estimate %v GB, paper 14.86", got)
	}
	if got := estimate(256 * 1024); math.Abs(got-25.64) > 5.0 {
		t.Errorf("256k estimate %v GB, paper 25.64", got)
	}
}

func TestPropFLOPsScaleLinearlyInBatchAndVocab(t *testing.T) {
	f := func(bRaw, vRaw uint8) bool {
		b := int(bRaw%7) + 1
		v := (int(vRaw%7) + 1) * 1024
		c := Config{Layers: 2, Hidden: 64, Seq: 128, MicroBatch: b, Vocab: v}
		c2 := c
		c2.MicroBatch = 2 * b
		c3 := c
		c3.Vocab = 2 * v
		return c2.OutputLayerFLOPs() == 2*c.OutputLayerFLOPs() &&
			c3.OutputLayerFLOPs() == 2*c.OutputLayerFLOPs() &&
			c2.TransformerLayerFLOPs() == 2*c.TransformerLayerFLOPs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
