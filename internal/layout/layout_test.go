package layout

import (
	"math"
	"testing"

	"vocabpipe/internal/costmodel"
)

func cfg() costmodel.Config {
	c, ok := costmodel.ConfigByName("4B")
	if !ok {
		panic("missing config")
	}
	return c
}

func totalLayers(loads []StageLoad) int {
	n := 0
	for _, s := range loads {
		n += s.TransformerLayers
	}
	return n
}

func TestBaselinePlacement(t *testing.T) {
	c := cfg() // 32 layers, 8 devices
	loads, err := Baseline(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if totalLayers(loads) != c.Layers {
		t.Fatalf("layers lost: %d", totalLayers(loads))
	}
	for i, s := range loads {
		if s.TransformerLayers != 4 {
			t.Errorf("stage %d has %d layers, want 4", i, s.TransformerLayers)
		}
	}
	if loads[0].InputFrac != 1 || loads[7].OutputFrac != 1 {
		t.Fatalf("vocab layers misplaced")
	}
	if loads[0].OutputFrac != 0 || loads[3].InputFrac != 0 {
		t.Fatalf("vocab layers leaked to other stages")
	}
}

func TestBaselineIndivisible(t *testing.T) {
	c := cfg()
	c.Layers = 33
	if _, err := Baseline(c, 8); err == nil {
		t.Fatalf("expected error for indivisible layers")
	}
}

// TestRedisMoreStagesThanLayers: Redis, like Baseline's divisibility check,
// refuses a split that leaves stages empty. At one stage per layer every
// stage still holds a transformer layer or a vocabulary layer.
func TestRedisMoreStagesThanLayers(t *testing.T) {
	for _, v := range costmodel.VocabSizes {
		c := cfg().WithVocab(v) // 32 layers
		if _, err := Redis(c, c.Layers+1); err == nil {
			t.Fatalf("V=%d: expected error for %d stages on %d layers", v, c.Layers+1, c.Layers)
		}
		loads, err := Redis(c, c.Layers)
		if err != nil {
			t.Fatalf("V=%d: %d stages on %d layers: %v", v, c.Layers, c.Layers, err)
		}
		if totalLayers(loads) != c.Layers {
			t.Fatalf("V=%d: redis lost layers: %d", v, totalLayers(loads))
		}
		for i, s := range loads {
			if s.TransformerLayers == 0 && s.InputFrac == 0 && s.OutputFrac == 0 {
				t.Errorf("V=%d: stage %d holds nothing", v, i)
			}
		}
	}
}

func TestRedisPreservesLayersAndReducesMax(t *testing.T) {
	for _, v := range costmodel.VocabSizes {
		c := cfg().WithVocab(v)
		base, _ := Baseline(c, 8)
		redis, _ := Redis(c, 8)
		if totalLayers(redis) != c.Layers {
			t.Fatalf("V=%d: redis lost layers: %d", v, totalLayers(redis))
		}
		if MaxComputeUnits(c, redis) > MaxComputeUnits(c, base)+1e-9 {
			t.Errorf("V=%d: redis max %v worse than baseline %v", v,
				MaxComputeUnits(c, redis), MaxComputeUnits(c, base))
		}
		if redis[0].InputFrac != 1 || redis[7].OutputFrac != 1 {
			t.Fatalf("redis moved vocabulary layers")
		}
	}
}

func TestRedisLastStageLosesLayers(t *testing.T) {
	// With a heavy output layer the greedy must strip transformer layers off
	// the last stage.
	c := cfg().WithVocab(256 * 1024) // output ≈ 6.4 transformer layers
	redis, _ := Redis(c, 8)
	if redis[7].TransformerLayers >= 4 {
		t.Errorf("last stage kept %d layers despite heavy output layer", redis[7].TransformerLayers)
	}
	base, _ := Baseline(c, 8)
	if !(MaxComputeUnits(c, redis) < MaxComputeUnits(c, base)) {
		t.Errorf("redis should strictly improve at 256k")
	}
}

func TestRedisResidualImbalance(t *testing.T) {
	// §2 ("Balancing Vocabulary Layers"): even after redistribution, compute
	// imbalance persists when the output layer alone exceeds the mean stage:
	// max/mean stays well above 1 at 256k.
	c := cfg().WithVocab(256 * 1024)
	redis, _ := Redis(c, 8)
	ratio := MaxComputeUnits(c, redis) / MeanComputeUnits(c, redis)
	if ratio < 1.2 {
		t.Errorf("expected residual imbalance ≥1.2 at 256k, got %v", ratio)
	}
	// At 32k the output layer is only ≈0.8 of a transformer layer; integer
	// layer granularity caps how well redistribution can do (the paper's
	// Redis ≈ Baseline at 32k), but the ratio should stay mild.
	c2 := cfg().WithVocab(32 * 1024)
	redis2, _ := Redis(c2, 8)
	ratio2 := MaxComputeUnits(c2, redis2) / MeanComputeUnits(c2, redis2)
	if ratio2 > 1.25 {
		t.Errorf("expected mild imbalance at 32k, got %v", ratio2)
	}
	if ratio >= ratio2 == false {
		t.Errorf("imbalance should grow with vocabulary: 256k %v vs 32k %v", ratio, ratio2)
	}
}

func TestVocabPlacementBalanced(t *testing.T) {
	c := cfg()
	loads, err := Vocab(c, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if totalLayers(loads) != c.Layers {
		t.Fatalf("layers lost")
	}
	for i, s := range loads {
		if math.Abs(s.InputFrac-1.0/8) > 1e-12 || math.Abs(s.OutputFrac-1.0/8) > 1e-12 {
			t.Errorf("stage %d vocab fracs %v/%v, want 1/8", i, s.InputFrac, s.OutputFrac)
		}
	}
	// Perfectly balanced compute.
	if MaxComputeUnits(c, loads)-MeanComputeUnits(c, loads) > 1e-9 {
		t.Errorf("vocab placement not balanced")
	}
}

func TestVocabPlacementVShape(t *testing.T) {
	// 16 stages on 8 devices: each device gets exactly one 1/8 shard.
	c := cfg()
	loads, err := Vocab(c, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	totalIn, totalOut := 0.0, 0.0
	for _, s := range loads {
		totalIn += s.InputFrac
		totalOut += s.OutputFrac
	}
	if math.Abs(totalIn-1) > 1e-12 || math.Abs(totalOut-1) > 1e-12 {
		t.Fatalf("vocab shards don't sum to 1: %v %v", totalIn, totalOut)
	}
}

func TestParamBytes(t *testing.T) {
	c := cfg()
	s := StageLoad{TransformerLayers: 2, InputFrac: 0.5}
	want := (2*c.TransformerLayerParams() + 0.5*c.VocabLayerParams()) * costmodel.BytesPerParam
	if got := s.ParamBytes(c); got != want {
		t.Fatalf("ParamBytes = %v, want %v", got, want)
	}
}

func TestComputeUnitsMatchesTable4Ratio(t *testing.T) {
	c := cfg().WithVocab(128 * 1024)
	s := StageLoad{OutputFrac: 1}
	if math.Abs(s.ComputeUnits(c)-c.OutputToTransformerRatio()) > 1e-12 {
		t.Fatalf("output-only stage units should equal the Table 4 ratio")
	}
}
