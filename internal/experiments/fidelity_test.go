package experiments

import (
	"math"
	"testing"

	"vocabpipe/internal/sweep"
)

// TestFidelityRatchet gates the reproduction against the paper's own
// numbers, per table. Each budget is the worst report a change may leave:
// errors and counts at most the budget, τ at least it, compared at the
// precision written here (errors to 0.01, τ to 0.001). When a change
// improves a figure, tighten its budget to the new value in the same
// change; a budget never loosens. Budgets are per table, not per method: a
// schedule fix can raise one method's error where the cost model already
// sits above the paper, and that must not block it.
func TestFidelityRatchet(t *testing.T) {
	if testing.Short() {
		t.Skip("table5 and table6 grids in -short mode")
	}
	budgets := []struct {
		name           string
		grid           func() *sweep.Grid
		score          func(*sweep.Results) Fidelity
		mfuErr, memErr float64
		tau            float64
		oom            int
		redis, vocab   int
	}{
		{"table5", Table5Grid, Table5Fidelity, 1.76, 1.32, 0.725, 2, 7, 0},
		{"table6", Table6Grid, Table6Fidelity, 8.65, 3.52, 1.0, 0, 0, 0},
	}
	round := func(x, unit float64) float64 { return math.Round(x/unit) * unit }
	for _, b := range budgets {
		res := sweep.Run(b.grid(), sweep.Options{})
		if errs := res.Errs(); len(errs) > 0 {
			t.Fatalf("%s: %v", b.name, errs[0])
		}
		f := b.score(res)
		t.Logf("%s: %v", b.name, f)
		if got := round(f.MFUErr, 0.01); got > b.mfuErr+1e-9 {
			t.Errorf("%s: MFU mean abs. error %.2f points, budget %.2f", b.name, got, b.mfuErr)
		}
		if got := round(f.MemErr, 0.01); got > b.memErr+1e-9 {
			t.Errorf("%s: peak-memory mean abs. error %.2f GB, budget %.2f", b.name, got, b.memErr)
		}
		if got := round(f.Tau(), 0.001); got < b.tau-1e-9 {
			t.Errorf("%s: Kendall τ %.3f, budget %.3f", b.name, got, b.tau)
		}
		if f.OOMDisagree > b.oom {
			t.Errorf("%s: %d OOM disagreements, budget %d", b.name, f.OOMDisagree, b.oom)
		}
		if f.RedisMem > b.redis {
			t.Errorf("%s: redis memory differs from the baseline's in %d groups, budget %d", b.name, f.RedisMem, b.redis)
		}
		if f.VocabMFU > b.vocab {
			t.Errorf("%s: vocab-1 and vocab-2 MFU differ by more than 0.43 points in %d groups, budget %d", b.name, f.VocabMFU, b.vocab)
		}
	}
}
