package experiments

import (
	"fmt"
	"math"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
)

// Fidelity scores a paper table's reproduction against the paper's own
// values. A cell is one (model, seq, vocab, method) entry; a cell that is
// OOM on either side counts under OOM agreement and stays out of the errors
// and of the rank statistic.
type Fidelity struct {
	// Cells is how many cells are OOM on neither side.
	Cells int
	// MFUErr and MemErr are the mean absolute errors over those cells, in
	// MFU points and in GB of peak memory (the device maximum).
	MFUErr, MemErr float64
	// Concordant and Discordant count the method pairs within a (model, seq,
	// vocab) group that rank the same or the opposite way by MFU here and in
	// the paper; pairs tied on either side count as neither.
	Concordant, Discordant int
	// OOMDisagree counts cells that are OOM on one side only.
	OOMDisagree int
	// RedisMem counts groups where Redis' peak memory differs from the
	// baseline's by more than the paper's 0.01-GB precision: the paper
	// reports them equal in every group.
	RedisMem int
	// VocabMFU counts groups where vocab-1 and vocab-2 MFU differ by more
	// than 0.43 points, the most they differ by in the paper.
	VocabMFU int
}

// Tau is Kendall's τ over the method pairs: (concordant − discordant) /
// (concordant + discordant), or 1 with no pair to rank.
func (f Fidelity) Tau() float64 {
	if n := f.Concordant + f.Discordant; n > 0 {
		return float64(f.Concordant-f.Discordant) / float64(n)
	}
	return 1
}

// String is the report in one line, as TestFidelityRatchet logs it and
// vpbench -fidelity prints it.
func (f Fidelity) String() string {
	return fmt.Sprintf("%d cells, MFU error %.2f points, memory error %.2f GB, τ %.3f (%d/%d), %d OOM disagreements, claim violations redis %d, vocab %d",
		f.Cells, f.MFUErr, f.MemErr, f.Tau(), f.Concordant, f.Discordant, f.OOMDisagree, f.RedisMem, f.VocabMFU)
}

// Table5Fidelity scores Table5Grid's results against PaperTable5.
func Table5Fidelity(res *sweep.Results) Fidelity {
	return score(res, costmodel.OneF1BConfigs(), sim.OneF1BMethods, PaperTable5)
}

// Table6Fidelity scores Table6Grid's results against PaperTable6.
func Table6Fidelity(res *sweep.Results) Fidelity {
	return score(res, costmodel.VHalfConfigs(), sim.VHalfMethods, PaperTable6)
}

// score walks every (model, seq, vocab) group of a table grid.
func score(res *sweep.Results, cfgs []costmodel.Config, methods []sim.Method, paper map[string]map[int]map[string]PaperCell) Fidelity {
	var f Fidelity
	ours := make([]*sim.Result, len(methods))
	theirs := make([]float64, len(methods))
	for _, cfg := range cfgs {
		for _, seq := range costmodel.SeqLengths {
			for vi, v := range costmodel.VocabSizes {
				byName := map[sim.Method]int{}
				for k, m := range methods {
					r := res.MustGet(sweep.CellLabel(cfg.WithSeq(seq).WithVocab(v), m))
					p := paper[cfg.Name][seq][m.String()]
					ours[k], theirs[k] = r, p.MFU[vi]
					byName[m] = k
					if paperOOM := p.MFU[vi] < 0; r.OOM != paperOOM {
						f.OOMDisagree++
					}
					if r.OOM || p.MFU[vi] < 0 {
						continue
					}
					f.Cells++
					f.MFUErr += math.Abs(100*r.MFU - p.MFU[vi])
					f.MemErr += math.Abs(r.MaxMem/costmodel.GiB - p.Mem[vi])
				}
				for a := range methods {
					for b := a + 1; b < len(methods); b++ {
						if ours[a].OOM || ours[b].OOM || theirs[a] < 0 || theirs[b] < 0 {
							continue
						}
						switch s := sign(ours[a].MFU-ours[b].MFU) * sign(theirs[a]-theirs[b]); {
						case s > 0:
							f.Concordant++
						case s < 0:
							f.Discordant++
						}
					}
				}
				if b, ok := byName[sim.Baseline]; ok {
					if r, ok := byName[sim.Redis]; ok && math.Abs(ours[r].MaxMem-ours[b].MaxMem)/costmodel.GiB > 0.005 {
						f.RedisMem++
					}
				}
				if v1, ok := byName[sim.Vocab1]; ok {
					if v2, ok := byName[sim.Vocab2]; ok && 100*math.Abs(ours[v1].MFU-ours[v2].MFU) > 0.43 {
						f.VocabMFU++
					}
				}
			}
		}
	}
	if f.Cells > 0 {
		f.MFUErr /= float64(f.Cells)
		f.MemErr /= float64(f.Cells)
	}
	return f
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}
