package schedule_test

import (
	"fmt"
	"math"
	"testing"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/schedule"
	"vocabpipe/internal/sim"
)

// referencePeaks is the analyzer's brute-force oracle. For each acquisition
// on a device (an F, a vocabulary S or an interlaced V), live memory is its
// own size plus the sizes of earlier acquisitions on that device whose
// release ends after its start; the peak is the maximum over acquisitions.
// An F releases at its stage's B end, an S at its device's T end, a V at its
// own end. In-flight counts are the same walk over F passes with size 1.
func referencePeaks(tl *schedule.Timeline) ([]float64, []int) {
	spec := tl.Spec
	ends := make(map[schedule.Pass]float64, len(tl.Passes))
	for _, p := range tl.Passes {
		ends[p.Pass] = p.End
	}
	type acquisition struct {
		start, release, size float64
		forward              bool
	}
	acts, inflight := make([]float64, spec.P), make([]int, spec.P)
	for d, row := range tl.ByDevice {
		var as []acquisition
		for _, p := range row {
			a := acquisition{start: p.Start}
			switch p.Type {
			case schedule.PassF:
				a.release = ends[schedule.Pass{Type: schedule.PassB, Device: d, Chunk: p.Chunk, Micro: p.Micro}]
				a.size = spec.Stages[spec.StageOf(d, p.Chunk)].ActBytes
				a.forward = true
			case schedule.PassS:
				a.release = ends[schedule.Pass{Type: schedule.PassT, Device: d, Micro: p.Micro}]
				a.size = spec.Vocab.ActBytes
			case schedule.PassV:
				a.release, a.size = p.End, spec.Interlaced.ActBytes
			default:
				continue
			}
			as = append(as, a)
		}
		for i, a := range as {
			mem, n := a.size, 1
			for _, e := range as[:i] {
				if e.release > a.start {
					mem += e.size
					if e.forward {
						n++
					}
				}
			}
			acts[d] = max(acts[d], mem)
			if a.forward {
				inflight[d] = max(inflight[d], n)
			}
		}
	}
	return acts, inflight
}

// checkAgainstReference compares both analyzer peaks with the oracle. Every
// size in spec must be a small integer, so any summation order is exact and
// the comparison is bit for bit; the reference's peak memory composes its
// activation peak with the device's parameters, extras and overhead as the
// analyzer does. It also checks the one-walk Measure against the separate
// calls it stands in for, bit for bit: PeakMemoryBytes, PeakInFlight and
// Timeline.MaxBubbleRatio.
func checkAgainstReference(t *testing.T, an *schedule.Analyzer, tl *schedule.Timeline) {
	t.Helper()
	const overhead = 2
	name := tl.Spec.Describe()
	mem, inflight, bubble := an.Measure(tl, overhead)
	var sep schedule.Analyzer
	wantMem := append([]float64(nil), sep.PeakMemoryBytes(tl, overhead)...)
	wantInFlight := sep.PeakInFlight(tl)
	if want := tl.MaxBubbleRatio(); math.Float64bits(bubble) != math.Float64bits(want) {
		t.Fatalf("%s: Measure worst bubble %v, MaxBubbleRatio %v", name, bubble, want)
	}
	for d := range wantMem {
		if math.Float64bits(mem[d]) != math.Float64bits(wantMem[d]) || inflight[d] != wantInFlight[d] {
			t.Fatalf("%s: device %d Measure peak memory %v, in-flight %d; PeakMemoryBytes %v, PeakInFlight %d",
				name, d, mem[d], inflight[d], wantMem[d], wantInFlight[d])
		}
	}

	wantActs, wantIF := referencePeaks(tl)
	mem = an.PeakMemoryBytes(tl, overhead)
	for d := range wantActs {
		want := tl.DeviceParamBytes(d) + wantActs[d] + tl.DeviceExtraActBytes(d) + overhead
		if math.Float64bits(mem[d]) != math.Float64bits(want) {
			t.Fatalf("%s: device %d peak memory %v, reference %v (activations %v)", name, d, mem[d], want, wantActs[d])
		}
	}
	inflight = an.PeakInFlight(tl)
	for d := range wantIF {
		if inflight[d] != wantIF[d] {
			t.Fatalf("%s: device %d peak in-flight %d, reference %d", name, d, inflight[d], wantIF[d])
		}
	}
}

// TestAnalyzerMatchesReferenceZoo runs every zoo model × method at two
// microbatch counts, with activation sizes rounded to whole MiB.
func TestAnalyzerMatchesReferenceZoo(t *testing.T) {
	var an schedule.Analyzer // one analyzer throughout: scratch reuse is under test too
	for _, cfg := range append(costmodel.OneF1BConfigs(), costmodel.VHalfConfigs()...) {
		for _, m := range sim.AllMethods {
			for _, micro := range []int{16, 64} {
				cfg.NumMicro = micro
				t.Run(fmt.Sprintf("%s/%s/m%d", cfg.Name, m, micro), func(t *testing.T) {
					spec, err := sim.BuildSpec(cfg, m)
					if err != nil {
						t.Skipf("no layout: %v", err)
					}
					mib := func(b float64) float64 { return math.Round(b / (1 << 20)) }
					for i := range spec.Stages {
						spec.Stages[i].ActBytes = mib(spec.Stages[i].ActBytes)
					}
					if spec.Vocab != nil {
						spec.Vocab.ActBytes = mib(spec.Vocab.ActBytes)
					}
					if spec.Interlaced != nil {
						spec.Interlaced.ActBytes = mib(spec.Interlaced.ActBytes)
					}
					tl, err := schedule.Build(spec)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstReference(t, &an, tl)
				})
			}
		}
	}
}

// FuzzAnalyzer compares the analyzer with the reference on fuzzed specs.
// Durations are quarter units from 0 (zero-duration passes line ends up
// with starts exactly), stage activation sizes cycle through 0..3 so some
// streams pin nothing, and kind picks 1F1B, either vocabulary barrier
// count, interlaced, or V-Half with and without vocabulary passes.
func FuzzAnalyzer(f *testing.F) {
	// Zero-duration interlaced V passes, which release at their own start.
	// Stage 0 pins nothing, so device 0's peak is a V's own transient.
	f.Add(uint8(2), uint8(3), uint8(3), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0x40), uint8(0))
	// P=1, M=2: F0 [0,1), a zero-duration B0 at 1, then F1 starting at 1.
	f.Add(uint8(0), uint8(1), uint8(0), uint8(4), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add(uint8(3), uint8(7), uint8(1), uint8(4), uint8(8), uint8(2), uint8(3), uint8(0x82), uint8(5))
	f.Add(uint8(3), uint8(9), uint8(2), uint8(1), uint8(3), uint8(0), uint8(1), uint8(0xc3), uint8(9))
	f.Add(uint8(2), uint8(6), uint8(4), uint8(2), uint8(2), uint8(1), uint8(1), uint8(0x02), uint8(3))
	f.Add(uint8(3), uint8(8), uint8(5), uint8(0), uint8(4), uint8(0), uint8(2), uint8(0x43), uint8(6))
	f.Fuzz(func(t *testing.T, pRaw, mRaw, kind, fq, bq, xq, yq, act, imb uint8) {
		q := func(v uint8) float64 { return 0.25 * float64(v%8) }
		k := kind % 6
		p, chunks := int(pRaw%6)+1, 1
		if k >= 4 {
			chunks = 2
		}
		stages := make([]schedule.Stage, p*chunks)
		for i := range stages {
			stages[i] = schedule.Stage{F: q(fq), B: q(bq), ActBytes: float64((int(act) + i) % 4)}
			if chunks == 2 {
				stages[i].W = q(yq)
			}
			if imb>>(i%8)&1 == 1 {
				stages[i].F += 0.25
				stages[i].B += 0.5
			}
		}
		spec := &schedule.Spec{P: p, M: int(mRaw%16) + 1, Chunks: chunks, Stages: stages}
		transient := float64(act >> 6)
		switch k {
		case 1, 2, 5: // Algorithm 1, Algorithm 2, V-Half with Algorithm 1
			barriers := 2
			if k == 2 {
				barriers = 1
			}
			spec.Vocab = &schedule.VocabSpec{SDur: q(xq), TDur: q(yq), Barriers: barriers,
				BcastTime: q(imb) / 4, C1Time: q(xq) / 4, C2Time: q(yq) / 4, ActBytes: transient}
		case 3:
			spec.Interlaced = &schedule.InterlacedSpec{VDur: q(xq), SyncTime: q(yq) / 4, ActBytes: transient}
		}
		tl, err := schedule.Build(spec)
		if err != nil {
			t.Skip(err)
		}
		var an schedule.Analyzer
		checkAgainstReference(t, &an, tl)
	})
}
