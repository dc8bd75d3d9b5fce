package schedule

import (
	"math"
	"math/rand/v2"
	"testing"
)

// FuzzTimeMonotone times a block order, lengthens one duration of its spec
// (a stage's F or B, the send, or a vocabulary duration) and times the same
// order again: the makespan must not shrink. A fixed order's makespan is a
// max of sums of durations, and IEEE addition and max are monotone, so this
// holds bit for bit. Greedy dispatch breaks it: it reorders when durations
// change, and its 10B/4096/32k vocab-1 schedule gains MFU when its
// collectives take twice as long.
func FuzzTimeMonotone(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(1), 1.0, 2.0, uint8(3), 0.5)
	f.Add(uint8(6), uint8(18), uint8(2), 0.5, 1.5, uint8(9), 2.0)
	f.Add(uint8(5), uint8(3), uint8(3), 1.0, 1.0, uint8(12), 0.25)
	f.Add(uint8(1), uint8(1), uint8(0), 0.0, 0.0, uint8(0), 1.0)
	f.Fuzz(func(t *testing.T, pRaw, mRaw, kind uint8, fDur, bDur float64, which uint8, delta float64) {
		ok := func(v float64) bool { return v >= 0 && v <= 1e6 && !math.IsNaN(v) }
		if !ok(fDur) || !ok(bDur) || !ok(delta) {
			t.Skip()
		}
		p := int(pRaw%8) + 1
		m := int(mRaw%24) + 1
		spec := &Spec{P: p, M: m, Chunks: 1, Stages: uniformStages(p, fDur, bDur, 0), SendTime: fDur / 8}
		spec.Stages[p-1].F += bDur / 3 // an uneven last stage
		switch kind % 4 {
		case 1, 2:
			spec.Vocab = &VocabSpec{SDur: fDur / 3, TDur: bDur / 3, Barriers: int(kind % 4),
				BcastTime: fDur / 16, C1Time: bDur / 16, C2Time: fDur / 16, ActBytes: 1}
		case 3:
			spec.Interlaced = &InterlacedSpec{VDur: fDur / 2, SyncTime: bDur / 8, ActBytes: 1}
		}
		before, err := Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Describe(), err)
		}
		longer := cloneSpec(spec)
		st := &longer.Stages[int(which/8)%p]
		switch which % 8 {
		case 0:
			st.F += delta
		case 1:
			st.B += delta
		case 2:
			longer.SendTime += delta
		default:
			switch v, iv := longer.Vocab, longer.Interlaced; {
			case v != nil:
				*[]*float64{&v.SDur, &v.TDur, &v.BcastTime, &v.C1Time, &v.C2Time}[which%8-3] += delta
			case iv != nil:
				*[]*float64{&iv.VDur, &iv.SyncTime}[which%2] += delta
			default:
				st.F += delta
			}
		}
		after, err := retime(longer, before.ByDevice)
		if err != nil {
			t.Fatalf("%s: the order stopped timing: %v", spec.Describe(), err)
		}
		if after.Makespan < before.Makespan {
			t.Fatalf("%s: lengthening duration %d by %v shrank the makespan from %v to %v",
				spec.Describe(), which, delta, before.Makespan, after.Makespan)
		}
	})
}

// FuzzBlockOrder builds random one-chunk specs: 1 to 16 devices, 1 to 40
// microbatches, each stage's F and B drawn on its own (a quarter of them
// zero), the send, and vocabulary or interlaced durations whose barriers
// (the C0 broadcast, C1, C2 and the interlaced sync) are scaled by barrier,
// zero to very large. A block's order must time on any durations: Build
// succeeds, the timeline passes Validate, every device's peak in-flight is
// min(cap, M), and re-timing the rows reproduces every pass bit for bit.
// FuzzTimeMonotone varies only uniform stages with one uneven last stage.
//
// In-flight is counted along each row (a forward takes a microbatch in, its
// backward lets it go), and by the Analyzer on devices whose forwards take
// time: a zero-length forward can start at the instant a zero-length
// backward behind it in the row ends, and the Analyzer, which goes by time,
// then counts that microbatch out already.
func FuzzBlockOrder(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(1), uint64(1), 1.0)
	f.Add(uint8(16), uint8(40), uint8(2), uint64(7), 1e9)
	f.Add(uint8(1), uint8(1), uint8(3), uint64(3), 0.0)
	f.Add(uint8(8), uint8(3), uint8(0), uint64(11), 1e-9)
	f.Add(uint8(5), uint8(33), uint8(3), uint64(5), 1e12)
	f.Add(uint8(79), uint8(199), uint8(252), uint64(155), 1e9) // zero-length forwards
	f.Fuzz(func(t *testing.T, pRaw, mRaw, kind uint8, seed uint64, barrier float64) {
		if !(barrier >= 0 && barrier <= 1e12) {
			t.Skip()
		}
		rng := rand.New(rand.NewPCG(seed, uint64(kind)))
		dur := func() float64 {
			if rng.IntN(4) == 0 {
				return 0
			}
			return rng.Float64() * 2
		}
		p, m := int(pRaw%16)+1, int(mRaw%40)+1
		stages := make([]Stage, p)
		for i := range stages {
			stages[i] = Stage{F: dur(), B: dur(), ActBytes: 1}
		}
		spec := &Spec{P: p, M: m, Chunks: 1, Stages: stages, SendTime: dur() / 8}
		switch kind % 4 {
		case 1, 2:
			spec.Vocab = &VocabSpec{SDur: dur(), TDur: dur(), Barriers: int(kind % 4), BcastTime: dur() * barrier,
				C1Time: dur() * barrier, C2Time: dur() * barrier, ActBytes: 1}
		case 3:
			spec.Interlaced = &InterlacedSpec{VDur: dur(), SyncTime: dur() * barrier, ActBytes: 1}
		}
		tl, err := Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Describe(), err)
		}
		if err := tl.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Describe(), err)
		}
		var an Analyzer
		for d, timed := range an.PeakInFlight(tl) {
			n, peak := 0, 0
			for _, tp := range tl.ByDevice[d] {
				switch tp.Type {
				case PassF:
					n++
					peak = max(peak, n)
				case PassB:
					n--
				}
			}
			if stages[d].F == 0 {
				timed = peak
			}
			if c := inFlightCap(spec, d, 0); peak != min(c, m) || timed != peak {
				t.Fatalf("%s: device %d holds %d microbatches in flight along its row and %d by time, want min(cap %d, M %d)",
					spec.Describe(), d, peak, timed, c, m)
			}
		}
		again, err := Retime(tl)
		if err != nil {
			t.Fatalf("%s: re-timing the rows: %v", spec.Describe(), err)
		}
		if again.Makespan != tl.Makespan {
			t.Fatalf("%s: re-timed makespan %v, built %v", spec.Describe(), again.Makespan, tl.Makespan)
		}
		for d, row := range tl.ByDevice {
			for k, tp := range row {
				if again.ByDevice[d][k] != tp {
					t.Fatalf("%s: device %d pass %d re-timed %+v, built %+v", spec.Describe(), d, k, again.ByDevice[d][k], tp)
				}
			}
		}
	})
}
