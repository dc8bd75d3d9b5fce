package schedule

import (
	"math"
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
