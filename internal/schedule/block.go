package schedule

// hasBlock reports whether spec is built from a block order: one chunk per
// device and no split backward, the 1F1B family.
func hasBlock(spec *Spec) bool {
	if spec.Chunks != 1 {
		return false
	}
	for _, st := range spec.Stages {
		if st.W > 0 {
			return false
		}
	}
	return true
}

// skelPos is where a pass of microbatch i sits in a device's 1F1B skeleton
// of warm warm-up forwards (at most M): the warm-up F(0..warm−1), then
// F(k + warm) and B(k) alternately, then the cool-down backwards.
func skelPos(warm, M int, pt PassType, i int) int {
	warm = min(warm, M)
	switch {
	case pt == PassF && i < warm:
		return i
	case pt == PassF:
		return 2*i - warm
	case i < M-warm:
		return warm + 2*i + 1
	default:
		return M + i
	}
}

// blockAt is a position in a block order: a time on the skeleton's clock,
// ties broken by rank.
type blockAt struct {
	t    float64
	rank int
}

func (a blockAt) before(b blockAt) bool { return a.t < b.t || a.t == b.t && a.rank < b.rank }

// writeSkeleton writes every device's 1F1B skeleton into the first 2M
// entries of the slab, device after device. The warm-up is spec's in-flight
// cap less one.
func (e *engine) writeSkeleton(spec *Spec) {
	M := spec.M
	for d := 0; d < spec.P; d++ {
		row := e.byDevBack[2*M*d : 2*M*(d+1)]
		warm := inFlightCap(spec, d, 0) - 1
		for i := 0; i < M; i++ {
			row[skelPos(warm, M, PassF, i)].Pass = Pass{Type: PassF, Device: d, Micro: i}
			row[skelPos(warm, M, PassB, i)].Pass = Pass{Type: PassB, Device: d, Micro: i}
		}
	}
}

// buildBlock builds a spec with a block (hasBlock): its order, written in
// closed form, timed in one pass by timeRows.
//
// Each device runs the 1F1B skeleton of its in-flight cap (inFlightCap:
// P − d, plus one per vocabulary barrier, ×1.5 interlaced): cap − 1 warm-up
// forwards, then forward and backward alternately, then the cool-down
// backwards. Without vocabulary passes the skeleton is the order. With
// them, the skeleton is timed alone first, and the vocabulary passes go
// where §5's blocks put them on that clock, on every device:
//
//   - S(i) when the last stage's F(i) has ended and C0 has broadcast its
//     output, a quarter interval later under Algorithm 2;
//   - T(i) after S(i) and barrier C1: three quarters of an interval later
//     under Algorithm 1, where the last stage's B(i) waits for C2 behind
//     it, and an interval and a half under Algorithm 2, where nothing waits
//     for T;
//   - an interlaced V(i) an eighth of an interval after the last stage's
//     F(i).
//
// An interval is stage 0's F + B. The offsets are the best of a scan in
// eighth-interval steps over the Table 5 cells; an order placed early
// instead (T right after C1) stalls every device at the barrier. Each
// planned time is clamped between the
// last stage's F(i) and B(i) (a T under Algorithm 2 has no upper bound), and
// the skeleton's commit rank breaks ties, so every dependency points to a
// strictly later position and the order cannot deadlock, whatever the
// durations. The skeleton never changes, so peak in-flight is min(cap, M)
// on every device, and each pass kind runs in microbatch order.
func (e *engine) buildBlock(spec *Spec) (*Timeline, error) {
	e.havePrev = false
	P, M := spec.P, spec.M
	if spec.Vocab == nil && spec.Interlaced == nil {
		e.reset(spec)
		e.writeSkeleton(spec)
		return e.timeRows()
	}

	// Time the skeleton alone, in rows of 2M from the slab's start, on a
	// slab already sized for the full order.
	if n := P * M * 4; cap(e.byDevBack) < n {
		e.byDevBack = make([]TimedPass, n)
	}
	e.skel = *spec
	e.skel.Vocab, e.skel.Interlaced = nil, nil
	e.reset(&e.skel)
	e.writeSkeleton(spec)
	if _, err := e.timeRows(); err != nil {
		return nil, err
	}
	if cap(e.rank) < 2*P*M {
		e.rank = make([]int, 2*P*M)
	}
	rank := e.rank[:2*P*M]
	for c, tp := range e.passes {
		rank[2*M*tp.Device+skelPos(inFlightCap(spec, tp.Device, 0)-1, M, tp.Type, tp.Micro)] = c
	}
	skel := e.byDevBack[:2*P*M]

	// Plan the vocabulary passes on the skeleton's clock: S(i) (or V(i)) at
	// plans[i], T(i) at plans[M+i]. A skeleton pass ranks 4× its commit
	// index; S(i) and V(i) rank just after the last stage's F(i), T(i) just
	// after them.
	if cap(e.plans) < 2*M {
		e.plans = make([]blockAt, 2*M)
	}
	plans := e.plans[:2*M]
	last := P - 1
	lastWarm := inFlightCap(spec, last, 0) - 1
	u := spec.Stages[0].F + spec.Stages[0].B
	for i := 0; i < M; i++ {
		fPos, bPos := skelPos(lastWarm, M, PassF, i), skelPos(lastWarm, M, PassB, i)
		f, b := skel[2*M*last+fPos], skel[2*M*last+bPos]
		r := 4*rank[2*M*last+fPos] + 1
		var s, t float64
		switch v := spec.Vocab; {
		case v == nil:
			s = f.End + u/8
		case v.Barriers == 2:
			s = f.End + v.BcastTime
			t = s + v.SDur + v.C1Time + 3*u/4
		default:
			s = f.End + v.BcastTime + u/4
			t = s + v.SDur + v.C1Time + 3*u/2
		}
		s = min(max(s, f.Start), b.Start)
		t = max(t, s)
		if spec.Vocab != nil && spec.Vocab.Barriers == 2 {
			t = min(t, b.Start)
		}
		plans[i], plans[M+i] = blockAt{s, r}, blockAt{t, r + 1}
	}

	// Merge each device's skeleton with the planned passes, from the back,
	// into its full row: the rows of devices above d lie past d's skeleton,
	// and within a row the write index never falls below the read index.
	e.reset(spec)
	vKind := PassS
	if spec.Interlaced != nil {
		vKind = PassV
	}
	for d := last; d >= 0; d-- {
		row := e.byDevice[d][:cap(e.byDevice[d])]
		j, iS, iT := 2*M-1, M-1, M-1
		if spec.Vocab == nil {
			iT = -1
		}
		for k := len(row) - 1; k >= 0; k-- {
			pick, best := 0, blockAt{-1, 0}
			if j >= 0 {
				best = blockAt{skel[2*M*d+j].Start, 4 * rank[2*M*d+j]}
			}
			if iS >= 0 && best.before(plans[iS]) {
				pick, best = 1, plans[iS]
			}
			if iT >= 0 && best.before(plans[M+iT]) {
				pick = 2
			}
			switch pick {
			case 0:
				row[k].Pass = skel[2*M*d+j].Pass
				j--
			case 1:
				row[k].Pass = Pass{Type: vKind, Device: d, Micro: iS}
				iS--
			default:
				row[k].Pass = Pass{Type: PassT, Device: d, Micro: iT}
				iT--
			}
		}
	}
	return e.timeRows()
}
