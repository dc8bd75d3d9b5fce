package schedule

import "math"

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

// buildBlock builds a spec with a block (hasBlock): its order, written in
// closed form (writeBlock), timed once by timeRows.
func (e *engine) buildBlock(spec *Spec) (*Timeline, error) {
	e.havePrev = false
	e.reset(spec)
	e.writeBlock(spec)
	return e.timeRows()
}

// writeBlock writes every device's block order into its row.
//
// Each device runs the 1F1B skeleton of its in-flight cap (inFlightCap:
// P − d, plus one per vocabulary barrier, ×1.5 interlaced): cap − 1 warm-up
// forwards, then forward and backward alternately, then the cool-down
// backwards. Without vocabulary passes the skeleton is the order. With
// them, §5's block fixes where each S(i), T(i) or V(i) goes on the block's
// clock (blockClock), the skeleton's timing with uniform stages:
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
// An interval is F + B; the offsets are the best of a scan in
// eighth-interval steps over Table 5. Each pass goes after every skeleton
// pass of its device that the clock starts before it, S before T at a tie.
// In the steady state that is a lag in microbatches behind the device's
// forwards, set by its distance to the last stage and the durations.
//
// Any durations give a valid order. The clock runs every row and every
// dependency between skeleton passes strictly forward. S(i) and V(i) sit no
// earlier than the last stage's F(i) and strictly before its B(i), and T(i)
// no earlier than S(i) (and, under Algorithm 1, strictly before that B(i)).
// Ordered by clock and then S before T, every dependency points forward, so
// the order cannot deadlock. The skeleton never changes, so peak in-flight
// is min(cap, M) on every device, and each pass kind runs in microbatch
// order.
func (e *engine) writeBlock(spec *Spec) {
	P, M := spec.P, spec.M
	c := newBlockClock(spec)
	u := spec.Stages[0].F + spec.Stages[0].B
	// Offsets from the last stage's F(i) end, clamped below far, which lies
	// past every skeleton pass.
	far := (M + 2*P + c.e + 2) << 21
	first, nS, nT := PassS, M, M
	var cS, cT, tLate int
	switch v := spec.Vocab; {
	case v == nil && spec.Interlaced == nil:
		nS, nT = 0, 0
	case v == nil:
		first, nT = PassV, 0
		cS = c.ticks(u/8, 0, far)
	case v.Barriers == 2:
		cS = c.ticks(v.BcastTime, 0, far)
		cT = c.ticks(v.BcastTime+v.SDur+v.C1Time+3*u/4, cS, far)
	default:
		cS = c.ticks(v.BcastTime+u/4, 0, far)
		cT = c.ticks(v.BcastTime+u/4+v.SDur+v.C1Time+3*u/2, cS, far)
		tLate = far
	}
	// The clock of each S(i) (or V(i)) and T(i): S(i) and V(i) strictly
	// before the last stage's B(i), and T(i) too unless tLate lets it be
	// later (Algorithm 2).
	if cap(e.keys) < 2*M {
		e.keys = make([]int, 2*M)
	}
	sAt, tAt := e.keys[:M], e.keys[M:2*M]
	lastDev := blockDevice{d: P - 1, w: c.e, r: c.rl, wr: c.wl}
	for i := M - nS; i < M; i++ {
		f, b := c.forward(lastDev, i)+c.f, c.backward(P-1, i)-1
		sAt[i], tAt[i] = min(f+cS, b), min(f+cT, b+tLate)
	}

	var dv blockDevice
	for d := 0; d < P; d++ {
		row := e.byDevice[d][:cap(e.byDevice[d])]
		dv = c.next(spec, dv, d)
		warm := min(dv.w, M)
		jF, jB, iS, iT, k := 0, 0, M-nS, M-nT, 0
		put := func(pt PassType, i int) {
			row[k].Pass = Pass{Type: pt, Device: d, Micro: i}
			k++
		}
		// flush puts every pending S, V or T the clock has no later than t,
		// in clock order, S before T at a tie.
		flush := func(t int) {
			for {
				switch {
				case iS < M && (iT == M || sAt[iS] <= tAt[iT]) && sAt[iS] <= t:
					put(first, iS)
					iS++
				case iT < M && (iS == M || tAt[iT] < sAt[iS]) && tAt[iT] <= t:
					put(PassT, iT)
					iT++
				default:
					return
				}
			}
		}
		for jF+jB < 2*M {
			if jF < M && jF <= jB+warm {
				if iS < M || iT < M {
					flush(c.forward(dv, jF))
				}
				put(PassF, jF)
				jF++
			} else {
				if iS < M || iT < M {
					flush(c.backward(d, jB))
				}
				put(PassB, jB)
				jB++
			}
		}
		flush(math.MaxInt)
	}
}

// blockClock times a block's skeleton in closed form, in integer ticks,
// with uniform stages: stage 0's F and B and the send s. A run is a
// stretch of adjacent devices whose warm-ups fall by one per device.
//
// Backwards: B(k) leaves the last stage after its warm-up's forwards and
// reaches device d, δ = P−1−d stages up, δ·(B + s) later. Each microbatch
// takes the last stage F + B, plus two sends except once every L
// microbatches, where L is the longest run's length: the skeleton's longest
// cycle passes a microbatch's forwards down that run and its backwards back
// up, L − 1 sends each way, every L microbatches. In the cool-down the
// backwards run back to back.
//
// Forwards: the first device of a run starts F(j) right after the backward
// it follows in the skeleton, B(j − warm − 1); down the run each starts a
// forward and a send after the one above. During the warm-up no backward
// holds the forwards back: F(j) on device d starts at j·F + d·(F + s) up to
// its first backward, and no earlier than that after it. The warm-up and the
// steady state meet at the last stage's first backward.
//
// F is at least two ticks, B at least one and s below 2F + B, so every row
// and every dependency between skeleton passes runs strictly forward on the
// clock, whatever the durations, and a tick fits between the last stage's
// F(i) and B(i). The warm-up clock keeps them so unless some
// device's last warm-up forward would come at or after its first backward;
// then the block uses the steady state alone.
type blockClock struct {
	M, P, L, e int
	f, b, s    int     // F, B and s in ticks
	a          int     // the last stage's B(0)
	scale      float64 // ticks per unit of the spec's time
	rl, wl     int     // the last device's run: its first device and that one's warm-up
	warmup     bool
}

// blockDevice is what the clock reads of device d: its warm-up w and its
// run's first device r, of warm-up wr.
type blockDevice struct{ d, w, r, wr int }

func newBlockClock(spec *Spec) blockClock {
	P := spec.P
	st := spec.Stages[0]
	c := blockClock{M: spec.M, P: P, L: 1, e: inFlightCap(spec, P-1, 0) - 1}
	if p := st.F + st.B + 2*spec.SendTime; p > 0 {
		c.scale = min((1<<20)/p, math.MaxFloat64)
	}
	c.f, c.b = c.ticks(st.F, 2, 1<<20), c.ticks(st.B, 1, 1<<20)
	c.s = c.ticks(spec.SendTime, 0, 2*c.f+c.b-1)
	c.a = c.chain(P-1, min(c.e, c.M-1)) + c.f
	c.warmup = true
	var dv blockDevice
	for d := 0; d < P; d++ {
		dv = c.next(spec, dv, d)
		c.L = max(c.L, d-dv.r+1)
		c.warmup = c.warmup && c.chain(d, min(dv.w, c.M-1)) < c.backward(d, 0)
	}
	c.rl, c.wl = dv.r, dv.wr
	return c
}

// next is device d's blockDevice, from device d − 1's prev.
func (c *blockClock) next(spec *Spec, prev blockDevice, d int) blockDevice {
	dv := blockDevice{d: d, w: inFlightCap(spec, d, 0) - 1, r: d}
	dv.wr = dv.w
	if d > 0 && prev.w-dv.w == 1 {
		dv.r, dv.wr = prev.r, prev.wr
	}
	return dv
}

// ticks converts duration x into ticks, rounded and clamped to [lo, hi].
func (c *blockClock) ticks(x float64, lo, hi int) int {
	return int(min(max(math.Round(x*c.scale), float64(lo)), float64(hi)))
}

// beta is how long after B(0) the last stage starts B(k) in the steady
// state.
func (c *blockClock) beta(k int) int {
	return k*(c.f+c.b) + 2*c.s*(k+floorDiv(-k, c.L))
}

// chain is where the warm-up puts F(j) on device d.
func (c *blockClock) chain(d, j int) int { return j*c.f + d*(c.f+c.s) }

// forward is the clock of F(j) on device dv: the warm-up's, the steady
// state's, or after the first backward the later of the two.
func (c *blockClock) forward(dv blockDevice, j int) int {
	if c.warmup && j <= dv.w {
		return c.chain(dv.d, j)
	}
	t := c.a + (c.P-1-dv.r)*(c.b+c.s) + c.beta(j-dv.wr-1) + c.b + (dv.d-dv.r)*(c.f+c.s)
	if c.warmup {
		t = max(t, c.chain(dv.d, j))
	}
	return t
}

// backward is the clock of B(k) on device d.
func (c *blockClock) backward(d, k int) int {
	t := c.a + (c.P-1-d)*(c.b+c.s)
	if k0 := max(c.M-c.e-1, 0); k > k0 {
		return min(t+c.beta(k), t+c.beta(k0)+(k-k0)*c.b)
	}
	return t + c.beta(k)
}

// floorDiv is ⌊a/b⌋ for b > 0.
func floorDiv(a, b int) int {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}
