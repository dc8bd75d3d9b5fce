package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// spinSink keeps the spin loop's result observable so the compiler cannot
// drop the loop.
var spinSink uint64

// refQuiet is how long refLoop takes on an uncontended vCPU of the machine
// the bounds were set on (2-vCPU Intel Xeon VM): the duration every scaled
// time is expressed against.
const refQuiet = 12 * time.Millisecond

// refEvery is the longest a measured window runs between two refLoop calls.
const refEvery = 500 * time.Millisecond

// ref is refLoop's fixed state: it sorts a copy of src into buf and fills m.
// refHeapBytes is its share of the live heap, which retainedHeapMB leaves
// out. initRef sets both.
var (
	ref struct {
		src, buf []float64
		m        map[uint32]int
	}
	refHeapBytes uint64
)

func initRef() {
	before := liveHeapBytes()
	r := rand.New(rand.NewSource(1))
	ref.src = make([]float64, 1<<16)
	for i := range ref.src {
		ref.src[i] = r.Float64()
	}
	ref.buf = make([]float64, len(ref.src))
	ref.m = make(map[uint32]int, 1<<15)
	refLoop()
	refHeapBytes = liveHeapBytes() - before
}

// refLoop runs a fixed piece of single-threaded work that is branchy and
// touches about two megabytes, roughly the shape of a schedule build, and
// returns how long it took. It allocates nothing. On a shared host the
// program's speed swings by up to 1.7x for minutes at a time as co-tenants
// compete for the cores and caches; the loop, timed between the ops of a
// window, slows with it, so the window's times divided by the loop's mean
// time cancel the swing, while a change to the program does not move the
// loop. Over 10-s windows of paper-grids passes on this host, dividing by
// the loop's time cut the spread (IQR/median) from 0.06–0.14 to about 0.04;
// dividing by spinMops' ALU loop sometimes widened it.
func refLoop() time.Duration {
	start := time.Now()
	copy(ref.buf, ref.src)
	slices.Sort(ref.buf)
	clear(ref.m)
	for i := uint32(0); i < 1<<15; i++ {
		ref.m[i*7919%100003] += int(i)
	}
	spinSink += uint64(len(ref.m))
	return time.Since(start)
}

// hostClock accumulates a window's refLoop samples and the time they took,
// which the window excludes from what it measures.
type hostClock struct {
	sum, n int64 // Σ refLoop ns, samples
	last   time.Time
}

// tick samples if refEvery has passed since the last sample, or there is
// none, and returns the time it took; a window calls it between ops.
func (h *hostClock) tick() time.Duration {
	if h.n > 0 && time.Since(h.last) < refEvery {
		return 0
	}
	return h.sample()
}

// sample runs refLoop and returns the time it took.
func (h *hostClock) sample() time.Duration {
	t0 := time.Now()
	d := refLoop()
	h.sum += int64(d)
	h.n++
	h.last = time.Now()
	return h.last.Sub(t0)
}

// scale is refQuiet over the mean refLoop time: multiplying a time measured
// in the window by it gives the time on a quiet host.
func (h *hostClock) scale() float64 {
	if h.n == 0 {
		return 1
	}
	return float64(refQuiet) * float64(h.n) / float64(h.sum)
}

// spinMops times a fixed integer loop and returns millions of iterations per
// second. Four independent xorshift chains keep several ALU ports busy, so
// the figure drops both when the core's clock drops and when a co-tenant on
// the same physical core competes for its execution units; it touches no
// memory. Comparing it before and after runs tells a host swing from a
// regression. Nothing gates on it.
func spinMops() float64 {
	const iters = 20_000_000
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	start := time.Now()
	for i := 0; i < iters; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		a ^= a << 17
		b ^= b << 17
		c ^= c << 17
		d ^= d << 17
	}
	el := time.Since(start)
	spinSink += a + b + c + d
	return iters / el.Seconds() / 1e6
}

// retainedHeapMB returns the live heap in MiB, less refLoop's state.
func retainedHeapMB() float64 {
	return float64(liveHeapBytes()-refHeapBytes) / (1 << 20)
}

// liveHeapBytes forces collection and returns the live heap. Two cycles: the
// first moves sync.Pool contents to the victim cache, the second frees them,
// so pooled scratch does not count as retained.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
