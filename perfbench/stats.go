package main

import (
	"math"
	"time"
)

// histogram is a fixed-size log-bucketed latency histogram: bucket i holds
// samples in [histMin·g^i, histMin·g^(i+1)) with g = 1+histGrowth, so its
// memory is the same however many samples it takes. Failed operations are
// counted apart and rank above every success.
type histogram struct {
	counts [histBuckets]int64
	n      int64 // successful samples
	failed int64
}

const (
	histMin     = 100 * time.Nanosecond
	histGrowth  = 0.002
	histBuckets = 11600 // histMin·(1.002)^11600 ≈ 1.1e3 s
)

var histLogG = math.Log1p(histGrowth)

func (h *histogram) record(d time.Duration) {
	i := 0
	if d > histMin {
		i = int(math.Log(float64(d)/float64(histMin)) / histLogG)
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
}

func (h *histogram) fail() { h.failed++ }

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.failed += o.failed
}

// total is the sample count, failures included.
func (h *histogram) total() int64 { return h.n + h.failed }

// quantile returns the nearest-rank q-quantile in milliseconds, interpolated
// geometrically inside its bucket so that figures from separate runs are not
// quantized to bucket edges. A rank that falls among the failures reads as
// the histogram's ceiling: a failed operation is slower than any success.
func (h *histogram) quantile(q float64) float64 {
	total := h.total()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		return bucketLow(histBuckets) / 1e6
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		frac := (float64(rank-cum) - 0.5) / float64(c)
		return bucketLow(i) * math.Exp(frac*histLogG) / 1e6
	}
	return bucketLow(histBuckets) / 1e6
}

// bucketLow is bucket i's lower edge in nanoseconds.
func bucketLow(i int) float64 {
	return float64(histMin) * math.Exp(float64(i)*histLogG)
}

// mean accumulates an arithmetic mean. Per-layer figures are means, not
// medians, so that the parts of a breakdown add up to its whole.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(v float64) {
	m.sum += v
	m.n++
}

func (m *mean) addDur(d time.Duration, unit time.Duration) {
	m.add(float64(d) / float64(unit))
}

// value is the mean, or 0 when nothing was added (a layer the workload
// does not cross).
func (m *mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

func (m *mean) merge(o mean) {
	m.sum += o.sum
	m.n += o.n
}
