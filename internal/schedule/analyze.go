package schedule

import "fmt"

// Analyzer computes timeline metrics with reusable scratch, so a hot sweep
// loop (sim.Runner) measures thousands of timelines without allocating.
// Each method's returned slices alias the analyzer's scratch and are valid
// until the analyzer's next call; the Timeline convenience methods use a
// throwaway analyzer, so their results are always caller-owned.
//
// An acquisition is a pass that pins memory: an F pins its stage's ActBytes
// until the same stage's B ends, a vocabulary S pins its transient until the
// device's T of that microbatch ends, and an interlaced V pins its transient
// until it ends itself. A stream is one kind of pinned memory on a device:
// one per model chunk, plus one for the vocab or interlaced transient. Every
// release is a pass on the acquiring device, and the peak walk rests on two
// facts the engine guarantees:
//
//   - a device runs one pass at a time, so pass ends never decrease along
//     ByDevice: a cursor that advances while a pass ends at or before an
//     acquisition's start has counted exactly the releases due by then;
//   - passes of one type run in microbatch order on each device, so a
//     stream releases in acquisition order and its k-th release frees its
//     k-th acquisition.
//
// So each device's metrics come from one ordered pass over its row,
// counting releases per stream instead of storing release times.
type Analyzer struct {
	acts, mem []float64
	inflight  []int
}

// walkRow walks one device's passes in execution order, once, and returns
// three metrics of the row:
//
//   - peak: the largest total pinned at any acquisition's start. size[c] is
//     what an F of chunk c pins and size[chunks] is the S or V transient
//     (Spec.Validate allows at most two chunks, so three streams cover every
//     spec). Zero-size acquisitions are skipped, so they never settle
//     releases early. A release at exactly an acquisition's start settles
//     first, and a pass never releases at its own acquisition: releases
//     settle before the acquisition is counted. Released sizes are added one
//     at a time, stream by stream, in a fixed order, so the float result is
//     reproducible bit for bit.
//   - peakIF: the largest number of in-flight microbatches (F started, B not
//     ended) at any F's start, counting that F, summed across chunks.
//   - busy: the sum of the row's pass durations, added in row order as
//     Timeline.DeviceBusy adds them.
func walkRow(row []TimedPass, chunks int, size [3]float64) (peak float64, peakIF int, busy float64) {
	var acquired, due, settled [3]int
	var started [2]int // F passes per chunk, whatever their size
	cur := 0.0
	j := 0
	for i := range row {
		p := &row[i]
		busy += p.End - p.Start
		s := p.Chunk
		switch p.Type {
		case PassF:
		case PassS, PassV:
			s = chunks
			if size[s] == 0 {
				continue
			}
		default:
			continue
		}
		for ; j < len(row) && row[j].End <= p.Start; j++ {
			switch row[j].Type {
			case PassB:
				due[row[j].Chunk]++
			case PassT, PassV:
				due[chunks]++
			}
		}
		if p.Type == PassF {
			n := 1
			for k := 0; k < chunks; k++ {
				n += started[k] - min(started[k], due[k])
			}
			started[s]++
			peakIF = max(peakIF, n)
		}
		if size[s] == 0 {
			continue
		}
		freed := 0.0
		for k := 0; k <= chunks; k++ {
			for n := min(acquired[k], due[k]); settled[k] < n; settled[k]++ {
				freed += size[k]
			}
		}
		cur -= freed
		cur += size[s]
		acquired[s]++
		if cur > peak {
			peak = cur
		}
	}
	return peak, peakIF, busy
}

// walk measures every device row of tl once: it fills a.acts with peak
// activation bytes and a.inflight with peak in-flight counts, and returns
// the worst per-device bubble ratio (Timeline.MaxBubbleRatio).
func (a *Analyzer) walk(tl *Timeline) float64 {
	spec := tl.Spec
	a.acts = growF(a.acts, spec.P)
	a.inflight = growI(a.inflight, spec.P)
	var size [3]float64
	switch {
	case spec.Vocab != nil:
		size[spec.Chunks] = spec.Vocab.ActBytes
	case spec.Interlaced != nil:
		size[spec.Chunks] = spec.Interlaced.ActBytes
	}
	worst := 0.0
	for d := range a.acts {
		for c := 0; c < spec.Chunks; c++ {
			size[c] = spec.Stages[spec.StageOf(d, c)].ActBytes
		}
		var busy float64
		a.acts[d], a.inflight[d], busy = walkRow(tl.ByDevice[d], spec.Chunks, size)
		if r := bubbleRatio(busy, tl.Makespan); r > worst {
			worst = r
		}
	}
	return worst
}

// Measure is PeakMemoryBytes, PeakInFlight and Timeline.MaxBubbleRatio
// from one walk over each device row, with results equal to theirs bit for
// bit. Both slices alias the analyzer's scratch.
func (a *Analyzer) Measure(tl *Timeline, overhead float64) (mem []float64, inflight []int, worstBubble float64) {
	worstBubble = a.walk(tl)
	return a.memory(tl, overhead), a.inflight, worstBubble
}

// PeakActivationBytes returns the per-device peak activation memory measured
// from the timeline: each microbatch pins its stage's ActBytes from F start
// to B end, and vocabulary/interlaced segments pin their transient buffers
// from S (or V) start to T (or V) end. The result aliases the analyzer's
// scratch.
func (a *Analyzer) PeakActivationBytes(tl *Timeline) []float64 {
	a.walk(tl)
	return a.acts
}

// PeakInFlight returns, per device, the maximum number of simultaneously
// in-flight microbatches (F started, B not finished), summed across chunks.
// For 1F1B this is p−d; the paper's Fig 10 caption states p+2 for Algorithm 1
// and p+1 for Algorithm 2 on device 0. The result aliases the analyzer's
// scratch.
func (a *Analyzer) PeakInFlight(tl *Timeline) []int {
	a.walk(tl)
	return a.inflight
}

// PeakMemoryBytes returns per-device peak memory: parameters + measured peak
// activations + static extras + the supplied constant overhead. The result
// aliases the analyzer's scratch.
func (a *Analyzer) PeakMemoryBytes(tl *Timeline, overhead float64) []float64 {
	a.walk(tl)
	return a.memory(tl, overhead)
}

// memory turns the walked peak activations into per-device peak memory.
func (a *Analyzer) memory(tl *Timeline, overhead float64) []float64 {
	a.mem = growF(a.mem, tl.Spec.P)
	for d := range a.mem {
		a.mem[d] = tl.DeviceParamBytes(d) + a.acts[d] + tl.DeviceExtraActBytes(d) + overhead
	}
	return a.mem
}

// growF resizes a float scratch slice to n zeroed entries, reusing capacity.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// growI resizes an int scratch slice to n zeroed entries, reusing capacity.
func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// PeakActivationBytes is the convenience form of Analyzer.PeakActivationBytes
// with a throwaway analyzer; the result is caller-owned.
func (tl *Timeline) PeakActivationBytes() []float64 {
	var a Analyzer
	return a.PeakActivationBytes(tl)
}

// PeakInFlight is the convenience form of Analyzer.PeakInFlight with a
// throwaway analyzer; the result is caller-owned.
func (tl *Timeline) PeakInFlight() []int {
	var a Analyzer
	return a.PeakInFlight(tl)
}

// PeakMemoryBytes is the convenience form of Analyzer.PeakMemoryBytes with a
// throwaway analyzer; the result is caller-owned.
func (tl *Timeline) PeakMemoryBytes(overhead float64) []float64 {
	var a Analyzer
	return a.PeakMemoryBytes(tl, overhead)
}

// DeviceParamBytes sums the static parameter footprint of a device's stages.
func (tl *Timeline) DeviceParamBytes(d int) float64 {
	spec := tl.Spec
	total := 0.0
	for c := 0; c < spec.Chunks; c++ {
		total += spec.Stages[spec.StageOf(d, c)].ParamBytes
	}
	return total
}

// DeviceExtraActBytes sums static extra activation charges of a device.
func (tl *Timeline) DeviceExtraActBytes(d int) float64 {
	spec := tl.Spec
	total := 0.0
	for c := 0; c < spec.Chunks; c++ {
		total += spec.Stages[spec.StageOf(d, c)].ExtraActBytes
	}
	return total
}

// Validate checks the committed timeline for dependency violations; it is
// used by tests to prove the constructor honors the paper's constraints
// (§5.1) rather than assuming them.
func (tl *Timeline) Validate() error {
	spec := tl.Spec
	fEnd := make([][]float64, spec.NumStages())
	bStart := make([][]float64, spec.NumStages())
	bEnd := make([][]float64, spec.NumStages())
	sStart := make([][]float64, spec.P)
	sEnd := make([][]float64, spec.P)
	tStart := make([][]float64, spec.P)
	tEnd := make([][]float64, spec.P)
	fStart := make([][]float64, spec.NumStages())
	vEnd := make([][]float64, spec.P)
	for i := 0; i < spec.NumStages(); i++ {
		fEnd[i] = make([]float64, spec.M)
		fStart[i] = make([]float64, spec.M)
		bStart[i] = make([]float64, spec.M)
		bEnd[i] = make([]float64, spec.M)
	}
	for i := 0; i < spec.P; i++ {
		sStart[i] = make([]float64, spec.M)
		sEnd[i] = make([]float64, spec.M)
		tStart[i] = make([]float64, spec.M)
		tEnd[i] = make([]float64, spec.M)
		vEnd[i] = make([]float64, spec.M)
	}
	counts := map[PassType]int{}
	for _, p := range tl.Passes {
		counts[p.Type]++
		switch p.Type {
		case PassF:
			st := spec.StageOf(p.Device, p.Chunk)
			fStart[st][p.Micro], fEnd[st][p.Micro] = p.Start, p.End
		case PassB:
			st := spec.StageOf(p.Device, p.Chunk)
			bStart[st][p.Micro], bEnd[st][p.Micro] = p.Start, p.End
		case PassS:
			sStart[p.Device][p.Micro], sEnd[p.Device][p.Micro] = p.Start, p.End
		case PassT:
			tStart[p.Device][p.Micro], tEnd[p.Device][p.Micro] = p.Start, p.End
		case PassV:
			vEnd[p.Device][p.Micro] = p.End
		}
	}
	if counts[PassF] != spec.NumStages()*spec.M || counts[PassB] != spec.NumStages()*spec.M {
		return errf("missing F/B passes: %d/%d of %d", counts[PassF], counts[PassB], spec.NumStages()*spec.M)
	}
	last := spec.NumStages() - 1
	const tol = 1e-9
	for i := 0; i < spec.M; i++ {
		for st := 1; st < spec.NumStages(); st++ {
			if fStart[st][i]+tol < fEnd[st-1][i]+spec.SendTime {
				return errf("F(stage %d, mb %d) starts %.6g before upstream F ends %.6g", st, i, fStart[st][i], fEnd[st-1][i])
			}
		}
		for st := 0; st < last; st++ {
			if bStart[st][i]+tol < bEnd[st+1][i]+spec.SendTime {
				return errf("B(stage %d, mb %d) starts before downstream B ends", st, i)
			}
		}
		for st := 0; st < spec.NumStages(); st++ {
			if bStart[st][i]+tol < fEnd[st][i] {
				return errf("B(stage %d, mb %d) starts before its own F ends", st, i)
			}
		}
		if v := spec.Vocab; v != nil {
			maxS, maxT := 0.0, 0.0
			for d := 0; d < spec.P; d++ {
				if sStart[d][i]+tol < fEnd[last][i]+v.BcastTime {
					return errf("S(dev %d, mb %d) starts before last-stage F + broadcast", d, i)
				}
				if sEnd[d][i] > maxS {
					maxS = sEnd[d][i]
				}
				if tEnd[d][i] > maxT {
					maxT = tEnd[d][i]
				}
			}
			for d := 0; d < spec.P; d++ {
				if tStart[d][i]+tol < maxS+v.C1Time {
					return errf("T(dev %d, mb %d) starts before barrier C1", d, i)
				}
			}
			switch v.Barriers {
			case 2:
				if bStart[last][i]+tol < maxT+v.C2Time {
					return errf("B(last, mb %d) starts before barrier C2 (Algorithm 1)", i)
				}
			case 1:
				if bStart[last][i]+tol < maxS+v.C1Time+v.C2Time {
					return errf("B(last, mb %d) starts before C1+∇X reduce (Algorithm 2)", i)
				}
			}
		}
		if spec.Interlaced != nil {
			maxV := 0.0
			for d := 0; d < spec.P; d++ {
				if vEnd[d][i] > maxV {
					maxV = vEnd[d][i]
				}
			}
			if bStart[last][i]+tol < maxV {
				return errf("B(last, mb %d) starts before interlaced vocab segment completes", i)
			}
		}
	}
	// No overlapping passes on a device's compute stream.
	for d, ps := range tl.ByDevice {
		for k := 1; k < len(ps); k++ {
			if ps[k].Start+tol < ps[k-1].End {
				return errf("device %d: pass %v overlaps previous", d, ps[k].Pass)
			}
		}
	}
	return nil
}

func errf(format string, args ...any) error { return fmt.Errorf("schedule: "+format, args...) }
