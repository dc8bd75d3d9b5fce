package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/schedule"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
)

// cellBreakdown times the layers under one simulated cell, called the way
// sim.Runner calls them: sim.BuildSpec (cost model + layout), the schedule
// engine's Build, and the analyzer; and, separately, the whole
// (*sim.Runner).Run. Totals are nanoseconds over every default-evaluated
// cell, so spec+build+analyze can be checked against run.
type cellBreakdown struct {
	cells                     int
	spec, build, analyze, run float64
	build1F1B, buildVHalf     mean // µs per cell
	passes, passes1F1B        mean // timeline passes per cell
	passesVHalf               mean
	ns, ns1F1B, nsVHalf       mean // build ns per timeline pass, per cell
	allocs                    float64
	solo                      float64 // ns of the runner alone over every cell
	custom                    float64 // ns spent in custom Eval cells
}

func (b cellBreakdown) perCell(ns float64) float64 {
	if b.cells == 0 {
		return 0
	}
	return ns / float64(b.cells) / 1e3
}

// fill stores the cell-level per-layer metrics.
func (b cellBreakdown) fill(m layerValues) {
	m["sim.spec_us"] = b.perCell(b.spec)
	m["schedule.build_us.1f1b"] = b.build1F1B.value()
	m["schedule.build_us.vhalf"] = b.buildVHalf.value()
	m["schedule.passes"] = b.passes.value()
	m["schedule.passes.1f1b"] = b.passes1F1B.value()
	m["schedule.passes.vhalf"] = b.passesVHalf.value()
	m["schedule.ns_per_pass"] = b.ns.value()
	m["schedule.ns_per_pass.1f1b"] = b.ns1F1B.value()
	m["schedule.ns_per_pass.vhalf"] = b.nsVHalf.value()
	m["schedule.analyze_us"] = b.perCell(b.analyze)
	m["sim.run_us"] = b.perCell(b.run)
	m["sim.allocs"] = b.allocs
}

// serialNS is the single-threaded cost of evaluating every cell once, as a
// sweep worker would: the numerator of sweep.parallel_eff.
func (b cellBreakdown) serialNS() float64 { return b.solo + b.custom }

// probeCells measures the breakdown over cells. The decomposed calls run on
// their own engine and analyzer, the whole Run on its own runner, both fed
// the same cell sequence; each cell is timed both ways back to back, so
// host drift hits the parts and the whole alike. A first untimed pass warms
// engines and runner. A last pass runs the runner alone, back to back as a
// sweep worker does, for its allocations and its serial time.
func probeCells(cells []sweep.Cell, rec *recorder, op int) cellBreakdown {
	var b cellBreakdown
	parent := rec.begin("probe.cells", 0, op, 0)
	defer rec.end(parent)

	var eng schedule.Engine
	var an schedule.Analyzer
	runner := sim.NewRunner()
	var simulated []sweep.Cell // the cells every call succeeded on
	for pass := 0; pass < 2; pass++ {
		timed := pass == 1
		for _, c := range cells {
			if c.Eval != nil {
				t0 := time.Now()
				if _, err := c.Eval(c); err == nil && timed {
					b.custom += float64(time.Since(t0))
				}
				continue
			}
			t0 := time.Now()
			spec, err := sim.BuildSpec(c.Config, c.Method)
			if err != nil {
				continue
			}
			t1 := time.Now()
			tl, err := eng.Build(spec)
			if err != nil {
				continue
			}
			t2 := time.Now()
			an.PeakMemoryBytes(tl, costmodel.RuntimeOverheadBytes)
			an.PeakInFlight(tl)
			tl.MaxBubbleRatio()
			t3 := time.Now()
			passes := float64(len(tl.Passes))
			if _, err := runner.Run(c.Config, c.Method); err != nil {
				continue
			}
			t4 := time.Now()
			if !timed {
				continue
			}
			simulated = append(simulated, c)
			b.cells++
			b.spec += float64(t1.Sub(t0))
			b.build += float64(t2.Sub(t1))
			b.analyze += float64(t3.Sub(t2))
			b.run += float64(t4.Sub(t3))
			rec.add("sim.BuildSpec", t0, t1, parent, op, 0)
			rec.add("schedule.Engine.Build", t1, t2, parent, op, 0)
			rec.add("schedule.Analyzer", t2, t3, parent, op, 0)
			rec.add("sim.Runner.Run", t3, t4, parent, op, 0)
			buildUS := float64(t2.Sub(t1)) / 1e3
			b.passes.add(passes)
			b.ns.add(buildUS * 1e3 / passes)
			if spec.Chunks == 2 {
				b.buildVHalf.add(buildUS)
				b.passesVHalf.add(passes)
				b.nsVHalf.add(buildUS * 1e3 / passes)
			} else {
				b.build1F1B.add(buildUS)
				b.passes1F1B.add(passes)
				b.ns1F1B.add(buildUS * 1e3 / passes)
			}
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for _, c := range simulated {
		if _, err := runner.Run(c.Config, c.Method); err != nil {
			panic(fmt.Sprintf("cell %s/%s failed after succeeding: %v", c.Config.Name, c.Method, err))
		}
	}
	b.solo = float64(time.Since(t0))
	runtime.ReadMemStats(&after)
	if b.cells > 0 {
		b.allocs = float64(after.Mallocs-before.Mallocs) / float64(b.cells)
	}
	return b
}

// chainRounds is how many timed rounds each build order gets.
const chainRounds = 4

// chainGainPct measures what the engine's prefix replay saves on cells: the
// time to build every cell's schedule on one warm engine in sweep's chain
// order (cells sharing method and configuration up to the microbatch count,
// ascending microbatches) against an order that interleaves the chains so
// no two consecutive builds share one. Cells without a microbatch axis form
// singleton chains, and the gain is ~0.
func chainGainPct(cells []sweep.Cell, rec *recorder, op int) float64 {
	parent := rec.begin("probe.chain_gain", 0, op, 0)
	defer rec.end(parent)
	type key struct {
		m   sim.Method
		cfg costmodel.Config
	}
	var chains [][]*schedule.Spec
	at := map[key]int{}
	for _, c := range cells {
		if c.Eval != nil {
			continue
		}
		spec, err := sim.BuildSpec(c.Config, c.Method)
		if err != nil || spec.Validate() != nil {
			continue
		}
		k := key{c.Method, c.Config}
		k.cfg.NumMicro = 0
		i, ok := at[k]
		if !ok {
			i = len(chains)
			at[k] = i
			chains = append(chains, nil)
		}
		chains[i] = append(chains[i], spec)
	}
	var chained, broken []*schedule.Spec
	for _, ch := range chains {
		sort.SliceStable(ch, func(a, b int) bool { return ch[a].M < ch[b].M })
		chained = append(chained, ch...)
	}
	for i := 0; len(broken) < len(chained); i++ {
		for _, ch := range chains {
			if i < len(ch) {
				broken = append(broken, ch[i])
			}
		}
	}
	// Each order builds on its own engine, warmed by one untimed pass. The
	// orders alternate for chainRounds rounds and each keeps its fastest
	// round, so a host stall in one round cannot decide the comparison.
	var engC, engB schedule.Engine
	bestC, bestB := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := 0; round <= chainRounds; round++ {
		for _, o := range []struct {
			name  string
			eng   *schedule.Engine
			specs []*schedule.Spec
			best  *time.Duration
		}{
			{"schedule.build.chain_order", &engC, chained, &bestC},
			{"schedule.build.broken_order", &engB, broken, &bestB},
		} {
			t0 := time.Now()
			for _, s := range o.specs {
				// Validated above, and the engine makes progress on every
				// spec the cost model generates, so Build cannot fail.
				_, _ = o.eng.Build(s)
			}
			el := time.Since(t0)
			if round > 0 {
				rec.add(o.name, t0, t0.Add(el), parent, op, 0)
				*o.best = min(*o.best, el)
			}
		}
	}
	if len(chained) == 0 {
		return 0
	}
	return 100 * float64(bestB-bestC) / float64(bestB)
}
