package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"vocabpipe/internal/experiments"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sweep"
)

// goldenPath is the committed `vpbench -json table5` output, relative to the
// repository root the benchmark runs from.
const goldenPath = "cmd/vpbench/testdata/table5.golden.json"

// paperGrids runs the six grid-backed paper experiments back to back, the
// `vpbench -json` path: sweep.RunCtx on the default pool, Results.Records,
// report.WriteJSON. One op is one pass over all six grids. The inputs are
// the paper's fixed grids; the seed does not change them.
type paperGrids struct {
	names []string
	grids []func() *sweep.Grid
	refs  [][]byte // expected JSON per grid

	// Traced-window accumulators, per grid call.
	key, records, encode mean // µs
	runWall              mean // ns of sweep.RunCtx per pass
}

func setupPaperGrids(int64) (instance, error) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("paper-grids: reading the table5 golden: %w", err)
	}
	p := &paperGrids{}
	for _, name := range experiments.Names() {
		fn, _ := experiments.Grid(name)
		// The reference is the serial sweep; the window's parallel sweeps
		// must reproduce it byte for byte.
		res := sweep.Run(fn(), sweep.Options{Parallel: 1})
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, res.Records()); err != nil {
			return nil, err
		}
		if errs := res.Errs(); len(errs) > 0 {
			return nil, fmt.Errorf("paper-grids: %s: %v", name, errs[0])
		}
		ref := buf.Bytes()
		if name == "table5" {
			if !bytes.Equal(ref, golden) {
				return nil, fmt.Errorf("paper-grids: serial table5 differs from %s", goldenPath)
			}
			ref = golden
		}
		p.names = append(p.names, name)
		p.grids = append(p.grids, fn)
		p.refs = append(p.refs, ref)
	}
	return p, nil
}

func (p *paperGrids) close() {}

func (p *paperGrids) window(d time.Duration, rec *recorder) windowResult {
	p.key, p.records, p.encode, p.runWall = mean{}, mean{}, mean{}, mean{}
	w := windowResult{lat: &histogram{}}
	var buf bytes.Buffer
	start := time.Now()
	var excluded time.Duration // refLoop samples
	for w.ops == 0 || time.Since(start)-excluded < d {
		excluded += w.clock.tick()
		w.ops++
		opStart := time.Now()
		opSpan := rec.begin("paper-grids.pass", 0, w.ops, 0)
		ok := true
		var wall time.Duration
		for i, fn := range p.grids {
			gs := rec.begin("grid "+p.names[i], opSpan, w.ops, 0)
			g := fn()
			if rec != nil {
				ks := rec.begin("sweep.Grid.Key", gs, w.ops, 0)
				g.Key()
				p.key.addDur(rec.end(ks), time.Microsecond)
			}
			t0 := time.Now()
			rs := rec.begin("sweep.RunCtx", gs, w.ops, 0)
			res, err := sweep.RunCtx(context.Background(), g, sweep.Options{})
			rec.end(rs)
			wall += time.Since(t0)
			cs := rec.begin("sweep.Results.Records", gs, w.ops, 0)
			recs := res.Records()
			if d := rec.end(cs); rec != nil {
				p.records.addDur(d, time.Microsecond)
			}
			buf.Reset()
			es := rec.begin("report.WriteJSON", gs, w.ops, 0)
			werr := report.WriteJSON(&buf, recs)
			if d := rec.end(es); rec != nil {
				p.encode.addDur(d, time.Microsecond)
			}
			rec.end(gs)
			if err != nil || werr != nil || !bytes.Equal(buf.Bytes(), p.refs[i]) {
				ok = false
			}
			w.cells += len(recs)
		}
		rec.end(opSpan)
		p.runWall.add(float64(wall))
		if ok {
			w.lat.record(time.Since(opStart))
		} else {
			w.failed++
			w.lat.fail()
		}
	}
	w.elapsed = time.Since(start) - excluded
	w.heapMB = retainedHeapMB()
	return w
}

func (p *paperGrids) layers(rec *recorder, m layerValues) int {
	var cells []sweep.Cell
	for _, fn := range p.grids {
		cells = append(cells, fn().Expand()...)
	}
	b := probeCells(cells, rec, 0)
	b.fill(m)
	m["sweep.key_us"] = p.key.value()
	m["sweep.records_us"] = p.records.value()
	m["report.encode_us"] = p.encode.value()
	if wall := p.runWall.value(); wall > 0 {
		m["sweep.parallel_eff"] = b.serialNS() / (wall * float64(runtime.GOMAXPROCS(0)))
	}
	m["schedule.chain_gain_pct"] = chainGainPct(cells, rec, 0)
	return 0
}
