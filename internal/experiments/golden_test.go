package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vocabpipe/internal/schedule"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/tune"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTimelineGolden pins every schedule the paper experiments and the tuner
// build: one line of testdata/timelines.golden per cell of the six paper
// grids and per candidate of the four named tuning scenarios, holding the
// sha256 of the cell's passes in commit order (type, device, chunk, micro,
// start and end bits) and its makespan bits, or the cell's error. Each cell
// is built twice, cold on a throwaway engine and warm in sweep's chain
// order on one engine (sweep.Run with one worker), and the two must hash
// equal, so a refactor of the engine keeps the commit order and every pass
// time of every schedule, with and without prefix replay. Regenerate with
// `go test ./internal/experiments -run Golden -update` after an intended
// change.
func TestTimelineGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range Names() {
		grid, _ := Grid(name)
		hashGrid(t, &buf, grid())
	}
	for _, name := range TuneNames() {
		spec, _ := TuneSpec(name)
		hashGrid(t, &buf, candidateGrid(spec))
	}

	golden := filepath.Join("testdata", "timelines.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("timelines deviate from %s (rerun with -update if the change is intended):\n%s", golden, buf.Bytes())
	}
}

// candidateGrid is the grid an exhaustive search of spec evaluates: one
// cell per candidate, methods × devices × micros over the defaulted axes.
func candidateGrid(spec *tune.Spec) *sweep.Grid {
	d := spec.Defaulted()
	g := &sweep.Grid{Name: "tune/" + d.Name}
	for _, m := range d.Methods {
		for _, dev := range d.Devices {
			for _, micro := range d.Micros {
				cfg := d.Base
				cfg.Devices, cfg.NumMicro = dev, micro
				c := tune.Candidate{Method: m, Devices: dev, Micro: micro}
				g.Cells = append(g.Cells, sweep.Cell{Label: c.Label(), Config: cfg, Method: m})
			}
		}
	}
	return g
}

// hashGrid writes one line per cell of g, in expansion order, after
// checking that the warm and cold builds of the cell agree.
func hashGrid(t *testing.T, buf *bytes.Buffer, g *sweep.Grid) {
	t.Helper()
	g.KeepTimelines = true
	warm := sweep.Run(g, sweep.Options{Parallel: 1})
	for _, c := range warm.Cells {
		tl, err := coldBuild(c.Cell)
		if err != nil {
			if c.Err == nil {
				t.Fatalf("%s %s: cold build failed (%v), warm build did not", g.Name, c.Label, err)
			}
			fmt.Fprintf(buf, "%s %s error %v\n", g.Name, c.Label, err)
			continue
		}
		if c.Err != nil {
			t.Fatalf("%s %s: warm build failed (%v), cold build did not", g.Name, c.Label, c.Err)
		}
		sum := timelineSum(tl)
		if w := timelineSum(c.Result.Timeline); w != sum {
			t.Fatalf("%s %s: warm timeline hashes %x, cold %x", g.Name, c.Label, w, sum)
		}
		fmt.Fprintf(buf, "%s %s passes=%d sha256=%x\n", g.Name, c.Label, len(tl.Passes), sum)
	}
}

// coldBuild builds the cell's timeline on a throwaway engine: its own
// evaluator for a custom cell, else schedule.Build of its spec.
func coldBuild(c sweep.Cell) (*schedule.Timeline, error) {
	if c.Eval != nil {
		r, err := c.Eval(c)
		if err != nil {
			return nil, err
		}
		return r.Timeline, nil
	}
	spec, err := sim.BuildSpec(c.Config, c.Method)
	if err != nil {
		return nil, err
	}
	return schedule.Build(spec)
}

// timelineSum hashes the timeline's passes in commit order, then its
// makespan, as little-endian 64-bit words.
func timelineSum(tl *schedule.Timeline) [sha256.Size]byte {
	b := make([]byte, 0, 48*len(tl.Passes)+8)
	for _, p := range tl.Passes {
		for _, v := range [...]uint64{uint64(p.Type), uint64(p.Device), uint64(p.Chunk), uint64(p.Micro),
			math.Float64bits(p.Start), math.Float64bits(p.End)} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	return sha256.Sum256(binary.LittleEndian.AppendUint64(b, math.Float64bits(tl.Makespan)))
}
