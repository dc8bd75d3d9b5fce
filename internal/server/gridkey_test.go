package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/experiments"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/tune"
)

// fmtGridKey is sweep.Grid.Key spelled with fmt: the reference the
// append-built key must equal byte for byte. The key is this server's cache
// identity and the cluster's placement key, so a one-byte drift would
// silently split cache entries and move shards between workers.
func fmtGridKey(g *sweep.Grid) string {
	var b strings.Builder
	b.WriteString(g.Name)
	for _, c := range g.Expand() {
		cf := c.Config
		fmt.Fprintf(&b, "|%s;%s;%s;L%d;a%d;h%d;s%d;b%d;m%d;v%d;d%d",
			c.Label, c.Method, cf.Name, cf.Layers, cf.Heads, cf.Hidden,
			cf.Seq, cf.MicroBatch, cf.NumMicro, cf.Vocab, cf.Devices)
	}
	return b.String()
}

// fmtCellLabel is sweep.CellLabel spelled with fmt; the table5 golden pins
// the labels it produces.
func fmtCellLabel(cfg costmodel.Config, m sim.Method) string {
	return fmt.Sprintf("%s/seq%d/V%dk/%s", cfg.Name, cfg.Seq, cfg.Vocab/1024, m)
}

// checkKeyAndLabels compares g's key and every expanded cell's canonical
// label with the fmt references.
func checkKeyAndLabels(t *testing.T, what string, g *sweep.Grid) {
	t.Helper()
	if got, want := g.Key(), fmtGridKey(g); got != want {
		t.Fatalf("%s: Key drifted from the fmt reference:\n got %q\nwant %q", what, got, want)
	}
	for _, c := range g.Expand() {
		if got, want := sweep.CellLabel(c.Config, c.Method), fmtCellLabel(c.Config, c.Method); got != want {
			t.Fatalf("%s: CellLabel = %q, fmt reference %q", what, got, want)
		}
		if len(g.Cells) == 0 && c.Label != fmtCellLabel(c.Config, c.Method) {
			t.Fatalf("%s: expanded label %q, fmt reference %q", what, c.Label, fmtCellLabel(c.Config, c.Method))
		}
	}
}

// TestGridKeyMatchesFmtReference pins Key and CellLabel on every paper grid
// and on every named tuning scenario's candidate cells, both as the batch
// grid a search hands its records function and one cell per grid, as an
// anneal walk's single-candidate batches are placed.
func TestGridKeyMatchesFmtReference(t *testing.T) {
	for _, name := range experiments.Names() {
		fn, _ := experiments.Grid(name)
		checkKeyAndLabels(t, "experiment "+name, fn())
	}
	for _, name := range experiments.TuneNames() {
		spec, _ := experiments.TuneSpec(name)
		// A records function that captures the batch and fails every cell
		// makes the exhaustive search enumerate the whole space without
		// simulating it.
		var batch *sweep.Grid
		records := func(_ context.Context, g *sweep.Grid, _ func(int, report.Record)) ([]report.Record, error) {
			batch = g
			recs := make([]report.Record, len(g.Cells))
			for i := range recs {
				recs[i] = report.Record{Experiment: g.Name, Label: g.Cells[i].Label, Error: "not simulated"}
			}
			return recs, nil
		}
		if _, err := tune.Search(context.Background(), spec, tune.StrategyExhaustive,
			tune.Options{Records: records}); err != nil {
			t.Fatalf("scenario %s: %v", name, err)
		}
		if batch == nil || len(batch.Cells) != spec.Defaulted().SpaceSize() {
			t.Fatalf("scenario %s: batch %v, space has %d cells", name, batch, spec.Defaulted().SpaceSize())
		}
		checkKeyAndLabels(t, "scenario "+name, batch)
		for _, c := range batch.Expand() {
			checkKeyAndLabels(t, "scenario "+name+" cell "+c.Label,
				&sweep.Grid{Name: c.Experiment, Cells: []sweep.Cell{c}})
		}
	}
}
