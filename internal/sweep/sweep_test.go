package sweep

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sim"
)

// tinyConfig is a small, fast configuration for engine tests.
func tinyConfig() costmodel.Config {
	return costmodel.Config{Name: "tiny", Devices: 4, Layers: 8, Heads: 4,
		Hidden: 256, Seq: 128, MicroBatch: 1, NumMicro: 8, Vocab: 8 * 1024}
}

func tinyGrid() *Grid {
	return &Grid{
		Name:    "tiny",
		Configs: []costmodel.Config{tinyConfig()},
		Seqs:    []int{128, 256},
		Vocabs:  []int{4 * 1024, 8 * 1024},
		Methods: sim.OneF1BMethods,
	}
}

func TestExpandCrossProduct(t *testing.T) {
	g := tinyGrid()
	cells := g.Expand()
	if want := 1 * 2 * 2 * len(sim.OneF1BMethods); len(cells) != want {
		t.Fatalf("Expand: got %d cells, want %d", len(cells), want)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if c.Experiment != "tiny" {
			t.Errorf("cell %q: experiment %q, want tiny", c.Label, c.Experiment)
		}
		if seen[c.Label] {
			t.Errorf("duplicate label %q", c.Label)
		}
		seen[c.Label] = true
	}
	if want := "tiny/seq128/V4k/baseline"; cells[0].Label != want {
		t.Errorf("first label %q, want %q", cells[0].Label, want)
	}
}

func TestExpandDefaultsAxesToConfig(t *testing.T) {
	g := &Grid{Name: "g", Configs: []costmodel.Config{tinyConfig()}, Methods: []sim.Method{sim.Baseline}}
	cells := g.Expand()
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(cells))
	}
	if cells[0].Config.Seq != 128 || cells[0].Config.Vocab != 8*1024 {
		t.Errorf("empty axes should keep the config's seq/vocab, got %+v", cells[0].Config)
	}
}

// TestNumCellsMatchesExpand pins NumCells to the length of Expand on the
// grid shapes Expand distinguishes: explicit cells, defaulted axes, full
// axes and an axis with no values.
func TestNumCellsMatchesExpand(t *testing.T) {
	tiny := tinyGrid()
	for name, g := range map[string]*Grid{
		"axes":       tiny,
		"defaulted":  {Name: "g", Configs: []costmodel.Config{tinyConfig()}, Methods: []sim.Method{sim.Baseline}},
		"explicit":   {Name: "e", Cells: tiny.Expand()[:3], Configs: tiny.Configs, Methods: sim.AllMethods},
		"no methods": {Name: "m", Configs: tiny.Configs, Seqs: tiny.Seqs},
		"no configs": {Name: "c", Methods: sim.AllMethods},
	} {
		if got, want := g.NumCells(), len(g.Expand()); got != want {
			t.Errorf("%s: NumCells = %d, Expand has %d cells", name, got, want)
		}
	}
}

// TestNumCellsSaturates pins the overflow guard: four 65,536-entry axes
// multiply to 2^64, which a plain int product wraps to 0 — a size guard
// reading 0 would pass the grid and Expand would run until memory ran out.
// NumCells must saturate at math.MaxInt instead, and an empty method axis
// still makes the product 0 however large the other axes are.
func TestNumCellsSaturates(t *testing.T) {
	const n = 1 << 16
	g := &Grid{
		Configs: make([]costmodel.Config, n),
		Seqs:    make([]int, n),
		Vocabs:  make([]int, n),
		Methods: make([]sim.Method, n),
	}
	if got := g.NumCells(); got != math.MaxInt {
		t.Errorf("NumCells of four %d-entry axes = %d, want math.MaxInt (%d)", n, got, math.MaxInt)
	}
	g.Methods = nil
	if got := g.NumCells(); got != 0 {
		t.Errorf("NumCells with no methods = %d, want 0", got)
	}
}

// TestDeterministicOrder proves result order and content are identical
// regardless of worker count.
func TestDeterministicOrder(t *testing.T) {
	g := tinyGrid()
	var baseline []report.Record
	for _, workers := range []int{1, 2, 4, 16} {
		res := Run(g, Options{Parallel: workers})
		if len(res.Cells) != len(g.Expand()) {
			t.Fatalf("parallel=%d: %d results, want %d", workers, len(res.Cells), len(g.Expand()))
		}
		for i, c := range res.Cells {
			if c.Index != i {
				t.Fatalf("parallel=%d: cell %d has index %d", workers, i, c.Index)
			}
			if c.Err != nil {
				t.Fatalf("parallel=%d: cell %q failed: %v", workers, c.Label, c.Err)
			}
		}
		recs := res.Records()
		if baseline == nil {
			baseline = recs
			continue
		}
		if !reflect.DeepEqual(recs, baseline) {
			t.Fatalf("parallel=%d: records differ from parallel=1", workers)
		}
	}
}

// TestPerCellErrorCapture proves a failing cell reports its own error while
// the rest of the grid completes.
func TestPerCellErrorCapture(t *testing.T) {
	bad := tinyConfig()
	bad.Layers = 7 // not divisible by 4 stages: layout.Baseline errors
	g := &Grid{
		Name:    "mixed",
		Configs: []costmodel.Config{tinyConfig(), bad},
		Methods: []sim.Method{sim.Baseline},
	}
	res := Run(g, Options{Parallel: 4})
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	if res.Cells[0].Err != nil || res.Cells[0].Result == nil {
		t.Errorf("good cell: err=%v result=%v", res.Cells[0].Err, res.Cells[0].Result)
	}
	if res.Cells[1].Err == nil || !strings.Contains(res.Cells[1].Err.Error(), "not divisible") {
		t.Errorf("bad cell: err=%v, want a layout error", res.Cells[1].Err)
	}
	if errs := res.Errs(); len(errs) != 1 {
		t.Errorf("Errs: got %d, want 1", len(errs))
	}
	rec := res.Records()[1]
	if rec.Error == "" {
		t.Errorf("bad cell's record has no error: %+v", rec)
	}
}

// TestPanicCapture proves a panicking evaluator becomes a per-cell error.
func TestPanicCapture(t *testing.T) {
	g := &Grid{Name: "p", Cells: []Cell{
		{Label: "boom", Eval: func(Cell) (*sim.Result, error) { panic("kaboom") }},
		{Label: "ok", Eval: func(Cell) (*sim.Result, error) { return &sim.Result{IterTime: 1}, nil }},
	}}
	res := Run(g, Options{Parallel: 2})
	if err := res.Cells[0].Err; err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panic cell: err=%v, want panic capture", err)
	}
	if res.Cells[1].Err != nil || res.Cells[1].Result.IterTime != 1 {
		t.Errorf("ok cell damaged by sibling panic: %+v", res.Cells[1])
	}
}

// TestProgressCallback proves OnCell fires once per cell and the done
// values cover 1..total exactly.
func TestProgressCallback(t *testing.T) {
	g := tinyGrid()
	total := len(g.Expand())
	// OnCell may run concurrently and observe done values out of order; the
	// surviving guarantee is unique coverage of 1..total. Callbacks bring
	// their own lock.
	var mu sync.Mutex
	var dones []int
	res := Run(g, Options{Parallel: 4, OnCell: func(done, tot int, r CellResult) {
		if tot != total {
			t.Errorf("OnCell total=%d, want %d", tot, total)
		}
		mu.Lock()
		dones = append(dones, done)
		mu.Unlock()
	}})
	if len(dones) != total {
		t.Fatalf("OnCell fired %d times, want %d", len(dones), total)
	}
	sort.Ints(dones)
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("OnCell done values %v do not cover 1..%d", dones, total)
		}
	}
	_ = res
}

// TestSlowOnCellDoesNotSerializePool pins the callback-concurrency fix:
// OnCell used to be invoked while holding the done-counter mutex, so one
// slow callback (a terminal render, a network push) stalled every worker.
// Now the counter is snapshotted under the lock and the callback runs
// outside it — so with 4 workers and a deliberately slow callback, callbacks
// must overlap in time. Run under -race in CI, this also proves the
// snapshot hand-off is clean.
func TestSlowOnCellDoesNotSerializePool(t *testing.T) {
	g := tinyGrid()
	total := len(g.Expand())
	var active, peak, calls atomic.Int32
	res := Run(g, Options{Parallel: 4, OnCell: func(done, tot int, r CellResult) {
		calls.Add(1)
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(30 * time.Millisecond)
		active.Add(-1)
	}})
	if got := int(calls.Load()); got != total {
		t.Fatalf("OnCell fired %d times, want %d", got, total)
	}
	if errs := res.Errs(); len(errs) > 0 {
		t.Fatalf("sweep errors: %v", errs[0])
	}
	if peak.Load() < 2 {
		t.Fatalf("slow callbacks never overlapped (peak concurrency %d): OnCell is serializing the pool", peak.Load())
	}
}

func TestCustomEvalAndKeepTimelines(t *testing.T) {
	g := &Grid{
		Name:          "keep",
		Configs:       []costmodel.Config{tinyConfig()},
		Methods:       []sim.Method{sim.Baseline, sim.Vocab1},
		KeepTimelines: true,
	}
	res := Run(g, Options{Parallel: 1})
	for _, c := range res.Cells {
		if c.Result.Timeline == nil {
			t.Errorf("cell %q: timeline dropped despite KeepTimelines", c.Label)
		}
	}
	g.KeepTimelines = false
	res = Run(g, Options{Parallel: 1})
	for _, c := range res.Cells {
		if c.Result.Timeline != nil {
			t.Errorf("cell %q: timeline retained without KeepTimelines", c.Label)
		}
	}
}

func TestGetAndMustGet(t *testing.T) {
	g := &Grid{Name: "g", Configs: []costmodel.Config{tinyConfig()}, Methods: []sim.Method{sim.Baseline}}
	res := Run(g, Options{})
	label := CellLabel(tinyConfig(), sim.Baseline)
	if res.Get(label) == nil {
		t.Fatalf("Get(%q) = nil", label)
	}
	if res.Get("nope") != nil {
		t.Errorf("Get(nope) should be nil")
	}
	if r := res.MustGet(label); r == nil || r.IterTime <= 0 {
		t.Errorf("MustGet returned %+v", r)
	}
	mustPanic(t, func() { res.MustGet("nope") })

	failing := &Grid{Name: "f", Cells: []Cell{
		{Label: "bad", Eval: func(Cell) (*sim.Result, error) { return nil, errors.New("nope") }},
	}}
	fres := Run(failing, Options{})
	mustPanic(t, func() { fres.MustGet("bad") })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	fn()
}

// TestRecordsStableBytes proves the JSON emitter is byte-stable across runs
// and worker counts — the property vpbench's golden test relies on.
func TestRecordsStableBytes(t *testing.T) {
	g := tinyGrid()
	var first []byte
	for _, workers := range []int{1, 8} {
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, Run(g, Options{Parallel: workers}).Records()); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("JSON output differs between worker counts")
		}
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("model=4B;seq=2048,4096;vocab=32k,65536;method=vocab-1,vocab-2;micro=16")
	if err != nil {
		t.Fatal(err)
	}
	cells := g.Expand()
	if len(cells) != 2*2*2 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	for _, c := range cells {
		if c.Config.NumMicro != 16 {
			t.Errorf("cell %q: NumMicro=%d, want 16", c.Label, c.Config.NumMicro)
		}
	}
	if cells[0].Config.Vocab != 32*1024 || cells[1].Config.Vocab != 32*1024 {
		t.Errorf("vocab k-suffix not applied: %+v", cells[0].Config)
	}

	if g, err := ParseGrid("model=4B"); err != nil {
		t.Errorf("methods should default to all: %v", err)
	} else if len(g.Methods) != len(sim.AllMethods) {
		t.Errorf("default methods = %v", g.Methods)
	}

	for _, bad := range []string{
		"",                                  // no model
		"seq=2048",                          // no model
		"model=999B",                        // unknown model
		"model=4B;method=nope",              // unknown method
		"model=4B;turbo=1",                  // unknown key
		"model=4B;seq=zero",                 // bad int
		"model=4B;vocab=-1",                 // negative
		"model=4B;micro=1,2",                // multi-valued micro
		"model=4B,bananas",                  // one good, one bad model
		"model=4B;seq",                      // not key=value
		"model=4B;vocab=18014398509481985k", // (2^54+1)·1024 wraps to 1024
		"model=4B;vocab=9007199254740993k",  // (2^53+1)·1024 wraps negative
	} {
		if _, err := ParseGrid(bad); err == nil {
			t.Errorf("ParseGrid(%q) should fail", bad)
		}
	}

	// Method groups expand.
	g, err = ParseGrid("model=7B;method=vhalf")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Methods, sim.VHalfMethods) {
		t.Errorf("vhalf group = %v", g.Methods)
	}
}

// TestParseGridDeviceOverrideErrorsPerCell proves an invalid devices
// override reports per-cell rather than failing the grid.
func TestParseGridDeviceOverrideErrorsPerCell(t *testing.T) {
	g, err := ParseGrid("model=4B;devices=7;method=baseline") // 32 layers % 7 != 0
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, Options{Parallel: 2})
	if len(res.Cells) != 1 || res.Cells[0].Err == nil {
		t.Fatalf("want one failing cell, got %+v", res.Cells)
	}
}

func BenchmarkSweepTinyGrid(b *testing.B) {
	g := tinyGrid()
	for i := 0; i < b.N; i++ {
		res := Run(g, Options{})
		if errs := res.Errs(); len(errs) > 0 {
			b.Fatal(errs[0])
		}
	}
}

// TestRunCtxCancelMidFlight cancels the context after the first cell
// completes and proves the engine stops evaluating: no further Eval calls,
// every unevaluated cell marked with the context error, and RunCtx
// returning it. Parallel=1 makes the cut point deterministic.
func TestRunCtxCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	eval := func(c Cell) (*sim.Result, error) {
		evals++
		cancel() // the client disconnects while cell "a" is being served
		return &sim.Result{IterTime: 1}, nil
	}
	g := &Grid{Name: "cancel", Cells: []Cell{
		{Label: "a", Eval: eval}, {Label: "b", Eval: eval}, {Label: "c", Eval: eval}, {Label: "d", Eval: eval},
	}}
	res, err := RunCtx(ctx, g, Options{Parallel: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
	if evals != 1 {
		t.Fatalf("evaluated %d cells after cancellation, want 1", evals)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("partial results dropped: %d cells", len(res.Cells))
	}
	if res.Cells[0].Err != nil || res.Cells[0].Result == nil {
		t.Errorf("completed cell = %+v", res.Cells[0])
	}
	for _, c := range res.Cells[1:] {
		if c.Err == nil || !errors.Is(c.Err, context.Canceled) {
			t.Errorf("cell %q error = %v, want wrapped context.Canceled", c.Label, c.Err)
		}
	}
}

// TestRunCtxPreCancelled: a dead context evaluates nothing at all.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := &Grid{Name: "tiny", Cells: tinyGrid().Expand()}
	for i := range g.Cells {
		g.Cells[i].Eval = func(c Cell) (*sim.Result, error) {
			t.Error("cell evaluated under a pre-cancelled context")
			return nil, nil
		}
	}
	res, err := RunCtx(ctx, g, Options{Parallel: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	for _, c := range res.Cells {
		if !errors.Is(c.Err, context.Canceled) {
			t.Fatalf("cell %q error = %v", c.Label, c.Err)
		}
	}
}

// TestRunCtxPartialResultsCellByCell pins the package's cancellation
// contract cell by cell under a parallel run: after a mid-grid cancel,
// every cell is classified as either completed (Result set, no error) or
// skipped (zero Result, error wrapping both ErrSkipped and the context
// error) — never both, never neither — and the cells that finished before
// the cancellation are genuinely present in the partial results.
func TestRunCtxPartialResultsCellByCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total, cancelAfter = 12, 3
	cells := make([]Cell, total)
	for i := range cells {
		cells[i] = Cell{Label: string(rune('a' + i)), Eval: func(c Cell) (*sim.Result, error) {
			return &sim.Result{IterTime: 1}, nil
		}}
	}
	g := &Grid{Name: "partial", Cells: cells}
	res, err := RunCtx(ctx, g, Options{Parallel: 2, OnCell: func(done, _ int, _ CellResult) {
		if done == cancelAfter {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
	if len(res.Cells) != total {
		t.Fatalf("got %d cell results, want %d (partial results must keep every cell)", len(res.Cells), total)
	}
	completed, skipped := 0, 0
	for _, c := range res.Cells {
		switch {
		case c.Err == nil && c.Result != nil:
			completed++
		case c.Err != nil && c.Result == nil:
			// Skipped cells are zero apart from identity + the typed error.
			if !errors.Is(c.Err, ErrSkipped) {
				t.Errorf("cell %q error %v does not wrap ErrSkipped", c.Label, c.Err)
			}
			if !errors.Is(c.Err, context.Canceled) {
				t.Errorf("cell %q error %v does not wrap context.Canceled", c.Label, c.Err)
			}
			skipped++
		default:
			t.Errorf("cell %q is in a mixed state: Result=%v Err=%v", c.Label, c.Result, c.Err)
		}
	}
	if completed+skipped != total {
		t.Fatalf("completed %d + skipped %d != %d", completed, skipped, total)
	}
	// The cells observed completing before the cancel are a lower bound on
	// completed; in-flight cells may legitimately push it higher (at most
	// one per worker past the cancel point).
	if completed < cancelAfter {
		t.Errorf("completed = %d, want >= %d (progress before cancellation was dropped)", completed, cancelAfter)
	}
	if skipped == 0 {
		t.Error("no cell was skipped; the cancel landed too late to test anything")
	}
	// A successful run, by contrast, must never contain ErrSkipped.
	full := Run(g, Options{Parallel: 2})
	for _, c := range full.Cells {
		if errors.Is(c.Err, ErrSkipped) {
			t.Errorf("uncancelled run skipped cell %q", c.Label)
		}
	}
}

// TestChainCellsLongestFirst pins the dispatch order: chains come back by
// summed pass count, largest first, with equal costs in first-appearance
// order; each chain still ascends the microbatch axis; every cell appears
// once; cells with no model config cost nothing and trail.
func TestChainCellsLongestFirst(t *testing.T) {
	at := func(m sim.Method, micro int) Cell {
		c := tinyConfig()
		c.NumMicro = micro
		return Cell{Label: m.String() + "/m" + strconv.Itoa(micro), Config: c, Method: m}
	}
	custom := Cell{Label: "custom", Eval: func(Cell) (*sim.Result, error) { return &sim.Result{}, nil }}
	cells := []Cell{
		custom,
		at(sim.Baseline, 16), at(sim.Baseline, 8), // chain cost 2·4·24 = 192
		at(sim.Vocab1, 8),                            // 4·4·8 = 128
		at(sim.Interlaced, 8), at(sim.Interlaced, 4), // 3·4·12 = 144
		at(sim.Redis, 24), // 2·4·24 = 192, ties with baseline
	}
	got := chainCells(cells)
	want := [][]int{{2, 1}, {6}, {5, 4}, {3}, {0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chainCells = %v, want %v", got, want)
	}

	// End to end: one worker completes the cells in dispatch order, and the
	// results stay in expansion order.
	var order []string
	res := Run(&Grid{Name: "order", Cells: cells}, Options{Parallel: 1,
		OnCell: func(_, _ int, r CellResult) { order = append(order, r.Label) }})
	var wantOrder []string
	for _, chain := range want {
		for _, i := range chain {
			wantOrder = append(wantOrder, cells[i].Label)
		}
	}
	if !reflect.DeepEqual(order, wantOrder) {
		t.Errorf("completion order %v, want %v", order, wantOrder)
	}
	for i, c := range res.Cells {
		if c.Index != i || c.Label != cells[i].Label || c.Err != nil {
			t.Errorf("result %d = %q (index %d, err %v), want %q", i, c.Label, c.Index, c.Err, cells[i].Label)
		}
	}
}
