// Package sweep evaluates (config × method) experiment grids concurrently.
//
// A Grid declares the sweep axes (model configurations, sequence lengths,
// vocabulary sizes, methods); Expand turns it into an ordered list of Cells
// and Run evaluates the cells on a worker pool via sim.Run. The pool takes
// cells in chains (runs that differ only in microbatch count, so a warm
// engine reuses its previous build) and starts the longest chains first, by
// estimated pass count, so no worker is left holding the heaviest one at the
// end of a batch. Results are still returned in expansion order regardless
// of worker count or dispatch order, each cell captures its own error (a
// failing or OOM cell reports instead of aborting the grid), and an optional
// progress callback observes completions as they happen.
//
// The engine is the seam every vpbench experiment goes through: paper tables
// are fixed grids, and user-defined scenarios (see ParseGrid) reuse the same
// machinery.
//
// # Cancellation and partial results
//
// RunCtx observes cancellation at cell boundaries and always returns one
// CellResult per cell, so partial progress stays inspectable cell by cell:
//
//   - a cell that finished before (or was already in flight at) the
//     cancellation keeps its full Result or its own evaluation error —
//     in-flight cells run to completion, they are never torn down mid-sim;
//   - a cell the engine never started is zero except for Cell/Index and an
//     Err that wraps both ErrSkipped and the context's error, so callers can
//     distinguish "this configuration failed" from "this cell never ran"
//     with errors.Is.
//
// No other mixed state exists: every cell has exactly one of a non-nil
// Result or a non-nil Err.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sim"
)

// ErrSkipped marks a cell RunCtx never evaluated because the context was
// done first. It is always wrapped together with the context's own error,
// so errors.Is(err, ErrSkipped) and errors.Is(err, context.Canceled) both
// hold on a skipped cell — the first classifies, the second explains.
var ErrSkipped = errors.New("skipped")

// EvalFunc evaluates one cell. The default (nil) evaluator is sim.Run on the
// cell's Config and Method; experiments with bespoke pipelines (ablations,
// synthetic schedules) install their own.
type EvalFunc func(Cell) (*sim.Result, error)

// Cell is one point of a sweep: a configuration, a method, and an optional
// custom evaluator.
type Cell struct {
	// Experiment is the owning grid's name (filled in by Expand).
	Experiment string
	// Label uniquely identifies the cell within its grid,
	// e.g. "4B/seq2048/V32k/vocab-1".
	Label  string
	Config costmodel.Config
	Method sim.Method
	// Eval overrides the default sim.Run evaluator when non-nil.
	Eval EvalFunc `json:"-"`
}

// Grid declares a sweep. Either list Cells explicitly, or declare the axes
// and let Expand take the cross product (Configs × Seqs × Vocabs × Methods,
// in that nesting order). Empty Seqs/Vocabs keep each config's own value.
type Grid struct {
	Name string
	// Cells, when non-empty, is used verbatim (the axes are ignored).
	Cells []Cell
	// Axes of the cross product.
	Configs []costmodel.Config
	Seqs    []int
	Vocabs  []int
	Methods []sim.Method
	// KeepTimelines retains each Result's Timeline. The default drops it
	// after metrics are extracted so large grids don't pin every schedule
	// in memory; experiments that render traces opt back in.
	KeepTimelines bool
}

// Expand returns the grid's cells in deterministic order.
func (g *Grid) Expand() []Cell {
	if len(g.Cells) > 0 {
		cells := make([]Cell, len(g.Cells))
		copy(cells, g.Cells)
		for i := range cells {
			cells[i].Experiment = g.Name
		}
		return cells
	}
	cells := make([]Cell, 0, g.NumCells())
	g.eachAxisCell(func(c costmodel.Config, m sim.Method) {
		cells = append(cells, Cell{
			Experiment: g.Name,
			Label:      CellLabel(c, m),
			Config:     c,
			Method:     m,
		})
	})
	return cells
}

// NumCells is the number of cells Expand returns, counted without building
// any: len(Cells) for an explicit grid, else the size of the axes cross
// product. A product past math.MaxInt saturates there instead of wrapping,
// so a size guard that compares NumCells with its limit rejects an
// oversized grid before anything is allocated for it.
func (g *Grid) NumCells() int {
	if len(g.Cells) > 0 {
		return len(g.Cells)
	}
	if len(g.Configs) == 0 || len(g.Methods) == 0 {
		return 0
	}
	n := 1
	for _, k := range [...]int{len(g.Configs), max(len(g.Seqs), 1), max(len(g.Vocabs), 1), len(g.Methods)} {
		if n > math.MaxInt/k {
			return math.MaxInt
		}
		n *= k
	}
	return n
}

// eachAxisCell calls fn for every configuration × method of the axes cross
// product, in expansion order.
func (g *Grid) eachAxisCell(fn func(costmodel.Config, sim.Method)) {
	for _, cfg := range g.Configs {
		seqs := g.Seqs
		if len(seqs) == 0 {
			seqs = []int{cfg.Seq}
		}
		for _, seq := range seqs {
			vocabs := g.Vocabs
			if len(vocabs) == 0 {
				vocabs = []int{cfg.Vocab}
			}
			for _, v := range vocabs {
				for _, m := range g.Methods {
					fn(cfg.WithSeq(seq).WithVocab(v), m)
				}
			}
		}
	}
}

// CellLabel is the canonical label for an axes-expanded cell,
// "<model>/seq<seq>/V<vocab/1024>k/<method>".
func CellLabel(cfg costmodel.Config, m sim.Method) string {
	var buf [64]byte
	return string(appendLabel(buf[:0], &cfg, m))
}

func appendLabel(b []byte, cfg *costmodel.Config, m sim.Method) []byte {
	b = append(b, cfg.Name...)
	b = appendInt(append(b, "/seq"...), cfg.Seq)
	b = appendInt(append(b, "/V"...), cfg.Vocab/1024)
	return append(append(b, "k/"...), m.String()...)
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// Key returns a canonical identity string for the grid: the expansion-order
// cell labels plus each cell's method and full configuration fingerprint.
// Two specs that expand to the same cells get the same key no matter how
// they were written ("vocab=64k" vs "vocab=65536") and specs that differ in
// any simulated input get different keys, which makes Key the cache key for
// result caching and request deduplication in serving layers. The label
// alone is NOT trusted as identity — custom-labeled cells (tune candidates
// are "d8/m32/baseline") omit model and sequence length, and two different
// experiments must never share a cache entry just because their labels
// collide.
//
// Each cell contributes "|<label>;<method>;<model>;L<layers>;a<heads>;
// h<hidden>;s<seq>;b<microbatch>;m<micro>;v<vocab>;d<devices>". The string
// is also the cluster's placement key, so its bytes must never drift.
// Key walks the grid without expanding it, into one buffer sized from
// NumCells. A server computes it for each request target it has not seen
// before, a respelled grid whose body is cached included; a repeated target
// finds its key in the server's request-identity index instead.
func (g *Grid) Key() string {
	b := append(make([]byte, 0, len(g.Name)+g.NumCells()*keyBytesPerCell), g.Name...)
	if len(g.Cells) > 0 {
		for i := range g.Cells {
			c := &g.Cells[i]
			b = appendCellKey(append(append(b, '|'), c.Label...), &c.Config, c.Method)
		}
		return string(b)
	}
	g.eachAxisCell(func(c costmodel.Config, m sim.Method) {
		b = appendCellKey(appendLabel(append(b, '|'), &c, m), &c, m)
	})
	return string(b)
}

// appendCellKey appends a cell's key entry after its label.
func appendCellKey(b []byte, cf *costmodel.Config, m sim.Method) []byte {
	b = append(append(b, ';'), m.String()...)
	b = append(append(b, ';'), cf.Name...)
	b = appendInt(append(b, ";L"...), cf.Layers)
	b = appendInt(append(b, ";a"...), cf.Heads)
	b = appendInt(append(b, ";h"...), cf.Hidden)
	b = appendInt(append(b, ";s"...), cf.Seq)
	b = appendInt(append(b, ";b"...), cf.MicroBatch)
	b = appendInt(append(b, ";m"...), cf.NumMicro)
	b = appendInt(append(b, ";v"...), cf.Vocab)
	return appendInt(append(b, ";d"...), cf.Devices)
}

// keyBytesPerCell sizes Key's buffer: a paper-grid cell takes 77–90 bytes.
const keyBytesPerCell = 96

// CellResult is one evaluated cell. Exactly one of Result/Err is meaningful;
// an OOM run is a successful Result with Result.OOM set.
type CellResult struct {
	Cell
	Index  int // position in expansion order
	Result *sim.Result
	Err    error
}

// Options tunes a Run.
type Options struct {
	// Parallel is the worker count; values < 1 default to GOMAXPROCS.
	Parallel int
	// OnCell, when non-nil, is called after each cell completes with the
	// number done so far and the grid total. Calls may run concurrently and
	// observe done values out of order; the guarantee that survives is that
	// done values are unique, cover 1..total (minus skipped cells), and are
	// assigned in completion order. A slow callback delays only its own
	// worker, never the whole pool. Callbacks that need mutual exclusion
	// must bring their own lock.
	OnCell func(done, total int, r CellResult)
}

// Results holds a grid's evaluated cells in expansion order.
type Results struct {
	Grid  *Grid
	Cells []CellResult
}

// Run evaluates every cell of the grid and returns results in expansion
// order regardless of Options.Parallel.
func Run(g *Grid, opt Options) *Results {
	res, _ := RunCtx(context.Background(), g, opt)
	return res
}

// RunCtx is Run with cancellation: once ctx is done, workers stop picking up
// new cells, every unevaluated cell is marked with an error wrapping both
// ErrSkipped and ctx's error, and RunCtx returns ctx.Err(). Cancellation is
// observed at cell boundaries — a cell already being simulated runs to
// completion (individual cells are milliseconds; grids are where the real
// work is). The returned Results always has one entry per cell, so partial
// progress stays inspectable (see the package comment for the cell-by-cell
// guarantee).
func RunCtx(ctx context.Context, g *Grid, opt Options) (*Results, error) {
	cells := g.Expand()
	results := make([]CellResult, len(cells))
	chains := chainCells(cells)
	workers := opt.Parallel
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(chains) {
		workers = len(chains)
	}

	jobs := make(chan []int)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards the done counter
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker holds one warm runner for its lifetime; the pool
			// keeps runners warm across Run calls too.
			runner := runnerPool.Get().(*sim.Runner)
			defer runnerPool.Put(runner)
			runner.KeepTimeline = g.KeepTimelines
			for chain := range jobs {
				for _, i := range chain {
					if err := ctx.Err(); err != nil {
						results[i] = CellResult{Cell: cells[i], Index: i,
							Err: fmt.Errorf("sweep: cell %q %w: %w", cells[i].Label, ErrSkipped, err)}
						continue
					}
					results[i] = evalCell(runner, cells[i], i, g.KeepTimelines)
					if opt.OnCell != nil {
						// Snapshot the counter under the lock, invoke outside:
						// a slow callback must not serialize the worker pool.
						mu.Lock()
						done++
						n := done
						mu.Unlock()
						opt.OnCell(n, len(cells), results[i])
					}
				}
			}
		}()
	}
	for _, chain := range chains {
		jobs <- chain
	}
	close(jobs)
	wg.Wait()
	return &Results{Grid: g, Cells: results}, ctx.Err()
}

// Records evaluates the grid in process with parallel workers and returns
// its records in expansion order. Each cell's record is converted once, as
// the cell completes, and handed to onRecord (when non-nil) with its
// expansion index; calls may run concurrently.
func Records(ctx context.Context, g *Grid, parallel int, onRecord func(i int, rec report.Record)) ([]report.Record, error) {
	recs := make([]report.Record, g.NumCells())
	opt := Options{Parallel: parallel, OnCell: func(_, _ int, r CellResult) {
		recs[r.Index] = r.Record()
		if onRecord != nil {
			onRecord(r.Index, recs[r.Index])
		}
	}}
	if _, err := RunCtx(ctx, g, opt); err != nil {
		return nil, err
	}
	return recs, nil
}

// runnerPool recycles warm simulation runners (engine arenas + analyzer
// scratch) across workers and Run calls.
var runnerPool = sync.Pool{New: func() any { return sim.NewRunner() }}

// maxChainLen caps how many cells one worker evaluates back to back, so a
// long microbatch axis cannot starve the pool of parallelism.
const maxChainLen = 16

// chainCells groups cell indices into evaluation chains: runs of
// default-eval cells that share a method and a configuration up to the
// microbatch count, ordered by ascending NumMicro so consecutive specs
// differ only in M and the engine's prefix replay engages.
// Custom-eval cells stay singleton chains. The chains come back longest
// first — by summed sim.PassCount, a stable sort — so a small batch does
// not end with one worker still holding the heaviest chain while the others
// idle; a cell with no model config (fig1's custom cells) costs 0. This is
// purely an evaluation permutation — expansion order, result order, Key()
// and sharding are untouched; results are still written by original index.
func chainCells(cells []Cell) [][]int {
	type chainKey struct {
		method sim.Method
		cfg    costmodel.Config
	}
	type chain struct {
		cells []int
		cost  int
	}
	var chains []chain
	at := map[chainKey]int{}
	for i := range cells {
		cost := sim.PassCount(cells[i].Config, cells[i].Method)
		if cells[i].Eval != nil {
			chains = append(chains, chain{[]int{i}, cost})
			continue
		}
		key := chainKey{cells[i].Method, cells[i].Config}
		key.cfg.NumMicro = 0
		if ci, ok := at[key]; ok && len(chains[ci].cells) < maxChainLen {
			chains[ci].cells = append(chains[ci].cells, i)
			chains[ci].cost += cost
			continue
		}
		at[key] = len(chains)
		chains = append(chains, chain{[]int{i}, cost})
	}
	sort.SliceStable(chains, func(a, b int) bool { return chains[a].cost > chains[b].cost })
	out := make([][]int, len(chains))
	for k, ch := range chains {
		sort.SliceStable(ch.cells, func(a, b int) bool {
			return cells[ch.cells[a]].Config.NumMicro < cells[ch.cells[b]].Config.NumMicro
		})
		out[k] = ch.cells
	}
	return out
}

// evalCell evaluates one cell on the worker's warm runner, converting panics
// into per-cell errors so a degenerate configuration cannot abort the grid.
// A panic mid-build is safe to recover from: the engine marks its previous
// build reusable only after a completed run, so the next cell falls back to
// a scratch build on clean state.
func evalCell(runner *sim.Runner, c Cell, index int, keepTimeline bool) (res CellResult) {
	res = CellResult{Cell: c, Index: index}
	defer func() {
		if r := recover(); r != nil {
			res.Result = nil
			res.Err = fmt.Errorf("sweep: cell %q panicked: %v", c.Label, r)
		}
	}()
	var r *sim.Result
	var err error
	if c.Eval != nil {
		r, err = c.Eval(c)
	} else {
		r, err = runner.Run(c.Config, c.Method)
	}
	if err != nil {
		res.Err = fmt.Errorf("sweep: cell %q: %w", c.Label, err)
		return res
	}
	if r != nil && !keepTimeline {
		r.Timeline = nil
	}
	res.Result = r
	return res
}

// Get returns the cell with the given label, or nil.
func (r *Results) Get(label string) *CellResult {
	for i := range r.Cells {
		if r.Cells[i].Label == label {
			return &r.Cells[i]
		}
	}
	return nil
}

// MustGet returns the successful result for a label and panics on a missing
// or failed cell — for renderers of fixed paper grids, where a miss is a
// programming error.
func (r *Results) MustGet(label string) *sim.Result {
	c := r.Get(label)
	if c == nil {
		panic(fmt.Sprintf("sweep: no cell %q in grid %q", label, r.Grid.Name))
	}
	if c.Err != nil {
		panic(fmt.Sprintf("sweep: cell %q failed: %v", label, c.Err))
	}
	return c.Result
}

// Errs returns the errors of all failed cells, in expansion order.
func (r *Results) Errs() []error {
	var errs []error
	for i := range r.Cells {
		if r.Cells[i].Err != nil {
			errs = append(errs, r.Cells[i].Err)
		}
	}
	return errs
}

// Records converts the results into machine-readable report records, in
// expansion order.
func (r *Results) Records() []report.Record {
	recs := make([]report.Record, 0, len(r.Cells))
	for i := range r.Cells {
		recs = append(recs, r.Cells[i].Record())
	}
	return recs
}

// Record converts the cell into its machine-readable report record.
func (c *CellResult) Record() report.Record {
	rec := report.Record{
		Experiment: c.Experiment,
		Label:      c.Label,
		Model:      c.Config.Name,
		Devices:    c.Config.Devices,
		Seq:        c.Config.Seq,
		Vocab:      c.Config.Vocab,
		NumMicro:   c.Config.NumMicro,
	}
	if c.Config.Name != "" {
		// Synthetic cells (custom Eval, no model config) carry no meaningful
		// method: the zero value would mislabel them as "baseline".
		rec.Method = c.Method.String()
	}
	if c.Err != nil {
		rec.Error = c.Err.Error()
		return rec
	}
	if r := c.Result; r != nil {
		rec.OOM = r.OOM
		rec.IterTimeS = r.IterTime
		rec.MFUPct = 100 * r.MFU
		rec.PeakMemGB = r.MaxMem / costmodel.GiB
		rec.BubblePct = 100 * r.Bubble
		if !math.IsInf(r.MinMem, 1) { // unset on synthetic results
			rec.MinMemGB = r.MinMem / costmodel.GiB
		}
	}
	return rec
}
