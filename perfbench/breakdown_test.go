package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vocabpipe/internal/experiments"
	"vocabpipe/internal/trace"
)

// Tolerances of the three breakdowns the traced run prints.
const (
	// cellTolerance bounds |spec + build + analyze − run| ÷ run, summed over
	// a grid. The parts and the whole are separate calls on separate warm
	// engines, timed back to back per cell, so they differ only by Run's own
	// bookkeeping and timer noise.
	cellTolerance = 0.10
	// spanTolerance bounds |Σ root children + root self − root| ÷ root: the
	// server's admission and cache.lookup spans do not overlap, so this is
	// exact up to rounding unless the span tree is misread.
	spanTolerance = 0.01
)

func TestMain(m *testing.M) {
	initRef()
	os.Exit(m.Run())
}

// TestCellBreakdownSums checks spec + build + analyze against sim.run_us.
func TestCellBreakdownSums(t *testing.T) {
	b := probeCells(experiments.Table5Grid().Expand(), nil, 0)
	if b.cells != 120 {
		t.Fatalf("probed %d cells, want table5's 120", b.cells)
	}
	parts := b.spec + b.build + b.analyze
	if rel := math.Abs(parts-b.run) / b.run; rel > cellTolerance {
		t.Errorf("spec+build+analyze = %.0f ns, run = %.0f ns: off by %.1f%%, tolerance %.0f%%",
			parts, b.run, 100*rel, 100*cellTolerance)
	}
}

// TestServerBreakdownSums runs a short traced serve-mixed window and checks,
// over every request whose spans it read back, the root's children plus its
// self time against the root span; it also checks that the Chrome trace it
// writes reads back through trace.ReadChromeTrace.
func TestServerBreakdownSums(t *testing.T) {
	inst, err := setupServeMixed(7)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serveMixed)
	defer s.close()
	rec := &recorder{}
	w := s.window(time.Second, rec)
	if w.failed != 0 {
		t.Fatalf("%d of %d requests failed", w.failed, w.ops)
	}
	tr := s.traced
	if tr.spans.n == 0 || tr.readErrs != 0 {
		t.Fatalf("read back %d traces, %d errors", tr.spans.n, tr.readErrs)
	}
	if rel := math.Abs(tr.partsUS-tr.rootUS) / tr.rootUS; rel > spanTolerance {
		t.Errorf("children+self = %.1f µs, root = %.1f µs: off by %.2f%%", tr.partsUS, tr.rootUS, 100*rel)
	}
	if tr.transportUS.value() <= 0 {
		t.Errorf("client latency not above the root span: transport %.1f µs", tr.transportUS.value())
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadChromeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	server := 0
	for _, e := range events {
		if e.Args["op"] == "" {
			t.Fatalf("event %q has no op ID", e.Name)
		}
		if e.Pid == 1 {
			server++
		}
	}
	if server == 0 {
		t.Error("the trace holds no server spans")
	}
}

// TestJobBreakdownSums runs a short traced tune-jobs window: queue wait +
// search + SSE lag covers a job from creation to the client's receipt of
// its terminal frame, so it may fall short of the client-observed search
// time only by the part of the submit round trip before the job existed.
func TestJobBreakdownSums(t *testing.T) {
	inst, err := setupTuneJobs(7)
	if err != nil {
		t.Fatal(err)
	}
	tj := inst.(*tuneJobs)
	defer tj.close()
	w := tj.window(time.Millisecond, &recorder{})
	if w.failed != 0 || w.ops < heapAtOp {
		t.Fatalf("%d of %d searches failed", w.failed, w.ops)
	}
	tt := tj.traced
	gap := tt.clientMS - tt.partsMS
	submit := tt.submitMS.sum
	if gap < 0 || gap > submit {
		t.Errorf("client %.3f ms, queue+search+lag %.3f ms: gap %.3f ms outside [0, submit %.3f ms]",
			tt.clientMS, tt.partsMS, gap, submit)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json's metric lists and
// the program's catalogue in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, bench.EndToEnd}, {"per_layer", perLayer, bench.PerLayer}} {
		if len(c.defs) != len(c.json) {
			t.Errorf("%s: %d metrics in the program, %d in BENCHMARK.json", c.kind, len(c.defs), len(c.json))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.json[i].Name || d.unit != c.json[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)",
					c.kind, i, d.name, d.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
}

// TestHistogramQuantiles checks nearest-rank quantiles, bucket resolution
// and that failures rank above every success.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 1; i <= 100; i++ {
		h.record(time.Duration(i) * time.Millisecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}} {
		if got := h.quantile(c.q); math.Abs(got-c.want)/c.want > histGrowth {
			t.Errorf("q%.2f = %.4f ms, want %.0f within %.1f%%", c.q, got, c.want, 100*histGrowth)
		}
	}
	h.fail()
	if got := h.quantile(1); got < 1e5 {
		t.Errorf("a failure must rank above every success, max = %.1f ms", got)
	}
}
