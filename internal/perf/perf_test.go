package perf

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"vocabpipe/internal/report"
)

func TestMeasureQuickMode(t *testing.T) {
	calls := 0
	c := Case{Name: "counting", Run: func(n int) { calls += n }}
	bc := measure(c, Options{})
	if bc.N != 1 {
		t.Errorf("quick mode N = %d, want 1", bc.N)
	}
	if calls != 2 { // warmup + one measured iteration
		t.Errorf("Run executed %d iterations, want 2 (warmup + 1)", calls)
	}
	if bc.Name != "counting" || bc.NsPerOp < 0 {
		t.Errorf("bad case result: %+v", bc)
	}
}

func TestMeasureTimedModeGrowsIterations(t *testing.T) {
	c := Case{Name: "spin", Run: func(n int) {
		for i := 0; i < n; i++ {
			time.Sleep(200 * time.Microsecond)
		}
	}}
	bc := measure(c, Options{MinTime: 20 * time.Millisecond, MaxN: 500})
	if bc.N < 2 {
		t.Errorf("timed mode should grow iterations, got N=%d", bc.N)
	}
	if bc.NsPerOp <= 0 {
		t.Errorf("NsPerOp = %v", bc.NsPerOp)
	}
}

func TestMeasureCellsPerSec(t *testing.T) {
	c := Case{Name: "grid", Cells: 10, Run: func(n int) {
		for i := 0; i < n; i++ {
			time.Sleep(time.Millisecond)
		}
	}}
	bc := measure(c, Options{})
	if bc.Cells != 10 || bc.CellsPerSec <= 0 {
		t.Errorf("cells metrics: %+v", bc)
	}
}

func TestRunSuiteMetadata(t *testing.T) {
	r := RunSuite([]Case{{Name: "noop", Run: func(int) {}}}, Options{})
	if r.SchemaVersion != report.BenchSchemaVersion {
		t.Errorf("schema version %d", r.SchemaVersion)
	}
	if !r.QuickMode {
		t.Error("MinTime 0 should record quick mode")
	}
	if r.GoVersion == "" || r.GOOS == "" || r.MaxProcs < 1 || r.Date == "" {
		t.Errorf("missing provenance: %+v", r)
	}
	if len(r.Cases) != 1 || r.Cases[0].Name != "noop" {
		t.Errorf("cases: %+v", r.Cases)
	}
}

func benchReportOf(cases ...report.BenchCase) *report.BenchReport {
	return &report.BenchReport{SchemaVersion: report.BenchSchemaVersion, Cases: cases}
}

func TestCompareDetectsTimeRegression(t *testing.T) {
	old := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 1000})
	tol := Tolerance{Time: 3, Allocs: 0.5, AllocSlack: 256}

	ok := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 399, AllocsPerOp: 1000})
	if deltas, reg := Compare(old, ok, tol); reg {
		t.Errorf("3.99x within 4x tolerance flagged: %+v", deltas)
	}
	slow := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 450, AllocsPerOp: 1000})
	deltas, reg := Compare(old, slow, tol)
	if !reg {
		t.Fatal("4.5x slowdown not flagged")
	}
	if deltas[0].Status != "regressed" || !strings.Contains(deltas[0].Reason, "ns/op") {
		t.Errorf("delta: %+v", deltas[0])
	}
}

func TestCompareDetectsAllocRegression(t *testing.T) {
	old := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 1000})
	tol := Tolerance{Time: 3, Allocs: 0.5, AllocSlack: 256}

	ok := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 1700})
	if _, reg := Compare(old, ok, tol); reg {
		t.Error("1.7x allocs within 1.5x+slack flagged")
	}
	leaky := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 2000})
	deltas, reg := Compare(old, leaky, tol)
	if !reg || !strings.Contains(deltas[0].Reason, "allocs/op") {
		t.Errorf("2x allocs not flagged: %+v", deltas)
	}
	// Tiny absolute counts never gate, whatever the ratio.
	oldTiny := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 10})
	newTiny := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 100})
	if _, reg := Compare(oldTiny, newTiny, tol); reg {
		t.Error("sub-slack alloc jitter flagged")
	}
}

// TestCompareNoticesStaleBaseline: a >50% allocs/op improvement must not
// fail the gate, but it must surface a non-gating notice telling the
// operator to regenerate BENCH_0.json — otherwise a later regression back
// up to the stale baseline would hide inside the tolerance band.
func TestCompareNoticesStaleBaseline(t *testing.T) {
	tol := Tolerance{Time: 3, Allocs: 0.5, AllocSlack: 256}
	old := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 33000})
	improved := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 20})

	deltas, reg := Compare(old, improved, tol)
	if reg {
		t.Fatalf("a pure improvement must not gate: %+v", deltas)
	}
	if deltas[0].Notice == "" || !strings.Contains(deltas[0].Notice, "regenerate BENCH_0.json") {
		t.Fatalf("3x+ allocs improvement produced no stale-baseline notice: %+v", deltas[0])
	}
	var b strings.Builder
	if err := WriteDeltas(&b, old, improved, deltas); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "baseline stale") {
		t.Errorf("rendered deltas omit the notice:\n%s", b.String())
	}

	// Below the noise floor, improvements are jitter, not news.
	oldTiny := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 100})
	newTiny := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 10})
	deltas, _ = Compare(oldTiny, newTiny, tol)
	if deltas[0].Notice != "" {
		t.Errorf("sub-slack improvement should not notice: %+v", deltas[0])
	}
}

// TestCompareSkipsTimeGateAcrossMaxProcs: wall time is not comparable when
// the two reports ran at different GOMAXPROCS (sweep grids parallelize), so
// only the machine-independent allocs gate may fire.
func TestCompareSkipsTimeGateAcrossMaxProcs(t *testing.T) {
	tol := Tolerance{Time: 3, Allocs: 0.5, AllocSlack: 256}
	old := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 1000})
	old.MaxProcs = 16
	slow := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 1000, AllocsPerOp: 1000})
	slow.MaxProcs = 2
	if deltas, reg := Compare(old, slow, tol); reg {
		t.Errorf("time gate should be skipped across GOMAXPROCS: %+v", deltas)
	}
	leaky := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 1000, AllocsPerOp: 5000})
	leaky.MaxProcs = 2
	if _, reg := Compare(old, leaky, tol); !reg {
		t.Error("allocs gate must still apply across GOMAXPROCS")
	}
	var b strings.Builder
	deltas, _ := Compare(old, slow, tol)
	if err := WriteDeltas(&b, old, slow, deltas); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "GOMAXPROCS differs") {
		t.Errorf("comparison output should note the skipped time gate:\n%s", b.String())
	}
}

func TestCompareAddedRemovedNeverGate(t *testing.T) {
	old := benchReportOf(report.BenchCase{Name: "gone", NsPerOp: 100, AllocsPerOp: 10})
	new_ := benchReportOf(report.BenchCase{Name: "fresh", NsPerOp: 100, AllocsPerOp: 10})
	deltas, reg := Compare(old, new_, DefaultTolerance)
	if reg {
		t.Error("added/removed cases must not gate")
	}
	byStatus := map[string]int{}
	for _, d := range deltas {
		byStatus[d.Status]++
	}
	if byStatus["removed"] != 1 || byStatus["added"] != 1 {
		t.Errorf("deltas: %+v", deltas)
	}
}

func TestWriteDeltasRendersReasons(t *testing.T) {
	old := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 1000})
	slow := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 1000, AllocsPerOp: 1000})
	deltas, _ := Compare(old, slow, DefaultTolerance)
	var b strings.Builder
	if err := WriteDeltas(&b, old, slow, deltas); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"perf comparison", "regressed", "10.00x"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSuiteQuickRun executes the real paper suite in quick mode end to end.
// This is the same path `vpbench -perf` and the CI perf job take.
func TestSuiteQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper suite in -short mode")
	}
	cases := Suite()
	r := RunSuite(cases, Options{})
	for _, want := range []string{
		"engine/build/4B-seq4096-V256k-vocab-1",
		"engine/build/10B-seq4096-V256k-vocab-1",
		"engine/build/21B-seq4096-V256k-vocab-1",
		"engine/scan/21B-seq4096-V256k-vocab-1",
		"engine/build/30B-seq4096-V256k-vhalf-vocab-1",
		"sweep/table5",
		"sweep/table6",
	} {
		c := r.Case(want)
		if c == nil {
			t.Errorf("suite missing case %q", want)
			continue
		}
		if c.NsPerOp <= 0 {
			t.Errorf("case %q measured nothing: %+v", want, c)
		}
	}
	t5 := r.Case("sweep/table5")
	if t5 == nil || t5.Cells != 120 || t5.CellsPerSec <= 0 {
		t.Errorf("table5 grid case: %+v", t5)
	}
	t6 := r.Case("sweep/table6")
	if t6 == nil || t6.Cells != 48 {
		t.Errorf("table6 grid case: %+v", t6)
	}
	// The serving-layer case must report throughput and a warmed cache: the
	// warmup plus measured requests hit one key, so only the first lookup
	// missed.
	sv := r.Case("server/sweep-cached")
	if sv == nil || sv.ReqPerSec <= 0 || sv.CacheHitPct < 50 {
		t.Errorf("server throughput case: %+v", sv)
	}
	// The open-loop SLO case gates itself (a breach panics the run); here
	// just confirm it measured goodput through a warmed cache.
	ol := r.Case("server/open-loop-slo")
	if ol == nil || ol.ReqPerSec <= 0 || ol.CacheHitPct < 50 {
		t.Errorf("open-loop SLO case: %+v", ol)
	}
	// The distributed fan-out case must report throughput for its 10-cell
	// grid — real shard dispatch over loopback HTTP, no local fallback
	// (clusterCase panics the run if a shard ever falls back).
	cl := r.Case("cluster/sweep-sharded")
	if cl == nil || cl.ReqPerSec <= 0 || cl.Cells != 10 {
		t.Errorf("cluster throughput case: %+v", cl)
	}
	// The event-driven engine must beat the reference scan engine on the
	// largest config — the tentpole's raison d'être. Quick mode is noisy,
	// so only require parity-or-better rather than the full ~10x.
	build := r.Case("engine/build/21B-seq4096-V256k-vocab-1")
	scan := r.Case("engine/scan/21B-seq4096-V256k-vocab-1")
	if build != nil && scan != nil && build.NsPerOp > scan.NsPerOp {
		t.Errorf("event-driven engine (%.3g ns/op) slower than scan engine (%.3g ns/op)",
			build.NsPerOp, scan.NsPerOp)
	}
}

// TestCompareDetectsQualityRegression: a search case whose quality_pct
// drifts below the baseline past the tolerance must fail the gate, even
// when it got faster — and losing quality entirely (the search found
// nothing) always fails. Cases without quality are untouched.
func TestCompareDetectsQualityRegression(t *testing.T) {
	old := benchReportOf(report.BenchCase{Name: "tune/x", NsPerOp: 100, AllocsPerOp: 1000, QualityPct: 100})
	tol := Tolerance{Time: 3, Allocs: 0.5, AllocSlack: 256, QualityPoints: 2}

	ok := benchReportOf(report.BenchCase{Name: "tune/x", NsPerOp: 100, AllocsPerOp: 1000, QualityPct: 98.5})
	if deltas, reg := Compare(old, ok, tol); reg {
		t.Errorf("1.5-point quality drop within 2-point tolerance flagged: %+v", deltas)
	}
	worse := benchReportOf(report.BenchCase{Name: "tune/x", NsPerOp: 50, AllocsPerOp: 1000, QualityPct: 80})
	deltas, reg := Compare(old, worse, tol)
	if !reg || !strings.Contains(deltas[0].Reason, "quality") {
		t.Errorf("20-point quality drop not flagged: %+v", deltas)
	}
	gone := benchReportOf(report.BenchCase{Name: "tune/x", NsPerOp: 50, AllocsPerOp: 1000})
	if _, reg := Compare(old, gone, tol); !reg {
		t.Error("vanished quality (search found nothing) not flagged")
	}
	// A case that never had quality is not gated on it.
	oldPlain := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 1000})
	newPlain := benchReportOf(report.BenchCase{Name: "a", NsPerOp: 100, AllocsPerOp: 1000})
	if _, reg := Compare(oldPlain, newPlain, tol); reg {
		t.Error("quality gate fired on a case without quality")
	}
}

// TestSuiteListingStartsNothing: listing the cases must have no side
// effects. The serving cases boot their servers on first Run; an eager
// server.New would start job workers that nothing stops.
func TestSuiteListingStartsNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	cases := Suite()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("listing %d cases started %d goroutines", len(cases), after-before)
	}
}
