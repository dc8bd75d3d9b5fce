package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"

	"vocabpipe/internal/trace"
)

// writeEvents serializes events exactly as the debug endpoint does — a
// bare JSON array, the form trace.ReadChromeTrace decodes.
func writeEvents(w io.Writer, events []trace.Event) error {
	return json.NewEncoder(w).Encode(events)
}

// fakeClock steps 1ms per call from a fixed epoch — every exported
// timestamp and duration becomes a deterministic multiple of 1000µs.
func fakeClock() func() time.Time {
	var mu sync.Mutex
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	n := 0
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

// counterRand hands out 1, 2, 3, ... — reproducible IDs.
func counterRand() func() uint64 {
	var mu sync.Mutex
	var n uint64
	return func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		n++
		return n
	}
}

func newTestTracer(capacity int) *Tracer {
	return NewTracer(Options{
		Capacity: capacity,
		Service:  "test",
		Now:      fakeClock(),
		Rand:     counterRand(),
	})
}

func TestRootCompletesIntoRing(t *testing.T) {
	tr := newTestTracer(4)
	root := tr.StartRoot("GET /api/v1/sweep", SpanContext{})
	root.SetAttr("route", "/api/v1/sweep")
	id := root.TraceID()
	if id.IsZero() {
		t.Fatal("root trace ID is zero")
	}
	if _, ok := tr.Trace(id); ok {
		t.Fatal("trace visible before the root ended")
	}
	ctx := ContextWithSpan(context.Background(), root)
	_, child := StartSpan(ctx, "admission")
	child.SetAttr("outcome", "admitted")
	child.End()
	root.End()

	td, ok := tr.Trace(id)
	if !ok {
		t.Fatal("completed trace not in ring")
	}
	if len(td.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(td.Spans))
	}
	if td.Root().Name != "GET /api/v1/sweep" {
		t.Errorf("root = %q", td.Root().Name)
	}
	if td.Spans[1].ParentID != td.Spans[0].SpanID {
		t.Error("child not parented under root")
	}
	if got := tr.Stats(); got.Recorded != 1 || got.RingEntries != 1 {
		t.Errorf("stats = %+v", got)
	}
}

func TestSequentialChildrenShareLaneConcurrentSiblingsSpread(t *testing.T) {
	tr := newTestTracer(4)
	root := tr.StartRoot("req", SpanContext{})
	ctx := ContextWithSpan(context.Background(), root)

	// Sequential phases nest: each child is the lane top's child in turn.
	_, a := StartSpan(ctx, "phase-a")
	actx, aa := StartSpan(ContextWithSpan(ctx, a), "phase-a.inner")
	_ = actx
	aa.End()
	a.End()

	// Concurrent siblings started while none has ended must spread out.
	_, s1 := StartSpan(ctx, "shard-1")
	_, s2 := StartSpan(ctx, "shard-2")
	s1.End()
	s2.End()
	root.End()

	td, _ := tr.Trace(root.TraceID())
	lanes := map[string]int{}
	for _, s := range td.Spans {
		lanes[s.Name] = s.Lane
	}
	if lanes["phase-a"] != lanes["req"] {
		t.Errorf("sequential child off the root lane: %v", lanes)
	}
	if lanes["phase-a.inner"] != lanes["phase-a"] {
		t.Errorf("nested child off its parent lane: %v", lanes)
	}
	if lanes["shard-1"] == lanes["shard-2"] {
		t.Errorf("concurrent siblings share lane %d: %v", lanes["shard-1"], lanes)
	}
}

func TestRootEndFlushesOpenSpansAsUnfinished(t *testing.T) {
	tr := newTestTracer(4)
	root := tr.StartRoot("req", SpanContext{})
	ctx := ContextWithSpan(context.Background(), root)
	_, orphan := StartSpan(ctx, "detached-compute")
	root.End()

	td, _ := tr.Trace(root.TraceID())
	var found *SpanData
	for i := range td.Spans {
		if td.Spans[i].Name == "detached-compute" {
			found = &td.Spans[i]
		}
	}
	if found == nil {
		t.Fatal("open span lost at completion")
	}
	if !found.Unfinished {
		t.Error("flushed span not marked unfinished")
	}
	if found.End.Before(found.Start) {
		t.Error("flushed span has no end time")
	}
	// Post-completion mutation is a counted no-op, never a panic.
	orphan.SetAttr("late", "true")
	orphan.End()
	if got := tr.Stats().Recorded; got != 1 {
		t.Errorf("recorded = %d after late End", got)
	}
}

func TestChildAfterCompletionIsDroppedAndCounted(t *testing.T) {
	tr := newTestTracer(4)
	root := tr.StartRoot("req", SpanContext{})
	ctx := ContextWithSpan(context.Background(), root)
	root.End()
	if sp := ChildSpan(ctx, "late"); sp != nil {
		t.Fatal("child span started on a completed trace")
	}
	if got := tr.Stats().DroppedSpans; got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
}

func TestMaxSpansGuard(t *testing.T) {
	tr := NewTracer(Options{Capacity: 4, MaxSpans: 3, Now: fakeClock(), Rand: counterRand()})
	root := tr.StartRoot("req", SpanContext{})
	ctx := ContextWithSpan(context.Background(), root)
	if _, sp := StartSpan(ctx, "a"); sp == nil {
		t.Fatal("span under the cap refused")
	}
	if _, sp := StartSpan(ctx, "b"); sp == nil {
		t.Fatal("span at the cap boundary refused")
	}
	if _, sp := StartSpan(ctx, "c"); sp != nil {
		t.Fatal("span past MaxSpans accepted")
	}
	if got := tr.Stats().DroppedSpans; got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
}

func TestRemoteParentAdoptsTraceID(t *testing.T) {
	coord := newTestTracer(4)
	worker := newTestTracer(4)
	attempt := coord.StartRoot("attempt", SpanContext{})

	// The worker parses the header the coordinator would send.
	sc, ok := ParseTraceParent(FormatTraceParent(attempt.SpanContext()))
	if !ok {
		t.Fatal("round-tripped traceparent rejected")
	}
	wroot := worker.StartRoot("POST /api/v1/shard", sc)
	if wroot.TraceID() != attempt.TraceID() {
		t.Error("worker did not adopt the coordinator's trace ID")
	}
	wroot.End()
	td, ok := worker.Trace(attempt.TraceID())
	if !ok {
		t.Fatal("worker trace not recorded under the shared ID")
	}
	if td.Root().ParentID != attempt.SpanID() {
		t.Error("worker root not parented under the coordinator attempt span")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x", SpanContext{})
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	sp.SetAttr("k", "v")
	sp.End()
	if !sp.TraceID().IsZero() || !sp.SpanID().IsZero() {
		t.Error("nil span has identity")
	}
	ctx := ContextWithSpan(context.Background(), sp)
	if SpanFromContext(ctx) != nil {
		t.Error("nil span stored in context")
	}
	octx, child := StartSpan(ctx, "child")
	if child != nil || octx != ctx {
		t.Error("StartSpan on a span-less context not a no-op")
	}
	if got := tr.Stats(); got != (Stats{}) {
		t.Errorf("nil tracer stats = %+v", got)
	}
	if tr.Recent(5) != nil {
		t.Error("nil tracer has recent traces")
	}
}

func TestChromeExportRoundTripsAndIsDeterministic(t *testing.T) {
	export := func() []trace.Event {
		tr := newTestTracer(4)
		root := tr.StartRoot("req", SpanContext{})
		ctx := ContextWithSpan(context.Background(), root)
		_, child := StartSpan(ctx, "work")
		child.SetAttr("outcome", "ok")
		child.End()
		root.End()
		td, _ := tr.Trace(root.TraceID())
		return td.ChromeEvents()
	}

	events := export()
	var buf bytes.Buffer
	if err := writeEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadChromeTrace(&buf)
	if err != nil {
		t.Fatalf("export does not round-trip: %v", err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d events, want 2", len(back))
	}
	for _, e := range back {
		if e.Ph != "X" {
			t.Errorf("event %q has phase %q, want X", e.Name, e.Ph)
		}
		if e.Args["trace_id"] == "" || e.Args["span_id"] == "" {
			t.Errorf("event %q missing identity args", e.Name)
		}
	}
	if back[1].Args["parent_id"] != back[0].Args["span_id"] {
		t.Error("child event not linked to root via parent_id")
	}

	// A second tracer with the same injected clock and entropy exports
	// identical events — the determinism the e2e cluster test leans on.
	again := export()
	if len(again) != len(events) {
		t.Fatal("re-export changed event count")
	}
	for i := range events {
		if events[i].Name != again[i].Name || events[i].Ts != again[i].Ts ||
			events[i].Dur != again[i].Dur || events[i].Tid != again[i].Tid {
			t.Errorf("event %d differs across identical runs: %+v vs %+v", i, events[i], again[i])
		}
	}
}

// requestTrace records the trace vpserve records for a cached hit: the root
// with its route and status, admission with its class and outcome, and
// cache.lookup with its outcome.
func requestTrace(tr *Tracer) {
	root := tr.StartRoot("GET /api/v1/schedule", SpanContext{})
	root.SetAttr("route", "/api/v1/schedule")
	ctx := ContextWithSpan(context.Background(), root)
	adm := ChildSpan(ctx, "admission")
	adm.SetAttr("class", "cheap")
	adm.SetAttr("outcome", "admitted")
	adm.End()
	lookup := ChildSpan(ctx, "cache.lookup")
	lookup.SetAttr("outcome", "hit")
	lookup.End()
	root.SetAttr("status", "200")
	root.End()
}

// TestRequestTraceAllocs: recording a request-shaped trace costs the trace's
// one block plus the context that carries its root, however many spans and
// attributes fit inline.
func TestRequestTraceAllocs(t *testing.T) {
	tr := NewTracer(Options{Service: "test"})
	requestTrace(tr)
	if n := testing.AllocsPerRun(100, func() { requestTrace(tr) }); n > 2 {
		t.Errorf("a request-shaped trace allocates %v objects, want at most 2", n)
	}
	td := tr.Recent(1)[0]
	if len(td.Spans) != 3 || td.Root().Name != "GET /api/v1/schedule" {
		t.Errorf("recorded %d spans under %q", len(td.Spans), td.Root().Name)
	}
}

// BenchmarkRequestTrace: one request-shaped trace, recorded into the ring
// on the real clock and entropy.
func BenchmarkRequestTrace(b *testing.B) {
	tr := NewTracer(Options{Service: "test"})
	b.ReportAllocs()
	for b.Loop() {
		requestTrace(tr)
	}
}

// TestClockAndEntropyCalls pins what each operation draws from the injected
// clock and entropy: one Now per StartRoot, child start and End call (a late
// or repeated End included), none per SetAttr; two Rand calls per fresh
// trace ID and one per span ID, none for a refused child.
func TestClockAndEntropyCalls(t *testing.T) {
	var nows, rands int
	tr := NewTracer(Options{
		MaxSpans: 2,
		Now:      func() time.Time { nows++; return time.Unix(0, int64(nows)) },
		Rand:     func() uint64 { rands++; return uint64(rands) },
	})
	step := func(what string, wantNow, wantRand int, op func()) {
		t.Helper()
		n0, r0 := nows, rands
		op()
		if nows-n0 != wantNow || rands-r0 != wantRand {
			t.Errorf("%s: %d Now and %d Rand calls, want %d and %d", what, nows-n0, rands-r0, wantNow, wantRand)
		}
	}
	var root, child *Span
	step("StartRoot", 1, 3, func() { root = tr.StartRoot("req", SpanContext{}) })
	ctx := ContextWithSpan(context.Background(), root)
	step("remote StartRoot", 1, 1, func() { tr.StartRoot("shard", root.SpanContext()) })
	step("child", 1, 1, func() { child = ChildSpan(ctx, "a") })
	step("child past MaxSpans", 1, 0, func() { ChildSpan(ctx, "b") })
	step("SetAttr", 0, 0, func() { child.SetAttr("k", "v") })
	step("End", 1, 0, func() { child.End() })
	step("repeated End", 1, 0, func() { child.End() })
	step("root End", 1, 0, func() { root.End() })
	step("late End", 1, 0, func() { root.End() })
	step("late SetAttr", 0, 0, func() { child.SetAttr("k", "v") })
	step("late child", 1, 0, func() { ChildSpan(ctx, "c") })
}

// TestEqualStartsOrderBySpanID: spans that start on the same clock reading
// export in span-ID order, whatever order they started in.
func TestEqualStartsOrderBySpanID(t *testing.T) {
	ids := []uint64{9, 0x30, 0x20, 0x10}
	tr := NewTracer(Options{
		Now:  func() time.Time { return time.Unix(1, 0) },
		Rand: func() uint64 { id := ids[0]; ids = ids[1:]; return id },
	})
	root := tr.StartRoot("req", SpanContext{TraceID: TraceID{1}, SpanID: SpanID{1}})
	ctx := ContextWithSpan(context.Background(), root)
	for _, name := range []string{"c", "b", "a"} {
		ChildSpan(ctx, name).End()
	}
	root.End()
	td, _ := tr.Trace(root.TraceID())
	var got []string
	for _, s := range td.Spans {
		got = append(got, s.Name)
	}
	if want := []string{"req", "a", "b", "c"}; !slices.Equal(got, want) {
		t.Errorf("span order %v, want %v", got, want)
	}
}

// TestRecordFitsRetentionBudget: the ring holds each trace's block itself,
// so the block stays within about a kilobyte however the inline capacity is
// tuned.
func TestRecordFitsRetentionBudget(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n > 1024 {
		t.Errorf("a trace's block is %d bytes, want at most 1024", n)
	}
}

// TestConcurrentSpansAndReaders is the recorder's -race proof: goroutines
// start, annotate and end spans of one trace (past the inline capacity),
// one of them keeps going after the root ends, and readers build TraceData
// from completed traces throughout.
func TestConcurrentSpansAndReaders(t *testing.T) {
	tr := NewTracer(Options{Capacity: 4, Service: "test"})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, td := range tr.Recent(4) {
					if again, ok := tr.Trace(td.ID); ok {
						again.ChromeEvents()
					}
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		root := tr.StartRoot("req", SpanContext{})
		ctx := ContextWithSpan(context.Background(), root)
		var writers sync.WaitGroup
		for w := 0; w < 4; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				sctx, sp := StartSpan(ctx, "shard")
				sp.SetAttr("worker", strconv.Itoa(w))
				for i := 0; i < 3; i++ {
					child := ChildSpan(sctx, "attempt")
					child.SetAttr("n", strconv.Itoa(i))
					child.SetAttr("outcome", "ok")
					child.SetAttr("extra", "past the inline attributes")
					child.End()
				}
				sp.End()
			}(w)
		}
		late := make(chan struct{})
		go func() {
			defer close(late)
			_, sp := StartSpan(ctx, "detached")
			for i := 0; i < 50; i++ {
				sp.SetAttr("i", strconv.Itoa(i))
			}
			sp.End()
		}()
		writers.Wait()
		root.End()
		<-late
		td, ok := tr.Trace(root.TraceID())
		if !ok {
			t.Fatal("completed trace missing")
		}
		if n := len(td.Spans); n < 17 || n > 18 {
			t.Fatalf("trace has %d spans, want 17 or 18", n)
		}
	}
	close(stop)
	readers.Wait()
}
