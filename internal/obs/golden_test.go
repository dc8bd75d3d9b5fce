package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"vocabpipe/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTrace is one recorded trace in testdata/trace.golden.json: its ID
// and its ChromeEvents, in the order the tracer recorded them.
type goldenTrace struct {
	ID     string        `json:"id"`
	Events []trace.Event `json:"events"`
}

// recordGoldenTraces drives one deterministic tracer through every shape
// the recorder handles and returns the IDs of the traces it completed, in
// recording order. Every call that reads the clock or draws an ID shifts
// all later timestamps or IDs, so the golden pins those calls too.
func recordGoldenTraces(tr *Tracer) []TraceID {
	bg := context.Background()
	var ids []TraceID

	// Trace 1: a coordinator's sharded miss. Sequential phases nest on lane
	// 0, the shard fan-out spreads over lanes and runs past MaxSpans, one
	// shard is still open when the root ends, and the span operations after
	// completion are counted no-ops.
	root := tr.StartRoot("GET /api/v1/sweep", SpanContext{})
	root.SetAttr("route", "/api/v1/sweep")
	ctx := ContextWithSpan(bg, root)
	adm := ChildSpan(ctx, "admission")
	adm.SetAttr("class", "compute")
	adm.SetAttr("outcome", "admitted")
	adm.End()
	adm.SetAttr("late", "dropped") // ended span: no-op
	adm.End()                      // second End: no-op, still reads the clock
	lctx, lookup := StartSpan(ctx, "cache.lookup")
	cctx, compute := StartSpan(lctx, "compute")
	compute.SetAttr("path", "cluster")
	dctx, dispatch := StartSpan(cctx, "cluster.dispatch")
	var shards []*Span
	for i := 0; i < 14; i++ {
		_, sh := StartSpan(dctx, "shard-"+strconv.Itoa(i))
		sh.SetAttr("cells", strconv.Itoa(10+i))
		shards = append(shards, sh) // past MaxSpans sh is nil: every call below no-ops
	}
	// Many attributes on one span, a repeated key (the export keeps the
	// last value) and a value that needs JSON escaping.
	for _, kv := range [][2]string{
		{"worker", "http://127.0.0.1:8281"}, {"attempt", "1"}, {"outcome", "retry"},
		{"status", "503"}, {"error", "worker said \"busy\"\n\tretry <later> & é"},
		{"attempt", "2"}, {"outcome", "ok"}, {"bytes", "4096"},
	} {
		shards[0].SetAttr(kv[0], kv[1])
	}
	for i := 1; i < len(shards); i += 2 { // odd shards first: lane stacks shrink out of order
		shards[i].End()
	}
	for i := 0; i < len(shards); i += 2 {
		if i != 4 { // shard-4 stays open until the root ends
			shards[i].End()
		}
	}
	dispatch.End()
	compute.SetAttr("error", "shard 4: context deadline exceeded")
	compute.End()
	lookup.SetAttr("outcome", "miss")
	lookup.End()
	root.SetAttr("status", "500")
	root.End()
	ids = append(ids, root.TraceID())
	shards[4].SetAttr("late", "true")
	shards[4].End()
	if ChildSpan(ctx, "late-child") != nil {
		panic("child started on a completed trace")
	}
	root.End()

	// Trace 2: a worker's shard under a remote parent. Concurrent siblings
	// spread over lanes, a sequential span reuses its parent's lane, and a
	// freed lane is reused before a new one opens.
	remote := SpanContext{
		TraceID: TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36},
		SpanID:  SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7},
	}
	wroot := tr.StartRoot("POST /api/v1/shard", remote)
	wroot.SetAttr("route", "/api/v1/shard")
	wctx := ContextWithSpan(bg, wroot)
	_, a := StartSpan(wctx, "compute-a")
	_, b := StartSpan(wctx, "compute-b")
	a.End()
	c3ctx, c := StartSpan(wctx, "compute-c")
	_, inner := StartSpan(c3ctx, "compute-c.inner")
	b.End()
	_, d := StartSpan(wctx, "compute-d")
	inner.End()
	d.End()
	c.End()
	wroot.SetAttr("status", "200")
	wroot.End()
	ids = append(ids, wroot.TraceID())

	// Trace 3: a request-shaped cache hit, the server's common case.
	hroot := tr.StartRoot("GET /api/v1/schedule", SpanContext{})
	hroot.SetAttr("route", "/api/v1/schedule")
	hctx := ContextWithSpan(bg, hroot)
	hadm := ChildSpan(hctx, "admission")
	hadm.SetAttr("class", "cheap")
	hadm.SetAttr("outcome", "admitted")
	hadm.End()
	hlook := ChildSpan(hctx, "cache.lookup")
	hlook.SetAttr("outcome", "hit")
	hlook.End()
	hroot.SetAttr("status", "200")
	hroot.End()
	ids = append(ids, hroot.TraceID())
	return ids
}

// TestChromeExportGolden pins the recorder's export byte for byte: the
// ChromeEvents of every trace recordGoldenTraces completes, looked up by ID
// and through Recent, must match testdata/trace.golden.json. Regenerate with
// `go test ./internal/obs -run Golden -update` only after an intended export
// change.
func TestChromeExportGolden(t *testing.T) {
	tr := NewTracer(Options{Capacity: 8, MaxSpans: 16, Service: "golden", Now: fakeClock(), Rand: counterRand()})
	ids := recordGoldenTraces(tr)

	var got []goldenTrace
	for _, id := range ids {
		td, ok := tr.Trace(id)
		if !ok {
			t.Fatalf("trace %s not recorded", id)
		}
		got = append(got, goldenTrace{ID: id.String(), Events: td.ChromeEvents()})
	}
	recent := tr.Recent(len(ids))
	if len(recent) != len(ids) {
		t.Fatalf("Recent returned %d traces, want %d", len(recent), len(ids))
	}
	for i, td := range recent {
		want := got[len(got)-1-i]
		if td.ID.String() != want.ID || !reflect.DeepEqual(td.ChromeEvents(), want.Events) {
			t.Errorf("Recent[%d] exports differently from Trace(%s)", i, want.ID)
		}
	}
	if st := tr.Stats(); st.Recorded != 3 || st.DroppedSpans != 4 || st.RingEntries != 3 {
		t.Errorf("stats = %+v, want 3 recorded, 4 dropped spans, 3 entries", st)
	}

	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	golden := filepath.Join("testdata", "trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("export differs from %s; got:\n%s", golden, out)
	}
}
