// Package obs is vocabpipe's dependency-free request tracer: W3C-style
// trace/span identity, spans threaded through context.Context across the
// serving layers (middleware → admission → cache/singleflight → cluster
// dispatch → worker), and completed traces parked in a bounded lock-free
// ring buffer for export in the same Chrome trace_event JSON the simulator
// already emits (internal/trace) — a service trace and a simulated pipeline
// timeline open in the same viewer.
//
// Design constraints, in order:
//
//   - Zero dependencies. Identity is 16/8 random bytes, propagation is one
//     HTTP header (traceparent), storage is a fixed slice of atomic
//     pointers. Nothing here imports outside the stdlib and internal/trace.
//   - The untraced path costs nothing. Every Span method is a no-op on a
//     nil receiver, and ChildSpan/StartSpan on a span-less context return
//     nil — so instrumented call sites never branch on "is tracing on".
//   - The traced path costs one allocation. A trace records into one block
//     that holds its first four spans and each span's first two
//     attributes — a request-shaped trace (root, admission, cache.lookup,
//     and compute on a miss) with every attribute vpserve sets on it.
//     Recording does no sorting, hex encoding or per-span allocation;
//     spans past the block cost one allocation each. Threading a span
//     through a context costs the context value, as any context.WithValue
//     does.
//   - Traces complete, they are not collected. A trace is buffered while
//     its root span is open and its block becomes immutable the moment the
//     root ends; spans still open at that point are flushed with
//     unfinished=true rather than lost (a detached singleflight compute
//     that outlives its caller is the expected producer of these). The
//     ring holds the blocks themselves; the sorted TraceData view is built
//     when Trace or Recent reads one.
//
// Concurrency: span creation and mutation inside ONE trace serialize on
// that trace's mutex (spans are born concurrently under dispatch fan-out);
// the ring of completed traces is lock-free and a completed block is never
// written again, so readers (the debug API, metrics collectors) never take
// a trace's lock or contend with request hot paths.
package obs

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte trace identity (32 hex digits on the wire).
type TraceID [16]byte

// IsZero reports the invalid all-zero ID (forbidden by the traceparent spec).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the canonical lowercase-hex form, with one allocation.
func (t TraceID) String() string {
	var buf [32]byte
	hex.Encode(buf[:], t[:])
	return string(buf[:])
}

// ParseTraceID decodes the 32-hex-digit form (as minted by String).
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, fmt.Errorf("obs: trace id %q: want 32 hex digits", s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return id, fmt.Errorf("obs: trace id %q: %v", s, err)
	}
	if id.IsZero() {
		return id, fmt.Errorf("obs: trace id %q is all zero", s)
	}
	return id, nil
}

// SpanID is the 8-byte span identity (16 hex digits on the wire).
type SpanID [8]byte

// IsZero reports the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the canonical lowercase-hex form, with one allocation.
func (s SpanID) String() string {
	var buf [16]byte
	hex.Encode(buf[:], s[:])
	return string(buf[:])
}

// SpanContext is the cross-process identity a traceparent header carries:
// which trace, and which span in it is the remote parent.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are present and nonzero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Attr is one key/value annotation on a span. A slice (not a map) on
// purpose: spans carry a handful of attributes, and insertion order is
// stable for deterministic export.
type Attr struct {
	Key   string
	Value string
}

// SpanData is the immutable record of one finished span inside TraceData.
type SpanData struct {
	Name     string
	SpanID   SpanID
	ParentID SpanID // zero for a local root with no remote parent
	Start    time.Time
	End      time.Time
	// Lane is the export row (Chrome Tid): sequential children share their
	// parent's lane so they nest visually; concurrent siblings get rows of
	// their own.
	Lane int
	// Unfinished marks a span still open when the root ended — flushed with
	// the root's end time rather than dropped.
	Unfinished bool
	Attrs      []Attr
}

// TraceData is one completed trace: the root span plus everything started
// under it, sorted by start time (ties broken by span ID) for deterministic
// export.
type TraceData struct {
	ID      TraceID
	Service string
	Start   time.Time
	End     time.Time
	Spans   []SpanData
}

// Root returns the earliest span — the request (or job) the trace is about.
func (td *TraceData) Root() *SpanData {
	if len(td.Spans) == 0 {
		return nil
	}
	return &td.Spans[0]
}

// Options tunes a Tracer.
type Options struct {
	// Capacity is the completed-trace ring size (default 256). The ring
	// overwrites oldest-first; it is a flight recorder, not a database.
	Capacity int
	// MaxSpans caps spans per trace (default 512) — a runaway fan-out
	// guard. Past it, ChildSpan returns nil and the drop is counted.
	MaxSpans int
	// Service labels every trace this tracer completes (the Chrome-event
	// category), e.g. "vpserve".
	Service string
	// Now is the clock (default time.Now). Tests inject a fixed-step fake
	// so exported timestamps and durations are deterministic.
	Now func() time.Time
	// Rand sources ID entropy (default math/rand/v2.Uint64). Must be safe
	// for concurrent use; tests inject a counter for reproducible IDs.
	Rand func() uint64
}

// Stats snapshots the tracer's counters for /metrics.
type Stats struct {
	// Recorded counts traces completed into the ring since construction.
	Recorded uint64
	// DroppedSpans counts spans refused because their trace was already
	// complete or at MaxSpans.
	DroppedSpans uint64
	// RingEntries/RingCapacity describe the flight recorder's occupancy.
	RingEntries  int
	RingCapacity int
}

// Tracer mints trace identity and owns the completed-trace ring. A nil
// *Tracer is valid and inert (StartRoot returns nil).
type Tracer struct {
	opt Options

	ring         *ring
	recorded     atomic.Uint64
	droppedSpans atomic.Uint64
}

// NewTracer builds a Tracer with defaults applied.
func NewTracer(opt Options) *Tracer {
	if opt.Capacity <= 0 {
		opt.Capacity = 256
	}
	if opt.MaxSpans <= 0 {
		opt.MaxSpans = 512
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	if opt.Rand == nil {
		opt.Rand = rand.Uint64
	}
	return &Tracer{opt: opt, ring: newRing(opt.Capacity)}
}

// Stats snapshots the counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Recorded:     t.recorded.Load(),
		DroppedSpans: t.droppedSpans.Load(),
		RingEntries:  t.ring.len(),
		RingCapacity: len(t.ring.slots),
	}
}

// Trace looks a completed trace up by ID (newest recording wins if an ID
// was ever reused). Each call builds a fresh TraceData.
func (t *Tracer) Trace(id TraceID) (*TraceData, bool) {
	if t == nil {
		return nil, false
	}
	rec, ok := t.ring.get(id)
	if !ok {
		return nil, false
	}
	return rec.traceData(), true
}

// Recent returns up to n completed traces, newest first, each built fresh.
func (t *Tracer) Recent(n int) []*TraceData {
	if t == nil {
		return nil
	}
	recs := t.ring.recent(n)
	out := make([]*TraceData, len(recs))
	for i, rec := range recs {
		out[i] = rec.traceData()
	}
	return out
}

// StartRoot opens a new trace and returns its root span. A valid remote
// SpanContext (from an incoming traceparent header) adopts the caller's
// trace ID and parents the root under the remote span, which is exactly how
// a worker's spans nest under the coordinator's shard attempt. The trace
// completes — and becomes visible to Trace/Recent — when the root ends.
func (t *Tracer) StartRoot(name string, remote SpanContext) *Span {
	if t == nil {
		return nil
	}
	now := t.opt.Now()
	rec := &record{tracer: t, nspans: 1, nlanes: 1}
	root := &rec.spans[0]
	if remote.Valid() {
		rec.id = remote.TraceID
		root.parent = remote.SpanID
	} else {
		rec.id = t.newTraceID()
	}
	root.rec, root.name, root.id, root.start = rec, name, t.newSpanID(), now
	root.opener, root.top = root, root
	rec.last = root
	return root
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], t.opt.Rand())
		binary.BigEndian.PutUint64(id[8:], t.opt.Rand())
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], t.opt.Rand())
	}
	return id
}

// inlineSpans and inlineAttrs size a trace's block: room for a
// request-shaped trace and the attributes vpserve sets on its spans. A span
// past inlineSpans is one allocation of its own.
const (
	inlineSpans = 4
	inlineAttrs = 2
)

// record is one trace: the block StartRoot allocates, which the ring holds
// once the root ends. All mutation serializes on mu and stops when the root
// ends; tracer and id are immutable after StartRoot.
type record struct {
	tracer *Tracer
	id     TraceID

	mu     sync.Mutex
	done   bool
	nlanes int32      // lanes opened so far
	nspans int        // spans started, root included; MaxSpans caps it
	last   *Span      // the latest span started; Span.next links them from the root
	extra  []spanAttr // attributes past a span's inline ones, in SetAttr order
	spans  [inlineSpans]Span
}

// spanAttr is an attribute past its span's inline ones.
type spanAttr struct {
	span *Span
	Attr
}

func (rec *record) startChild(name string, parent *Span) *Span {
	t := rec.tracer
	now := t.opt.Now()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.done || rec.nspans >= t.opt.MaxSpans {
		t.droppedSpans.Add(1)
		return nil
	}
	opener := rec.laneOpener(parent)
	var sp *Span
	if rec.nspans < inlineSpans {
		sp = &rec.spans[rec.nspans]
	} else {
		sp = new(Span)
	}
	rec.nspans++
	sp.rec, sp.name, sp.id, sp.parent, sp.start = rec, name, t.newSpanID(), parent.id, now
	rec.last.next, rec.last = sp, sp
	if opener == nil { // sp opens a new lane
		opener, sp.lane = sp, rec.nlanes
		rec.nlanes++
	}
	sp.opener, sp.lane, sp.below = opener, opener.lane, opener.top
	opener.top = sp
	return sp
}

// laneOpener picks the lane for a child of parent, named by the span that
// opened it: the parent's lane when the parent is that lane's innermost open
// span (sequential work nests), else the first free lane (concurrent
// siblings spread out), else nil for a new lane.
func (rec *record) laneOpener(parent *Span) *Span {
	if parent.opener.top == parent {
		return parent.opener
	}
	for s := &rec.spans[0]; s != nil; s = s.next {
		if s.opener == s && s.top == nil {
			return s
		}
	}
	return nil
}

// spanState is where a span is in its life.
type spanState uint8

const (
	spanOpen spanState = iota
	spanEnded
	spanUnfinished // still open when the root ended
)

// Span is one timed operation inside a trace. The zero of usefulness — a
// nil *Span — is every method's valid receiver, so untraced paths need no
// branches.
type Span struct {
	rec *record

	// Identity, fixed when the span starts.
	name   string
	id     SpanID
	parent SpanID // zero for a local root with no remote parent
	start  time.Time

	// Guarded by rec.mu until the root ends.
	end    time.Time
	lane   int32
	state  spanState
	nattrs uint8
	attrs  [inlineAttrs]Attr

	// Each lane is a stack of open spans, named by the span that opened
	// it; guarded by rec.mu. A span that ends below its lane's top stays
	// linked and is skipped when the spans above it end.
	opener *Span // the span that opened this span's lane (itself if it did)
	top    *Span // on an opener: its lane's innermost open span, nil when free
	below  *Span // the lane's top when this span started
	next   *Span // the next span started in the trace
}

// TraceID returns the owning trace's ID (zero for a nil span).
func (sp *Span) TraceID() TraceID {
	if sp == nil {
		return TraceID{}
	}
	return sp.rec.id
}

// SpanID returns the span's own ID (zero for a nil span).
func (sp *Span) SpanID() SpanID {
	if sp == nil {
		return SpanID{}
	}
	return sp.id
}

// SpanContext returns the identity a traceparent header would carry.
func (sp *Span) SpanContext() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.rec.id, SpanID: sp.id}
}

// SetAttr annotates an open span; after End (or after the trace completed)
// the call is dropped.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	rec := sp.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if sp.state != spanOpen {
		return
	}
	if sp.nattrs < inlineAttrs {
		sp.attrs[sp.nattrs] = Attr{Key: key, Value: value}
		sp.nattrs++
		return
	}
	rec.extra = append(rec.extra, spanAttr{sp, Attr{Key: key, Value: value}})
}

// End finishes the span. Ending the root completes the trace: any spans
// still open are flushed with the root's end time and unfinished=true, the
// record lands in the tracer's ring, and every later mutation of the trace
// is a counted no-op. End is idempotent.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	rec := sp.rec
	t := rec.tracer
	now := t.opt.Now()
	rec.mu.Lock()
	if sp.state != spanOpen {
		rec.mu.Unlock()
		return
	}
	sp.end, sp.state = now, spanEnded
	if root := &rec.spans[0]; sp != root {
		if o := sp.opener; o.top == sp {
			top := sp.below
			for top != nil && top.state != spanOpen {
				top = top.below
			}
			o.top = top
		}
		rec.mu.Unlock()
		return
	}
	for s := sp.next; s != nil; s = s.next {
		if s.state == spanOpen {
			s.end, s.state = now, spanUnfinished
		}
	}
	rec.done = true
	rec.mu.Unlock()
	t.ring.add(rec)
	t.recorded.Add(1)
}

// traceData builds the TraceData view of a completed record, spans sorted
// by start time (ties broken by span ID). It reads without the record's
// lock: nothing writes a record once the ring holds it.
func (rec *record) traceData() *TraceData {
	root := &rec.spans[0]
	td := &TraceData{
		ID: rec.id, Service: rec.tracer.opt.Service, Start: root.start, End: root.end,
		Spans: make([]SpanData, 0, rec.nspans),
	}
	n := len(rec.extra)
	for s := root; s != nil; s = s.next {
		n += int(s.nattrs)
	}
	attrs := make([]Attr, 0, n)
	for s := root; s != nil; s = s.next {
		from := len(attrs)
		attrs = append(attrs, s.attrs[:s.nattrs]...)
		for _, a := range rec.extra {
			if a.span == s {
				attrs = append(attrs, a.Attr)
			}
		}
		sd := SpanData{
			Name: s.name, SpanID: s.id, ParentID: s.parent, Start: s.start, End: s.end,
			Lane: int(s.lane), Unfinished: s.state == spanUnfinished,
		}
		if len(attrs) > from {
			sd.Attrs = attrs[from:len(attrs):len(attrs)]
		}
		td.Spans = append(td.Spans, sd)
	}
	slices.SortStableFunc(td.Spans, func(a, b SpanData) int {
		if c := a.Start.Compare(b.Start); c != 0 {
			return c
		}
		return bytes.Compare(a.SpanID[:], b.SpanID[:])
	})
	return td
}

// ctxKey carries the current span through context.Context.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying sp; a nil span returns ctx unchanged,
// which is how a detached context (cancellation from one lineage, trace
// parentage from another) is assembled without nil checks at call sites.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the context's span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// ChildSpan starts a span under the context's current span without
// re-threading the context — for call sites that must pair a span with a
// DIFFERENT context's cancellation (the singleflight compute path). Returns
// nil (a valid no-op span) when the context carries none.
func ChildSpan(ctx context.Context, name string) *Span {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return nil
	}
	return parent.rec.startChild(name, parent)
}

// StartSpan starts a child span and threads it through the returned
// context — the common case. On a span-less context it returns the inputs
// untouched and a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := ChildSpan(ctx, name)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Inject stamps the context's span identity onto an outbound request's
// headers as traceparent; span-less contexts leave the headers untouched.
func Inject(ctx context.Context, h http.Header) {
	if sp := SpanFromContext(ctx); sp != nil {
		h.Set(TraceParentHeader, FormatTraceParent(sp.SpanContext()))
	}
}
