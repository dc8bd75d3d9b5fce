package obs

import (
	"context"
	"encoding/binary"
	"net/http"
	"strings"
	"testing"
)

func TestTraceParentRoundTrip(t *testing.T) {
	tr := newTestTracer(4)
	sp := tr.StartRoot("req", SpanContext{})
	h := FormatTraceParent(sp.SpanContext())
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("malformed header %q", h)
	}
	sc, ok := ParseTraceParent(h)
	if !ok {
		t.Fatalf("own header rejected: %q", h)
	}
	if sc.TraceID != sp.TraceID() || sc.SpanID != sp.SpanID() {
		t.Errorf("identity did not round-trip: %+v", sc)
	}
}

func TestParseTraceParentRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01",  // wrong separator
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex version
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
		"00-XYf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902XY-01",  // non-hex span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-XY",  // non-hex flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // trailing junk
		// The spec's fields are lowercase hex.
		"0A-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // uppercase version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01", // uppercase span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A", // uppercase flags
		// Version 00 defines exactly four fields; only a higher version
		// may carry a suffix.
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-",
	}
	for _, h := range bad {
		if sc, ok := ParseTraceParent(h); ok || sc != (SpanContext{}) {
			t.Errorf("accepted %q (ok=%v, %+v); a rejected header must leave no identity to adopt", h, ok, sc)
		}
	}
	// A 55-byte version-00 header parses, and so does a future version,
	// with or without a dash-separated suffix.
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00-what-the-future-holds",
	} {
		sc, ok := ParseTraceParent(h)
		if !ok {
			t.Errorf("rejected %q", h)
			continue
		}
		if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" || sc.SpanID.String() != "00f067aa0ba902b7" {
			t.Errorf("%q parsed to %+v", h, sc)
		}
	}
}

// FuzzParseTraceParent: the header comes from arbitrary clients, so parsing
// must never panic; an accepted header's IDs must be exactly the lowercase
// hex it carried (so they re-format to h[3:52]); and whatever
// FormatTraceParent writes for a valid identity must parse back to it.
func FuzzParseTraceParent(f *testing.F) {
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"",
	} {
		f.Add(h, uint64(0x4bf92f3577b34da6), uint64(0xa3ce929d0e0e4736), uint64(0x00f067aa0ba902b7))
	}
	f.Fuzz(func(t *testing.T, h string, hi, lo, span uint64) {
		if sc, ok := ParseTraceParent(h); ok {
			if got := sc.TraceID.String() + "-" + sc.SpanID.String(); got != h[3:52] {
				t.Errorf("accepted %q but its IDs re-format to %q", h, got)
			}
			if !sc.Valid() {
				t.Errorf("accepted %q with a zero ID", h)
			}
		}
		var sc SpanContext
		binary.BigEndian.PutUint64(sc.TraceID[:8], hi)
		binary.BigEndian.PutUint64(sc.TraceID[8:], lo)
		binary.BigEndian.PutUint64(sc.SpanID[:], span)
		back, ok := ParseTraceParent(FormatTraceParent(sc))
		if ok != sc.Valid() || (ok && back != sc) {
			t.Errorf("FormatTraceParent(%+v) parsed back to %+v, ok=%v", sc, back, ok)
		}
	})
}

func TestParseTraceIDValidation(t *testing.T) {
	tr := newTestTracer(4)
	sp := tr.StartRoot("req", SpanContext{})
	id, err := ParseTraceID(sp.TraceID().String())
	if err != nil || id != sp.TraceID() {
		t.Errorf("own ID rejected: %v", err)
	}
	for _, s := range []string{"", "abc", strings.Repeat("0", 32), strings.Repeat("z", 32)} {
		if _, err := ParseTraceID(s); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestInject(t *testing.T) {
	tr := newTestTracer(4)
	sp := tr.StartRoot("req", SpanContext{})
	h := http.Header{}
	Inject(ContextWithSpan(context.Background(), sp), h)
	if got := h.Get(TraceParentHeader); got != FormatTraceParent(sp.SpanContext()) {
		t.Errorf("injected %q", got)
	}
	empty := http.Header{}
	Inject(context.Background(), empty)
	if len(empty) != 0 {
		t.Errorf("span-less inject wrote headers: %v", empty)
	}
}
