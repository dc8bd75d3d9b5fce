package obs

import (
	"encoding/hex"
	"strings"
)

// TraceParentHeader is the W3C Trace Context header carrying trace identity
// across process boundaries: version-traceid-parentid-flags, all lowercase
// hex ("00-4bf9...-00f0...-01").
const TraceParentHeader = "traceparent"

// FormatTraceParent renders the header value for an outbound request. The
// version is always 00 and the sampled flag always set — this tracer has no
// sampling decision to propagate; the ring buffer is the retention policy.
func FormatTraceParent(sc SpanContext) string {
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceParent decodes an incoming header value. The boolean is false —
// the SpanContext zero, and the caller starts a fresh trace — for an absent,
// malformed, all-zero or version-ff value; a bad header from an arbitrary
// client must never be able to break request handling, only to fail to
// link traces.
func ParseTraceParent(h string) (SpanContext, bool) {
	var sc SpanContext
	// Fixed-layout fast parse: vv-<32 hex>-<16 hex>-ff is exactly 55 bytes.
	// Version 00 defines exactly these four fields; a higher version may
	// append "-..." fields, which are ignored.
	if len(h) < 55 {
		return SpanContext{}, false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	if len(h) > 55 && (h[55] != '-' || h[:2] == "00") {
		return SpanContext{}, false
	}
	// Every field is lowercase hex; hex.Decode alone would take A-F too.
	if strings.ContainsAny(h[:55], "ABCDEF") {
		return SpanContext{}, false
	}
	var version [1]byte
	if _, err := hex.Decode(version[:], []byte(h[0:2])); err != nil || version[0] == 0xff {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(h[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(h[36:52])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(version[:], []byte(h[53:55])); err != nil {
		return SpanContext{}, false // flags must still be hex even though we ignore them
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}
