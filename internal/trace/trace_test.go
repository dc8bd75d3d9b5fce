package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vocabpipe/internal/schedule"
)

// update regenerates the chrome-trace golden:
//
//	go test ./internal/trace -run TestChromeTraceGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

func sampleTimeline() *schedule.Timeline {
	stages := make([]schedule.Stage, 4)
	for i := range stages {
		stages[i] = schedule.Stage{F: 1, B: 2, ActBytes: 1}
	}
	return schedule.MustBuild(&schedule.Spec{P: 4, M: 6, Chunks: 1, Stages: stages,
		Vocab: &schedule.VocabSpec{SDur: 0.5, TDur: 1, Barriers: 2}})
}

func TestASCIIStructure(t *testing.T) {
	tl := sampleTimeline()
	out := ASCII(tl, 100)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // 4 devices + legend
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	for d := 0; d < 4; d++ {
		if !strings.HasPrefix(lines[d], "dev") {
			t.Fatalf("row %d missing device label", d)
		}
		for _, g := range []string{"F", "B", "S", "T"} {
			if !strings.Contains(lines[d], g) {
				t.Errorf("device %d row missing %s pass", d, g)
			}
		}
	}
	// Device 0 idles at the start of the backward wave, so dots must exist.
	if !strings.Contains(out, ".") {
		t.Errorf("expected idle cells in the chart")
	}
}

func TestASCIIDefaultWidth(t *testing.T) {
	tl := sampleTimeline()
	out := ASCII(tl, 0)
	if len(out) == 0 {
		t.Fatal("empty chart")
	}
	line := strings.SplitN(out, "\n", 2)[0]
	if len(line) < 100 {
		t.Errorf("default width should be ~120 cols, got %d", len(line))
	}
}

func TestDetailedShowsMicrobatches(t *testing.T) {
	tl := sampleTimeline()
	out := Detailed(tl, 0)
	if !strings.Contains(out, "F1") || !strings.Contains(out, "S1") || !strings.Contains(out, "T1") || !strings.Contains(out, "B1") {
		t.Fatalf("detailed output missing expected passes:\n%s", out)
	}
}

func TestDetailedTruncates(t *testing.T) {
	tl := sampleTimeline()
	out := Detailed(tl, 3)
	if !strings.Contains(out, "…") {
		t.Fatalf("expected truncation marker")
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	tl := sampleTimeline()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != len(tl.Passes) {
		t.Fatalf("got %d events, want %d", len(events), len(tl.Passes))
	}
	ev := events[0]
	for _, key := range []string{"name", "ph", "ts", "dur", "tid"} {
		if _, ok := ev[key]; !ok {
			t.Errorf("event missing %q", key)
		}
	}
	if ev["ph"] != "X" {
		t.Errorf("expected complete events, got ph=%v", ev["ph"])
	}
}

// TestChromeTraceRoundTrip decodes the written trace back into typed events
// and asserts the structural invariants a trace viewer relies on: one
// complete event per pass, in ByDevice order, microsecond scaling, and
// per-device rows whose events never overlap and progress monotonically in
// time.
func TestChromeTraceRoundTrip(t *testing.T) {
	tl := sampleTimeline()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl); err != nil {
		t.Fatal(err)
	}
	events, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(tl.Passes) {
		t.Fatalf("round-tripped %d events, want %d (one per pass)", len(events), len(tl.Passes))
	}

	var rows []schedule.TimedPass
	for _, row := range tl.ByDevice {
		rows = append(rows, row...)
	}
	perDevice := map[int][]Event{}
	for i, ev := range events {
		p := rows[i]
		if ev.Ph != "X" {
			t.Fatalf("event %d: ph = %q, want X", i, ev.Ph)
		}
		if ev.Cat != p.Type.String() || ev.Tid != p.Device {
			t.Errorf("event %d: (cat %q, tid %d) does not match pass (%s, dev %d)", i, ev.Cat, ev.Tid, p.Type, p.Device)
		}
		// Times are seconds exported as microseconds; both survive the JSON
		// round trip exactly.
		if ev.Ts != p.Start*1e6 || ev.Dur != (p.End-p.Start)*1e6 {
			t.Errorf("event %d: ts/dur %v/%v, want %v/%v", i, ev.Ts, ev.Dur, p.Start*1e6, (p.End-p.Start)*1e6)
		}
		if ev.Dur < 0 || ev.Ts < 0 {
			t.Errorf("event %d: negative time: %+v", i, ev)
		}
		if ev.Args["micro"] == "" || ev.Args["chunk"] == "" {
			t.Errorf("event %d: args missing micro/chunk: %+v", i, ev.Args)
		}
		perDevice[ev.Tid] = append(perDevice[ev.Tid], ev)
	}

	if len(perDevice) != tl.Spec.P {
		t.Fatalf("events span %d devices, want %d", len(perDevice), tl.Spec.P)
	}
	const tol = 1e-6 // microseconds; below any representable pass duration
	for d, evs := range perDevice {
		if len(evs) != len(tl.ByDevice[d]) {
			t.Errorf("device %d: %d events, want %d", d, len(evs), len(tl.ByDevice[d]))
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
		for i := 1; i < len(evs); i++ {
			prevEnd := evs[i-1].Ts + evs[i-1].Dur
			if evs[i].Ts+tol < prevEnd {
				t.Errorf("device %d: event %d (ts %.6g) overlaps previous (ends %.6g)", d, i, evs[i].Ts, prevEnd)
			}
			if evs[i].Ts < evs[i-1].Ts {
				t.Errorf("device %d: timestamps not monotone at event %d", d, i)
			}
		}
	}
}

// TestChromeTraceGolden pins the exact serialized bytes of a small
// schedule's trace so an accidental format change (field rename, scaling,
// ordering) is caught against a committed file. Regenerate with -update.
func TestChromeTraceGolden(t *testing.T) {
	stages := make([]schedule.Stage, 2)
	for i := range stages {
		stages[i] = schedule.Stage{F: 1, B: 2, ActBytes: 1}
	}
	tl := schedule.MustBuild(&schedule.Spec{P: 2, M: 2, Chunks: 1, Stages: stages,
		Vocab: &schedule.VocabSpec{SDur: 0.5, TDur: 1, Barriers: 2}})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl); err != nil {
		t.Fatal(err)
	}

	goldenPath := filepath.Join("testdata", "chrome_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if buf.String() != string(golden) {
		t.Errorf("trace bytes differ from %s (regenerate with -update if the change is intended)", goldenPath)
	}
	// The golden itself must satisfy the round-trip invariants — a stale
	// file cannot hide behind byte equality.
	events, err := ReadChromeTrace(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(tl.Passes) {
		t.Errorf("golden holds %d events, timeline has %d passes", len(events), len(tl.Passes))
	}
	for _, ev := range events {
		if ev.Ph != "X" || math.IsNaN(ev.Ts) || math.IsNaN(ev.Dur) {
			t.Errorf("golden event malformed: %+v", ev)
		}
	}
}
