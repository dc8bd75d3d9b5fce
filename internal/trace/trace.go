// Package trace renders schedule timelines: compact ASCII charts in the
// style of the paper's Figures 1, 9 and 10, and Chrome trace_event JSON for
// interactive inspection in chrome://tracing or Perfetto.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"vocabpipe/internal/schedule"
)

// glyphFor maps pass types to chart characters: forwards are digits-friendly
// light cells, backwards dark, vocabulary passes distinct.
func glyphFor(t schedule.PassType) byte {
	switch t {
	case schedule.PassF:
		return 'F'
	case schedule.PassB:
		return 'B'
	case schedule.PassW:
		return 'w'
	case schedule.PassS:
		return 'S'
	case schedule.PassT:
		return 'T'
	case schedule.PassV:
		return 'V'
	default:
		return '?'
	}
}

// ASCII renders the timeline as one row per device, width columns wide.
// Idle time shows as '.', passes as their glyph.
func ASCII(tl *schedule.Timeline, width int) string {
	if width <= 0 {
		width = 120
	}
	scale := float64(width) / tl.Makespan
	var b strings.Builder
	for d := 0; d < tl.Spec.P; d++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, p := range tl.ByDevice[d] {
			lo := int(p.Start * scale)
			hi := int(p.End * scale)
			if hi >= width {
				hi = width - 1
			}
			if hi < lo {
				hi = lo
			}
			g := glyphFor(p.Type)
			for i := lo; i <= hi && i < width; i++ {
				row[i] = g
			}
		}
		fmt.Fprintf(&b, "dev%-2d |%s|\n", d, row)
	}
	fmt.Fprintf(&b, "%6s makespan=%.4g  (F=forward B=backward S/T=vocab passes V=interlaced w=weight-grad .=idle)\n", "", tl.Makespan)
	return b.String()
}

// Detailed renders each device's pass sequence with microbatch indices, like
// the rows of the paper's Fig 10.
func Detailed(tl *schedule.Timeline, maxPasses int) string {
	var b strings.Builder
	for d := 0; d < tl.Spec.P; d++ {
		fmt.Fprintf(&b, "dev%-2d ", d)
		for i, p := range tl.ByDevice[d] {
			if maxPasses > 0 && i >= maxPasses {
				fmt.Fprintf(&b, "…")
				break
			}
			if tl.Spec.Chunks > 1 {
				fmt.Fprintf(&b, "%c%d.%d ", glyphFor(p.Type), p.Chunk, p.Micro+1)
			} else {
				fmt.Fprintf(&b, "%c%d ", glyphFor(p.Type), p.Micro+1)
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Event is one complete ("X") Chrome trace_event: a pass rendered as a
// duration on device Tid. Exported so tests and tools can decode a written
// trace back into typed form (see ReadChromeTrace).
type Event struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace emits the timeline as a Chrome trace_event JSON array,
// device by device in each device's execution order (ByDevice), so the
// bytes depend on the schedule and not on the order a constructor committed
// its passes in. Times are interpreted as seconds and exported in
// microseconds.
func WriteChromeTrace(w io.Writer, tl *schedule.Timeline) error {
	events := make([]Event, 0, len(tl.Passes))
	for _, row := range tl.ByDevice {
		for _, p := range row {
			events = append(events, Event{
				Name: fmt.Sprintf("%s mb%d", p.Type, p.Micro),
				Cat:  p.Type.String(),
				Ph:   "X",
				Ts:   p.Start * 1e6,
				Dur:  (p.End - p.Start) * 1e6,
				Pid:  0,
				Tid:  p.Device,
				Args: map[string]string{
					"micro": fmt.Sprint(p.Micro),
					"chunk": fmt.Sprint(p.Chunk),
				},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// ReadChromeTrace decodes a trace written by WriteChromeTrace back into
// typed events — the round-trip half that lets tests assert structural
// invariants (event counts, phases, per-device timing) instead of just
// "valid JSON".
func ReadChromeTrace(r io.Reader) ([]Event, error) {
	var events []Event
	if err := json.NewDecoder(r).Decode(&events); err != nil {
		return nil, fmt.Errorf("trace: decoding chrome trace: %w", err)
	}
	return events, nil
}
