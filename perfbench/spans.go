package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"vocabpipe/internal/trace"
)

// recorder keeps the traced run's spans in memory until the run ends. A nil
// *recorder is the untraced run: every method is a no-op, so the measured
// code path is the same in both runs.
type recorder struct {
	mu     sync.Mutex
	spans  []span
	server []trace.Event // spans read back from the server, re-stamped
}

// span is one timed call made by the benchmark. IDs are 1-based indexes into
// recorder.spans; parent 0 means a top-level span.
type span struct {
	name       string
	start, end time.Time
	parent     int
	op         int
	tid        int
}

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name string, parent, op, tid int) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, parent: parent, op: op, tid: tid})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].end = now
	return now.Sub(r.spans[id-1].start)
}

// add records an already-timed call.
func (r *recorder) add(name string, start, end time.Time, parent, op, tid int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, op: op, tid: tid})
	return len(r.spans)
}

// addServer keeps one server trace, tagged with the benchmark op and span it
// belongs to, for the Chrome export. Server events are process 1.
func (r *recorder) addServer(events []trace.Event, parent, op int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range events {
		args := make(map[string]string, len(e.Args)+2)
		for k, v := range e.Args {
			args[k] = v
		}
		args["op"] = strconv.Itoa(op)
		args["bench_parent"] = strconv.Itoa(parent)
		e.Args = args
		e.Pid = 1
		r.server = append(r.server, e)
	}
}

// chromeEvents renders every span as a Chrome trace_event complete event,
// the format trace.ReadChromeTrace reads: the benchmark's spans are process
// 0, the server's process 1.
func (r *recorder) chromeEvents() []trace.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]trace.Event, 0, len(r.spans)+len(r.server))
	for i, s := range r.spans {
		events = append(events, trace.Event{
			Name: s.name,
			Cat:  "perfbench",
			Ph:   "X",
			Ts:   float64(s.start.UnixMicro()) + float64(s.start.Nanosecond()%1e3)/1e3,
			Dur:  float64(s.end.Sub(s.start)) / 1e3,
			Tid:  s.tid,
			Args: map[string]string{
				"span_id":   strconv.Itoa(i + 1),
				"parent_id": strconv.Itoa(s.parent),
				"op":        strconv.Itoa(s.op),
			},
		})
	}
	events = append(events, r.server...)
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Pid != events[j].Pid {
			return events[i].Pid < events[j].Pid
		}
		return events[i].Ts < events[j].Ts
	})
	return events
}

// writeChrome writes the Chrome trace to path, creating its directory.
func (r *recorder) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.chromeEvents()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a [start, end) stretch in microseconds.
type interval struct{ start, end float64 }

// selfTime is a span's duration minus the part of it its children cover,
// counting overlapping children once.
func selfTime(parent interval, children []interval) float64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, reach := 0.0, parent.start
	for _, c := range cs {
		if c.end <= reach {
			continue
		}
		covered += c.end - max(c.start, reach)
		reach = c.end
	}
	return parent.end - parent.start - covered
}
