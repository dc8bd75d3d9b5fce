package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"vocabpipe/internal/jobs"
	"vocabpipe/internal/tune"
)

// sseFrame is one parsed event; comments accumulate separately.
type sseFrame struct {
	id    string
	event string
	data  string
}

// readSSE consumes the stream until EOF (or a frame cap), returning frames
// and the comment lines seen. The handler terminates the stream itself on a
// terminal job state, so EOF is the expected exit.
func readSSE(t *testing.T, body *bufio.Reader, maxFrames int) (frames []sseFrame, comments []string) {
	t.Helper()
	var cur sseFrame
	dirty := false
	for len(frames) < maxFrames {
		line, err := body.ReadString('\n')
		if err != nil {
			if dirty {
				t.Errorf("stream ended mid-frame: %+v", cur)
			}
			return frames, comments
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "":
			if dirty {
				frames = append(frames, cur)
				cur, dirty = sseFrame{}, false
			}
		case strings.HasPrefix(line, ":"):
			comments = append(comments, line)
		case strings.HasPrefix(line, "id: "):
			cur.id, dirty = strings.TrimPrefix(line, "id: "), true
		case strings.HasPrefix(line, "event: "):
			cur.event, dirty = strings.TrimPrefix(line, "event: "), true
		case strings.HasPrefix(line, "data: "):
			cur.data, dirty = strings.TrimPrefix(line, "data: "), true
		case strings.HasPrefix(line, "retry: "):
			// reconnection hint from the preamble; not a frame
		default:
			t.Errorf("unexpected SSE line %q", line)
		}
	}
	return frames, comments
}

// TestJobEventsEndToEnd: submit a real tuner job over HTTP, stream its
// events, and require the stream to end with a terminal done frame carrying
// the same result the poll endpoint would return.
func TestJobEventsEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{JobWorkers: 1})
	id := submitOptimize(t, ts, "?scenario=4b-quick&strategy=beam", "")

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	frames, _ := readSSE(t, bufio.NewReader(resp.Body), 10_000)
	if len(frames) == 0 {
		t.Fatal("no SSE frames received")
	}
	last := frames[len(frames)-1]
	if last.event != string(jobs.StateDone) {
		t.Fatalf("final frame event = %q, want done (frames: %d)", last.event, len(frames))
	}
	// Every frame's data is the job snapshot JSON; ids increment from 0.
	for i, f := range frames {
		if f.id != strconv.Itoa(i) {
			t.Errorf("frame %d has id %q", i, f.id)
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal([]byte(f.data), &snap); err != nil {
			t.Fatalf("frame %d data is not a snapshot: %v (%q)", i, err, f.data)
		}
		if snap.ID != id {
			t.Errorf("frame %d is for job %q, want %q", i, snap.ID, id)
		}
	}
	// The terminal snapshot carries the tuner result.
	var final jobs.Snapshot
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}
	var res tune.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("terminal result is not a tune.Result: %v", err)
	}
	if res.Scenario != "4b-quick" || res.Best == nil || !res.Best.Feasible {
		t.Errorf("terminal result = scenario %q best %+v", res.Scenario, res.Best)
	}
}

// TestJobEventsHeartbeat: an idle stream emits comment heartbeats at the
// configured interval instead of going silent.
func TestJobEventsHeartbeat(t *testing.T) {
	s, ts := newTestServer(t, Options{JobWorkers: 1, SSEHeartbeat: 20 * time.Millisecond})

	release := make(chan struct{})
	defer close(release)
	id, err := s.jobs.Submit("blocker", nil, func(ctx context.Context, _ func(jobs.Progress)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)

	// Read until we have seen at least two heartbeat comments; the watchdog
	// deadline keeps a broken heartbeat from hanging the test.
	deadline := time.Now().Add(10 * time.Second)
	beats := 0
	for beats < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeats within deadline")
		}
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended before heartbeats: %v", err)
		}
		if strings.HasPrefix(line, ": heartbeat") {
			beats++
		}
	}
}

// TestJobEventsTerminalJob: streaming an already-finished job yields exactly
// its terminal frame and then EOF — `curl -N` exits immediately.
func TestJobEventsTerminalJob(t *testing.T) {
	_, ts := newTestServer(t, Options{JobWorkers: 1})
	id := submitOptimize(t, ts, "?scenario=4b-quick&strategy=beam", "")
	pollJob(t, ts, id) // wait until done

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames, _ := readSSE(t, bufio.NewReader(resp.Body), 10)
	if len(frames) != 1 {
		t.Fatalf("got %d frames for finished job, want exactly 1", len(frames))
	}
	if frames[0].event != string(jobs.StateDone) {
		t.Errorf("frame event = %q, want done", frames[0].event)
	}
}

// TestJobEventsCancelMidStream: cancelling a running job terminates its
// event stream with a cancelled frame.
func TestJobEventsCancelMidStream(t *testing.T) {
	s, ts := newTestServer(t, Options{JobWorkers: 1})
	started := make(chan struct{})
	id, err := s.jobs.Submit("cancel-me", nil, func(ctx context.Context, _ func(jobs.Progress)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+id, nil)
	cres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cres.Body.Close()

	frames, _ := readSSE(t, bufio.NewReader(resp.Body), 100)
	if len(frames) == 0 {
		t.Fatal("no frames before stream end")
	}
	if last := frames[len(frames)-1]; last.event != string(jobs.StateCancelled) {
		t.Errorf("final frame = %q, want cancelled", last.event)
	}
}

// TestJobEventsUnknownJob: a bad id is a JSON 404, not a hung stream.
func TestJobEventsUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body, _ := get(t, ts, "/api/v1/jobs/nope/events")
	if status != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", status)
	}
	if !strings.Contains(string(body), "unknown job") {
		t.Errorf("body = %s", body)
	}
}

// TestJobEventsActiveGauge: the SSE gauge tracks open streams.
func TestJobEventsActiveGauge(t *testing.T) {
	s, ts := newTestServer(t, Options{JobWorkers: 1})
	release := make(chan struct{})
	defer close(release)
	id, _ := s.jobs.Submit("hold", nil, func(ctx context.Context, _ func(jobs.Progress)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The stream preamble flushes before the gauge could be observed at 0
	// again, so once we can read the retry hint the gauge must be 1.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	_, fams := scrape(t, ts)
	if v := fams["vpserve_sse_streams_active"].samples[0].value; v != 1 {
		t.Errorf("sse active gauge = %v, want 1 while streaming", v)
	}
}
