// Server-Sent Events streaming of job progress. GET /api/v1/jobs/{id}/events
// replays the job's current snapshot immediately, then pushes coalesced
// progress updates as they happen, with comment-line heartbeats keeping
// intermediaries from reaping the idle connection. The stream terminates
// itself — clean EOF — once the job reaches a terminal state, so
// `curl -N .../events` exits on its own when the job finishes.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"vocabpipe/internal/jobs"
)

// handleJobEvents streams job snapshots as SSE frames. Event names mirror
// job states (queued/running/done/failed/cancelled); each frame's data is
// the canonical job schema (jobView) — byte-compatible with what
// GET /api/v1/jobs/{id} returns.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, stop, ok := s.jobs.Watch(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, ErrJobNotFound, map[string]any{"id": id}, "unknown job %q", id)
		return
	}
	defer stop()

	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, r, http.StatusInternalServerError, ErrInternal, nil, "streaming unsupported by connection")
		return
	}

	// Counted before the preamble goes out: a client that has read it must
	// already see its stream in the gauge.
	s.sseActive.Add(1)
	defer s.sseActive.Add(-1)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	// Ask reconnecting EventSource clients to back off a little.
	fmt.Fprint(w, "retry: 2000\n\n")
	flusher.Flush()

	heartbeat := time.NewTicker(s.opt.SSEHeartbeat)
	defer heartbeat.Stop()

	eventID := 0
	for {
		select {
		case <-r.Context().Done():
			return // client went away
		case <-heartbeat.C:
			// Comment line: ignored by EventSource, keeps the pipe warm.
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case snap, open := <-ch:
			if !open {
				return // terminal snapshot already delivered
			}
			if err := writeSSE(w, eventID, snap); err != nil {
				return
			}
			flusher.Flush()
			eventID++
			if snap.State.Terminal() {
				return
			}
		}
	}
}

// writeSSE emits one frame. JSON marshals to a single line, so one data:
// field suffices.
func writeSSE(w http.ResponseWriter, id int, snap jobs.Snapshot) error {
	data, err := json.Marshal(viewJob(snap))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, snap.State, data)
	return err
}
