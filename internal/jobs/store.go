// Durable job state: the store that lets a restarted coordinator remember
// what it was doing. A FileStore persists the queue's jobs — submissions,
// progress, results — as flat Records; the queue writes through on every
// lifecycle transition and replays the store at construction, so queued
// jobs resume, jobs that were mid-run re-run from scratch (job functions
// are deterministic searches, not ledgers), and finished results are still
// servable after a crash. The log is append-only JSON with last-wins
// replay and open-time compaction; `-state-dir` selects it in vpserve.
package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Record is the durable form of one job. Payload is the job's rehydration
// input — enough for Options.Rehydrate to rebuild the Func after a restart
// — and Result is the finished job's return value, pre-encoded so a
// restored job serves the identical JSON it would have served before the
// crash. Logs written before the job kind was dropped carry a "kind" field
// per record; decoding ignores it, so they still replay.
type Record struct {
	ID         string          `json:"id"`
	Name       string          `json:"name"`
	Payload    json.RawMessage `json:"payload,omitempty"`
	State      State           `json:"state"`
	Progress   Progress        `json:"progress"`
	Result     json.RawMessage `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at,omitempty"`
	FinishedAt *time.Time      `json:"finished_at,omitempty"`
}

// ErrStoreClosed is returned by writes to a closed store.
var ErrStoreClosed = errors.New("jobs: store closed")

// walOp is one line of the FileStore log.
type walOp struct {
	Op  string  `json:"op"` // "put" | "delete"
	ID  string  `json:"id,omitempty"`
	Rec *Record `json:"rec,omitempty"`
}

// FileStore is an append-only JSON-lines write-ahead log, safe for
// concurrent use. Every Put and Delete appends one line and fsyncs; replay
// is last-wins per job ID, a truncated final line (torn write at crash) is
// discarded, and opening compacts the log — the replayed state is
// rewritten as pure puts and atomically renamed over the old file, so the
// log's size tracks the live job count, not the queue's lifetime churn.
type FileStore struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	closed bool
}

// walName is the log's filename inside the state dir.
const walName = "jobs.wal"

// OpenFileStore opens (creating if needed) the job WAL in dir.
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: state dir: %w", err)
	}
	path := filepath.Join(dir, walName)
	recs, err := replayWAL(path)
	if err != nil {
		return nil, err
	}
	// Compact: rewrite the live set as puts, fsync, rename into place.
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: compacting store: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, rec := range recs {
		rec := rec
		if err := json.NewEncoder(w).Encode(walOp{Op: "put", Rec: &rec}); err != nil {
			f.Close()
			return nil, fmt.Errorf("jobs: compacting store: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: compacting store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: compacting store: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("jobs: compacting store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("jobs: compacting store: %w", err)
	}
	live, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: opening store: %w", err)
	}
	return &FileStore{path: path, f: live}, nil
}

// replayWAL reads the log into the last-wins live set, sorted by job ID.
// A missing file is an empty store; a torn final line is dropped. Lines are
// read whole, however long: whatever Put appended replays.
func replayWAL(path string) ([]Record, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: opening store: %w", err)
	}
	defer f.Close()
	live := make(map[string]Record)
	rd := bufio.NewReader(f)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("jobs: reading store: %w", err)
		}
		line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
		var op walOp // an empty line leaves it zero: no op
		if len(line) > 0 && json.Unmarshal(line, &op) != nil {
			// A torn tail from a crash mid-append; everything before it is
			// intact, so stop here rather than fail the whole store.
			break
		}
		switch op.Op {
		case "put":
			if op.Rec != nil {
				live[op.Rec.ID] = *op.Rec
			}
		case "delete":
			delete(live, op.ID)
		}
		if err == io.EOF {
			break
		}
	}
	out := make([]Record, 0, len(live))
	for _, r := range live {
		out = append(out, r)
	}
	sortRecords(out)
	return out, nil
}

func (s *FileStore) append(op walOp) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	line, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("jobs: encoding record: %w", err)
	}
	if _, err := s.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("jobs: appending record: %w", err)
	}
	return s.f.Sync()
}

// Put writes rec through; the last Put per ID wins at replay.
func (s *FileStore) Put(rec Record) error {
	return s.append(walOp{Op: "put", Rec: &rec})
}

// Delete drops the record with this ID from the live set.
func (s *FileStore) Delete(id string) error {
	return s.append(walOp{Op: "delete", ID: id})
}

// Load replays the log from disk. Called once by the queue at construction.
func (s *FileStore) Load() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return replayWAL(s.path)
}

// Close makes every subsequent write fail — the in-process equivalent of
// the process dying: a queue still holding this store keeps running, but
// none of its writes land, so a successor opening the same state dir sees
// only what was durable at the moment of the "kill".
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// sortRecords orders by the numeric job ID ("j17" → 17), so replayed
// submissions re-enter the queue in their original order. Equal numbers
// ("j7" and "j07", or malformed IDs) fall back to the ID text: the live set
// comes out of a map, and without the tie-break a replay's order would
// change from one open to the next.
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		ni, nj := jobIDNum(recs[i].ID), jobIDNum(recs[j].ID)
		return ni < nj || (ni == nj && recs[i].ID < recs[j].ID)
	})
}

// jobIDNum extracts the numeric part of a job ID; malformed IDs sort first.
func jobIDNum(id string) int {
	n := 0
	if len(id) < 2 || id[0] != 'j' {
		return -1
	}
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}
