package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0).UTC()
	put := func(id string, state State) {
		t.Helper()
		if err := s.Put(Record{ID: id, Name: "n-" + id, State: state,
			Payload: json.RawMessage(`{"x":1}`), CreatedAt: now}); err != nil {
			t.Fatal(err)
		}
	}
	put("j2", StateQueued)
	put("j1", StateRunning)
	put("j1", StateDone) // last write wins
	if err := s.Delete("j3"); err != nil {
		t.Fatal(err) // deleting a never-put ID is fine
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Record{ID: "j9"}); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("Put after Close = %v, want ErrStoreClosed", err)
	}

	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "j1" || recs[1].ID != "j2" {
		t.Fatalf("replayed %+v, want j1 (done) then j2 (queued)", recs)
	}
	if recs[0].State != StateDone || string(recs[0].Payload) != `{"x":1}` {
		t.Errorf("j1 = %+v, want last-wins done state with payload intact", recs[0])
	}
	// Reopening compacted the log: the live set is 2 records, so the file
	// holds exactly 2 lines regardless of the 4 ops that produced them.
	raw, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 2 {
		t.Errorf("compacted WAL has %d lines, want 2:\n%s", lines, raw)
	}
}

func TestFileStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(Record{ID: "j1", State: StateDone})
	s.Close()
	// Simulate a crash mid-append: a half-written JSON line at the tail.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"put","rec":{"id":"j2","st`)
	f.Close()

	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer s2.Close()
	recs, _ := s2.Load()
	if len(recs) != 1 || recs[0].ID != "j1" {
		t.Fatalf("replayed %+v, want only the intact j1", recs)
	}
}

// TestFileStoreReplaysLargeRecord: a record Put accepts replays, however
// long its line. A 17 MiB result is past the 16 MiB line cap replay once
// had, which made the store unopenable over its own log.
func TestFileStoreReplaysLargeRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	result := json.RawMessage(`"` + strings.Repeat("r", 17<<20) + `"`)
	if err := s.Put(Record{ID: "j1", State: StateDone, Result: result}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Record{ID: "j2", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("reopening a store holding a 17 MiB record: %v", err)
	}
	defer s2.Close()
	recs, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "j1" || recs[1].ID != "j2" {
		t.Fatalf("replayed %d records, want j1 and j2", len(recs))
	}
	if !bytes.Equal(recs[0].Result, result) {
		t.Fatalf("the 17 MiB result came back as %d different bytes", len(recs[0].Result))
	}
}

// TestWALCrashPoints records a job history through a real FileStore — a job
// that finishes, one that fails, one running at the crash and one cancelled
// while queued — and reopens the log cut at every record boundary and at
// every byte of its last record. Every cut must open, and the restored
// queue must be the history after the last whole record: done, failed and
// cancelled jobs keep their results and errors byte for byte, queued jobs
// stay queued, a running job comes back queued at zero progress, and a job
// whose cancel record is whole never runs. Rehydrated jobs block until the
// queue closes, so the one worker holds the first re-queued job and the
// rest stay observably queued. Bit flips are out of scope: the log has no
// checksums.
func TestWALCrashPoints(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := New(Options{Workers: 1, Store: store})
	submit := func(name string, fn Func) string {
		t.Helper()
		id, err := q.Submit(name, name, fn)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	done := submit("done", func(ctx context.Context, report func(Progress)) (any, error) {
		report(Progress{Done: 3, Total: 3, Note: "d8/m128/vocab-1"})
		return map[string]any{"best": "d8/m128/vocab-1", "score": 0.5425193213041748}, nil
	})
	waitState(t, q, done, StateDone)
	failed := submit("failed", func(ctx context.Context, report func(Progress)) (any, error) {
		return nil, errors.New("tune: search space has 5000 candidates, limit 4096")
	})
	waitState(t, q, failed, StateFailed)
	running := submit("running", func(ctx context.Context, report func(Progress)) (any, error) {
		report(Progress{Done: 1, Total: 4})
		<-ctx.Done()
		return nil, ctx.Err()
	})
	waitState(t, q, running, StateRunning)
	cancelled := submit("cancelled", func(ctx context.Context, report func(Progress)) (any, error) {
		t.Error("the job cancelled while queued ran")
		return nil, nil
	})
	if s, _ := q.Cancel(cancelled); s.State != StateCancelled {
		t.Fatalf("cancelled job = %s", s.State)
	}
	store.Close() // the crash: nothing the dying queue writes lands
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}

	// The history: each record's job, and the offset just past its JSON.
	type entry struct {
		rec Record
		end int
	}
	var history []entry
	for start := 0; start < len(wal); {
		n := bytes.IndexByte(wal[start:], '\n')
		var op walOp
		if err := json.Unmarshal(wal[start:start+n], &op); err != nil || op.Op != "put" {
			t.Fatalf("WAL record at byte %d: %v", start, err)
		}
		history = append(history, entry{*op.Rec, start + n})
		start += n + 1
	}
	if len(history) != 10 {
		t.Fatalf("history has %d records, want 10 (3 transitions each for the finished jobs, 2 for the others)", len(history))
	}
	cuts := []int{0}
	for _, e := range history {
		cuts = append(cuts, e.end+1)
	}
	for c := history[len(history)-2].end + 2; c < len(wal); c++ {
		cuts = append(cuts, c) // every byte of the last record
	}
	names := map[string]string{done: "done", failed: "failed", running: "running", cancelled: "cancelled"}

	for _, cut := range cuts {
		want := map[string]Record{}
		for _, e := range history {
			if e.end <= cut {
				want[e.rec.ID] = e.rec
			}
		}
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, walName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenFileStore(cdir)
		if err != nil {
			t.Fatalf("cut at byte %d of %d: open: %v", cut, len(wal), err)
		}
		rehydrated := map[string]bool{}
		started := make(chan string, len(names))
		q := New(Options{Workers: 1, Store: st, Rehydrate: func(payload json.RawMessage) (Func, error) {
			var name string
			if err := json.Unmarshal(payload, &name); err != nil {
				return nil, err
			}
			rehydrated[name] = true
			return func(ctx context.Context, report func(Progress)) (any, error) {
				started <- name
				<-ctx.Done()
				return nil, ctx.Err()
			}, nil
		}})
		// The one worker takes the first re-queued job, in job order.
		first := ""
		for _, id := range []string{done, failed, running, cancelled} {
			if r, ok := want[id]; ok && !r.State.Terminal() {
				first = id
				select {
				case got := <-started:
					if got != names[id] {
						t.Fatalf("cut at byte %d: the re-queued %s job ran first, want %s", cut, got, names[id])
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("cut at byte %d: no re-queued job ran; want %s", cut, names[id])
				}
				break
			}
		}
		for id, name := range names {
			s, ok := q.Get(id)
			r, known := want[id]
			switch {
			case ok != known:
				t.Errorf("cut at byte %d: %s job restored = %v, want %v", cut, name, ok, known)
			case !known:
			case r.State.Terminal():
				got, _ := json.Marshal(s.Result)
				if s.Result == nil {
					got = nil
				}
				if s.State != r.State || s.Error != r.Error || !bytes.Equal(got, r.Result) || rehydrated[name] {
					t.Errorf("cut at byte %d: %s job restored as %s (error %q, result %s, rehydrated %v), want %s (error %q, result %s)",
						cut, name, s.State, s.Error, got, rehydrated[name], r.State, r.Error, r.Result)
				}
			default:
				wantState := StateQueued
				if id == first {
					wantState = StateRunning
				}
				if s.State != wantState || s.Progress != (Progress{}) || s.Error != "" || s.Result != nil || !rehydrated[name] {
					t.Errorf("cut at byte %d: %s job (last whole record %s) restored as %+v, rehydrated %v; want %s at zero progress",
						cut, name, r.State, s, rehydrated[name], wantState)
				}
			}
		}
		if err := q.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
}

// openStore opens a FileStore in a fresh temp dir, closed at cleanup.
func openStore(t testing.TB) *FileStore {
	t.Helper()
	s, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestQueueRestore: a queue over a replayed store serves finished results,
// resumes queued jobs, re-runs jobs that were mid-run at the crash, and
// fails a job whose payload the rehydrator refuses.
func TestQueueRestore(t *testing.T) {
	store := openStore(t)
	ran := make(chan string, 8)
	rehydrate := func(payload json.RawMessage) (Func, error) {
		var v map[string]int
		if err := json.Unmarshal(payload, &v); err != nil {
			return nil, err
		}
		return func(ctx context.Context, report func(Progress)) (any, error) {
			ran <- string(payload)
			return v, nil
		}, nil
	}
	// Seed the store as a dead coordinator would have left it: one finished
	// job, one queued, one caught mid-run, one whose payload no longer
	// rehydrates.
	now := time.Unix(2000, 0).UTC()
	store.Put(Record{ID: "j1", Name: "finished", State: StateDone,
		Result: json.RawMessage(`{"best":42}`), CreatedAt: now})
	store.Put(Record{ID: "j2", Name: "queued", State: StateQueued,
		Payload: json.RawMessage(`{"a":1}`), CreatedAt: now})
	store.Put(Record{ID: "j3", Name: "mid-run", State: StateRunning,
		Payload: json.RawMessage(`{"b":2}`), CreatedAt: now})
	store.Put(Record{ID: "j4", Name: "orphan", State: StateQueued,
		Payload: json.RawMessage(`"not an object"`), CreatedAt: now})

	q := New(Options{Workers: 1, Store: store, Rehydrate: rehydrate})
	defer q.Close(context.Background())

	// The finished job still serves its exact result bytes.
	s1, ok := q.Get("j1")
	if !ok || s1.State != StateDone {
		t.Fatalf("restored finished job = %+v", s1)
	}
	if raw, _ := json.Marshal(s1.Result); string(raw) != `{"best":42}` {
		t.Errorf("restored result = %s, want the persisted bytes verbatim", raw)
	}
	// Queued and mid-run jobs both run to done.
	waitState(t, q, "j2", StateDone)
	waitState(t, q, "j3", StateDone)
	reran := map[string]bool{}
	for i := 0; i < 2; i++ {
		reran[<-ran] = true
	}
	if !reran[`{"a":1}`] || !reran[`{"b":2}`] {
		t.Errorf("resumed payloads = %v, want both the queued and the mid-run job", reran)
	}
	// The refused payload settles as failed, with the reason in the error.
	s4, _ := q.Get("j4")
	if s4.State != StateFailed || !strings.Contains(s4.Error, "rehydrating job j4") {
		t.Errorf("orphan job = %+v, want failed with a rehydration error", s4)
	}
	// New submissions continue the ID sequence instead of colliding.
	id, err := q.Submit("fresh", nil, func(ctx context.Context, report func(Progress)) (any, error) {
		return nil, nil
	})
	if err != nil || id != "j5" {
		t.Fatalf("post-restore Submit = (%q, %v), want j5", id, err)
	}
}

// TestDurableLifecyclePersists: every transition of a job lands in the
// store, a user cancel persists as cancelled, and a shutdown persists a
// running job as queued — the resume intent.
func TestDurableLifecyclePersists(t *testing.T) {
	store := openStore(t)
	q := New(Options{Workers: 1, Store: store})

	// Done path.
	id, err := q.Submit("search", map[string]int{"n": 1},
		func(ctx context.Context, report func(Progress)) (any, error) {
			report(Progress{Done: 1, Total: 2, Note: "half"})
			return "answer", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, id, StateDone)
	recs, _ := store.Load()
	if len(recs) != 1 || recs[0].State != StateDone || string(recs[0].Result) != `"answer"` {
		t.Fatalf("store after done = %+v", recs)
	}
	if recs[0].Progress.Note != "half" || string(recs[0].Payload) != `{"n":1}` {
		t.Errorf("progress or payload not persisted: %+v", recs[0])
	}

	// User cancel of a running job persists cancelled.
	block := make(chan struct{})
	cid, _ := q.Submit("cancel-me", nil,
		func(ctx context.Context, report func(Progress)) (any, error) {
			close(block)
			<-ctx.Done()
			return nil, ctx.Err()
		})
	<-block
	q.Cancel(cid)
	waitState(t, q, cid, StateCancelled)
	found := false
	recs, _ = store.Load()
	for _, r := range recs {
		if r.ID == cid {
			found = true
			if r.State != StateCancelled {
				t.Errorf("user-cancelled job persisted as %q, want cancelled", r.State)
			}
		}
	}
	if !found {
		t.Fatalf("cancelled job missing from store: %+v", recs)
	}

	// Shutdown while a job runs: memory says cancelled (this process's
	// truth), the store says queued (the successor's orders).
	block2 := make(chan struct{})
	sid, _ := q.Submit("survive-me", map[string]int{"n": 2},
		func(ctx context.Context, report func(Progress)) (any, error) {
			close(block2)
			<-ctx.Done()
			return nil, ctx.Err()
		})
	<-block2
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s, _ := q.Get(sid); s.State != StateCancelled {
		t.Fatalf("in-memory state after shutdown = %q, want cancelled", s.State)
	}
	recs, _ = store.Load()
	for _, r := range recs {
		if r.ID == sid {
			if r.State != StateQueued {
				t.Errorf("shutdown-cancelled job persisted as %q, want queued", r.State)
			}
			if r.Error != "" || r.FinishedAt != nil {
				t.Errorf("resume-intent record carries terminal residue: %+v", r)
			}
			return
		}
	}
	t.Fatalf("job %s missing from store after shutdown: %+v", sid, recs)
}

// TestProgressReportsWriteNothing: progress reports publish to pollers and
// watchers but write nothing to the store; only transitions do, each with
// the progress as of then. A durable job that reports 100 times leaves
// three WAL records — queued, running, done — not one fsync'd record per
// report, and the last carries the final progress.
func TestProgressReportsWriteNothing(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	q := newQueue(t, Options{Workers: 1, Store: store})
	id, err := q.Submit("search", map[string]int{"n": 1},
		func(ctx context.Context, report func(Progress)) (any, error) {
			for i := 1; i <= 100; i++ {
				report(Progress{Done: i, Total: 100})
			}
			return "answer", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, id, StateDone)

	raw, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	var states []State
	var last Progress
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var op walOp
		if err := json.Unmarshal(line, &op); err != nil || op.Rec == nil {
			t.Fatalf("WAL line %q: %v", line, err)
		}
		states = append(states, op.Rec.State)
		last = op.Rec.Progress
	}
	if want := []State{StateQueued, StateRunning, StateDone}; !reflect.DeepEqual(states, want) {
		t.Fatalf("a job that reported 100 times left %d WAL records %v, want %v", len(states), states, want)
	}
	if last != (Progress{Done: 100, Total: 100}) {
		t.Errorf("done record carries progress %+v, want the final 100 of 100", last)
	}
}

// TestRestoredJobStartsAtZeroProgress: a job that died mid-run at 9 of 56
// re-queues at zero progress — the dead run's count is not the re-run's —
// and shows progress again only once the re-run reports.
func TestRestoredJobStartsAtZeroProgress(t *testing.T) {
	store := openStore(t)
	store.Put(Record{ID: "j1", Name: "mid-run", State: StateRunning, Payload: json.RawMessage(`{}`),
		Progress: Progress{Done: 9, Total: 56}, CreatedAt: time.Unix(2000, 0).UTC()})
	gate := make(chan struct{})
	rehydrate := func(json.RawMessage) (Func, error) {
		return func(ctx context.Context, report func(Progress)) (any, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			report(Progress{Done: 56, Total: 56})
			return nil, nil
		}, nil
	}
	q := newQueue(t, Options{Workers: 1, Store: store, Rehydrate: rehydrate})

	if s, _ := q.Get("j1"); s.Progress != (Progress{}) {
		t.Errorf("restored job (%s) shows %d of %d done before its re-run reported, want zero", s.State, s.Progress.Done, s.Progress.Total)
	}
	close(gate)
	if s := waitState(t, q, "j1", StateDone); s.Progress != (Progress{Done: 56, Total: 56}) {
		t.Errorf("re-run finished at progress %+v, want its own report", s.Progress)
	}
}

// TestSubmitEncodesPayloadOnlyWithStore: the payload is the rehydration
// input, so a queue without a store never encodes it, and one with a store
// refuses a payload it cannot persist.
func TestSubmitEncodesPayloadOnlyWithStore(t *testing.T) {
	noop := func(ctx context.Context, report func(Progress)) (any, error) { return nil, nil }
	unencodable := make(chan int)

	q := New(Options{Workers: 1})
	defer q.Close(context.Background())
	id, err := q.Submit("memory", unencodable, noop)
	if err != nil {
		t.Fatalf("Submit without a store = %v, want the payload ignored", err)
	}
	waitState(t, q, id, StateDone)

	dq := New(Options{Workers: 1, Store: openStore(t)})
	defer dq.Close(context.Background())
	if _, err := dq.Submit("durable", unencodable, noop); err == nil || !strings.Contains(err.Error(), "encoding durable payload") {
		t.Fatalf("Submit with a store = %v, want a payload encoding error", err)
	}
	if st := dq.Stats(); st.Submitted != 0 || st.Queued != 0 {
		t.Errorf("a refused payload was still enqueued: %+v", st)
	}
}

// TestPruneDeletesFromStore: the retention cap applies to the store too.
func TestPruneDeletesFromStore(t *testing.T) {
	store := openStore(t)
	q := New(Options{Workers: 1, KeepFinished: 2, Store: store})
	defer q.Close(context.Background())
	noop := func(ctx context.Context, report func(Progress)) (any, error) { return nil, nil }
	var last string
	for i := 0; i < 5; i++ {
		id, err := q.Submit("n", nil, noop)
		if err != nil {
			t.Fatal(err)
		}
		last = id
		waitState(t, q, id, StateDone)
	}
	// One more submission triggers pruning of the overflow.
	if _, err := q.Submit("n", nil, noop); err != nil {
		t.Fatal(err)
	}
	waitState(t, q, last, StateDone)
	recs, _ := store.Load()
	memory := q.List()
	if len(recs) > len(memory) {
		t.Fatalf("store holds %d records but memory %d — a restart would resurrect pruned jobs", len(recs), len(memory))
	}
	inMem := map[string]bool{}
	for _, s := range memory {
		inMem[s.ID] = true
	}
	for _, r := range recs {
		if !inMem[r.ID] {
			t.Errorf("store record %s has no in-memory job", r.ID)
		}
	}
}

// FuzzFileStoreReplay feeds arbitrary bytes to a store as its jobs.wal.
// Opening either fails or yields a live set sorted by job number; a reopen
// after the open-time compaction yields the same records; and a queue
// restored over the store never panics: every job it restores is terminal
// or queued (or running on its one worker), and each non-terminal record
// either resumed or, refused by the rehydrator, failed.
func FuzzFileStoreReplay(f *testing.F) {
	t0 := time.Unix(2000, 0).UTC()
	var seed []byte
	for _, op := range []walOp{
		{Op: "put", Rec: &Record{ID: "j1", Name: "done", State: StateDone, Result: json.RawMessage(`{"best":1}`), CreatedAt: t0}},
		{Op: "put", Rec: &Record{ID: "j2", Name: "queued", State: StateQueued, Payload: json.RawMessage(`{"a":1}`), CreatedAt: t0}},
		{Op: "put", Rec: &Record{ID: "j3", Name: "running", State: StateRunning, Payload: json.RawMessage(`[1]`), CreatedAt: t0}},
		{Op: "delete", ID: "j1"},
	} {
		line, err := json.Marshal(op)
		if err != nil {
			f.Fatal(err)
		}
		seed = append(append(seed, line...), '\n')
	}
	f.Add(seed)
	// A record as logs before the job kind was dropped wrote it.
	f.Add([]byte(`{"op":"put","rec":{"id":"j7","name":"optimize/4b-quick/beam","kind":"optimize","payload":{"scenario":"4b-quick","strategy":"beam"},"state":"running","progress":{"done":0,"total":0},"created_at":"2026-01-01T00:00:00Z"}}` + "\n"))
	f.Add(append(seed, `{"op":"put","rec":{"id":"j4","st`...))
	f.Add([]byte(`{"op":"put","rec":{"id":"x","state":"bogus"}}` + "\n" + `{"op":"put","rec":{"id":"","state":"queued"}}` + "\n"))

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFileStore(dir)
		if err != nil {
			return // refusing the log is allowed; panicking or misreading it is not
		}
		recs, err := s.Load()
		s.Close()
		if err != nil {
			t.Fatalf("Load after a successful open: %v", err)
		}
		for i := 1; i < len(recs); i++ {
			if jobIDNum(recs[i-1].ID) > jobIDNum(recs[i].ID) {
				t.Fatalf("Load out of job order: %q before %q", recs[i-1].ID, recs[i].ID)
			}
		}
		store, err := OpenFileStore(dir)
		if err != nil {
			t.Fatalf("reopening the compacted log: %v", err)
		}
		defer store.Close()
		again, err := store.Load()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(recs)
		got, _ := json.Marshal(again)
		if !bytes.Equal(got, want) {
			t.Fatalf("reopen after compaction changed the records:\n got %s\nwant %s", got, want)
		}

		// Objects rehydrate into a job that holds its worker until shutdown;
		// any other payload is refused.
		rehydrate := func(payload json.RawMessage) (Func, error) {
			if !bytes.HasPrefix(payload, []byte("{")) {
				return nil, errors.New("not an object")
			}
			return func(ctx context.Context, _ func(Progress)) (any, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}, nil
		}
		q := New(Options{Workers: 1, Store: store, Rehydrate: rehydrate})
		snaps := map[string]Snapshot{}
		for _, s := range q.List() {
			snaps[s.ID] = s
		}
		running := 0
		for _, rec := range again {
			s, ok := snaps[rec.ID]
			switch {
			case !ok:
				t.Errorf("record %q was not restored", rec.ID)
			case rec.State.Terminal():
				if s.State != rec.State {
					t.Errorf("terminal record %q restored as %s, want %s", rec.ID, s.State, rec.State)
				}
			case !bytes.HasPrefix(rec.Payload, []byte("{")):
				if s.State != StateFailed {
					t.Errorf("refused record %q restored as %s, want failed", rec.ID, s.State)
				}
			case s.State == StateRunning:
				running++
			case s.State != StateQueued:
				t.Errorf("resumable record %q (state %q) restored as %s", rec.ID, rec.State, s.State)
			}
		}
		if running > 1 {
			t.Errorf("%d restored jobs running on one worker", running)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := q.Close(ctx); err != nil {
			t.Fatal(err)
		}
	})
}
