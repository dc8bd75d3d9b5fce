package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// put stores key→val through DoCtx with a trivial compute.
func put(t *testing.T, c *Cache[string], key, val string) {
	t.Helper()
	got, outcome, err := c.DoCtx(context.Background(), key, func(context.Context) (string, error) { return val, nil })
	if err != nil || got != val {
		t.Fatalf("DoCtx(%q) = %q, %v, %v", key, got, outcome, err)
	}
}

// TestEvictionOrder drives a cache through table-driven access
// sequences and checks exactly which keys survive: LRU order, with Get and
// repeated DoCtx both counting as use.
func TestEvictionOrder(t *testing.T) {
	tests := []struct {
		name     string
		capacity int
		ops      []string // "put:k", "get:k"
		want     []string // keys that must be present afterwards
		wantGone []string // keys that must have been evicted
	}{
		{
			name:     "oldest evicted first",
			capacity: 3,
			ops:      []string{"put:a", "put:b", "put:c", "put:d"},
			want:     []string{"b", "c", "d"},
			wantGone: []string{"a"},
		},
		{
			name:     "get refreshes recency",
			capacity: 3,
			ops:      []string{"put:a", "put:b", "put:c", "get:a", "put:d"},
			want:     []string{"a", "c", "d"},
			wantGone: []string{"b"},
		},
		{
			name:     "do hit refreshes recency",
			capacity: 2,
			ops:      []string{"put:a", "put:b", "put:a", "put:c"},
			want:     []string{"a", "c"},
			wantGone: []string{"b"},
		},
		{
			name:     "capacity one keeps only the newest",
			capacity: 1,
			ops:      []string{"put:a", "put:b", "put:c"},
			want:     []string{"c"},
			wantGone: []string{"a", "b"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := New[string](tt.capacity)
			for _, op := range tt.ops {
				switch op[:4] {
				case "put:":
					put(t, c, op[4:], "v-"+op[4:])
				case "get:":
					c.Get(op[4:])
				}
			}
			for _, k := range tt.want {
				if _, ok := c.Get(k); !ok {
					t.Errorf("key %q evicted, want present", k)
				}
			}
			for _, k := range tt.wantGone {
				if _, ok := c.Get(k); ok {
					t.Errorf("key %q present, want evicted", k)
				}
			}
			if got := c.Len(); got > tt.capacity {
				t.Errorf("Len() = %d > capacity %d", got, tt.capacity)
			}
		})
	}
}

// TestHitMissAccounting locks the Stats counters to a deterministic access
// sequence.
func TestHitMissAccounting(t *testing.T) {
	c := New[int](4)
	do := func(key string) Outcome {
		_, outcome, err := c.DoCtx(context.Background(), key, func(context.Context) (int, error) { return len(key), nil })
		if err != nil {
			t.Fatal(err)
		}
		return outcome
	}
	if got := do("a"); got != Miss {
		t.Errorf("first DoCtx(a) = %v, want Miss", got)
	}
	if got := do("a"); got != Hit {
		t.Errorf("second DoCtx(a) = %v, want Hit", got)
	}
	do("b")
	do("a")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Deduped != 0 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 2 hits, 2 misses", st)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if got := st.HitRatePct(); got != 50 {
		t.Errorf("HitRatePct() = %v, want 50", got)
	}

	// Evictions count.
	for i := 0; i < 10; i++ {
		do(fmt.Sprintf("fill-%d", i))
	}
	if st := c.Stats(); st.Evictions == 0 || st.Entries != 4 {
		t.Errorf("after overfill: %+v, want evictions > 0 and 4 entries", st)
	}
}

// TestPutStoresWithoutCounting pins Put: it stores as the most recently used
// entry, replaces an existing value, evicts past capacity like a computed
// value, and leaves the hit/miss ledger alone. Get counts its lookups: a
// found key is a hit, a missing one a miss. A later DoCtx on a Put key hits.
func TestPutStoresWithoutCounting(t *testing.T) {
	c := New[string](2)
	c.Put("a", "1")
	c.Put("b", "2")
	c.Put("a", "3") // replaces, and makes b the oldest
	c.Put("c", "4") // evicts b
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Deduped != 0 || st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want no lookups counted, 1 eviction, 2 entries", st)
	}
	if v, ok := c.Get("a"); !ok || v != "3" {
		t.Errorf("Get(a) = %q, %v; want 3, true", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived past capacity, want it evicted as the oldest")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Deduped != 0 {
		t.Errorf("stats = %+v, want Get's hit on a and miss on b counted", st)
	}
	v, outcome, err := c.DoCtx(context.Background(), "c", func(context.Context) (string, error) { return "recomputed", nil })
	if err != nil || outcome != Hit || v != "4" {
		t.Errorf("DoCtx(c) = %q, %v, %v; want the stored 4 as a hit", v, outcome, err)
	}
}

// TestDedupConcurrent fires many concurrent DoCtx calls for one key and proves
// the compute ran exactly once: one Miss, everyone else coalesced onto it.
func TestDedupConcurrent(t *testing.T) {
	const waiters = 32
	c := New[int](8)
	var computes atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, outcome, err := c.DoCtx(context.Background(), "grid", func(context.Context) (int, error) {
				computes.Add(1)
				close(entered)
				<-release // hold the computation until every waiter has queued
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("DoCtx = %d, %v", v, err)
			}
			outcomes[i] = outcome
		}(i)
	}
	<-entered // the leader is inside compute; everyone else must coalesce
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times under %d concurrent identical requests, want 1", got, waiters)
	}
	counts := map[Outcome]int{}
	for _, o := range outcomes {
		counts[o]++
	}
	if counts[Miss] != 1 {
		t.Errorf("outcomes = %v, want exactly 1 Miss", counts)
	}
	if counts[Deduped]+counts[Hit] != waiters-1 {
		t.Errorf("outcomes = %v, want %d coalesced", counts, waiters-1)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Deduped != waiters-1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestErrorsNotCached proves a failing compute reaches every coalesced
// waiter but leaves the key uncached, so the next request retries.
func TestErrorsNotCached(t *testing.T) {
	c := New[int](8)
	boom := errors.New("boom")
	if _, _, err := c.DoCtx(context.Background(), "k", func(context.Context) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("error result was cached")
	}
	v, outcome, err := c.DoCtx(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 || outcome != Miss {
		t.Fatalf("retry = %d, %v, %v; want 7, Miss, nil", v, outcome, err)
	}
	if st := c.Stats(); st.Misses != 3 {
		t.Errorf("stats = %+v, want 3 misses (two DoCtx, one Get)", st)
	}
}

// TestCapacityIsGlobal: a cache of capacity n holds exactly its n most
// recently used keys, whatever the keys are. In particular New(16) holding
// k9 keeps it when k12 arrives: one capacity bounds the whole key space.
func TestCapacityIsGlobal(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 100} {
		c := New[string](n)
		for i := 0; i < 3*n; i++ {
			put(t, c, fmt.Sprintf("k%d", i), "v")
			if got, want := c.Len(), min(i+1, n); got != want {
				t.Fatalf("New(%d) after %d puts: Len() = %d, want %d", n, i+1, got, want)
			}
		}
		for i := 0; i < 3*n; i++ {
			if _, ok := c.Get(fmt.Sprintf("k%d", i)); ok != (i >= 2*n) {
				t.Errorf("New(%d): k%d present = %v, want %v", n, i, ok, i >= 2*n)
			}
		}
		if st := c.Stats(); st.Capacity != n || st.Evictions != int64(2*n) {
			t.Errorf("New(%d): capacity %d, evictions %d; want %d, %d", n, st.Capacity, st.Evictions, n, 2*n)
		}
	}

	c := New[string](16)
	put(t, c, "k9", "v")
	put(t, c, "k12", "v")
	if _, ok := c.Get("k9"); !ok {
		t.Fatal("New(16) evicted k9 after one more insert, with 14 slots free")
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("New(16) after two puts: %+v, want 2 entries and no evictions", st)
	}
	if st := New[int](0).Stats(); st.Capacity != 1 {
		t.Errorf("New(0) capacity = %d, want 1", st.Capacity)
	}
}

// TestConcurrentMixed hammers distinct and shared keys together; run under
// -race this is the cache's race-cleanliness proof.
func TestConcurrentMixed(t *testing.T) {
	c := New[int](32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%40)
				v, _, err := c.DoCtx(context.Background(), key, func(context.Context) (int, error) { return i % 40, nil })
				if err != nil || v != i%40 {
					t.Errorf("DoCtx(%q) = %d, %v", key, v, err)
					return
				}
				c.Get(key)
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	// Each iteration is two counted lookups: the DoCtx and the Get.
	if total := st.Hits + st.Misses + st.Deduped; total != 2*8*200 {
		t.Errorf("lookups = %d, want %d", total, 2*8*200)
	}
}

// --- DoCtx cancellation semantics ---

// TestDoCtxWaiterExpiryDoesNotPoison is the satellite contract: a coalesced
// waiter whose context expires gets its context error immediately, while the
// in-flight computation finishes for the patient waiters and is cached —
// the impatient waiter must not poison the entry for anyone else.
func TestDoCtxWaiterExpiryDoesNotPoison(t *testing.T) {
	c := New[string](8)
	started := make(chan struct{})
	release := make(chan struct{})

	// Leader: computes until released.
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.DoCtx(context.Background(), "k", func(ctx context.Context) (string, error) {
			close(started)
			<-release
			return "value", nil
		})
		leaderDone <- err
	}()
	<-started

	// Impatient waiter: its context dies while coalesced.
	wctx, wcancel := context.WithCancel(context.Background())
	impatient := make(chan error, 1)
	go func() {
		_, outcome, err := c.DoCtx(wctx, "k", func(context.Context) (string, error) {
			t.Error("coalesced waiter must never compute")
			return "", nil
		})
		if outcome != Deduped {
			t.Errorf("impatient waiter outcome = %v, want Deduped", outcome)
		}
		impatient <- err
	}()

	// Patient waiter: stays until the value arrives.
	patient := make(chan string, 1)
	go func() {
		v, _, err := c.DoCtx(context.Background(), "k", func(context.Context) (string, error) {
			t.Error("coalesced waiter must never compute")
			return "", nil
		})
		if err != nil {
			t.Errorf("patient waiter: %v", err)
		}
		patient <- v
	}()

	// Give both waiters a moment to coalesce, then expire the impatient one.
	waitForDeduped(t, c, 2)
	wcancel()
	if err := <-impatient; !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient waiter error = %v, want context.Canceled", err)
	}

	// The computation was not cancelled by the waiter's departure.
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader error: %v", err)
	}
	if v := <-patient; v != "value" {
		t.Fatalf("patient waiter got %q", v)
	}
	// The entry is cached and healthy for later callers.
	v, outcome, err := c.DoCtx(context.Background(), "k", func(context.Context) (string, error) {
		t.Error("cached key recomputed")
		return "", nil
	})
	if err != nil || v != "value" || outcome != Hit {
		t.Fatalf("follow-up DoCtx = %q, %v, %v; want cached value", v, outcome, err)
	}
}

// waitForDeduped spins until n DoCtx calls have coalesced (deduped counter).
func waitForDeduped(t *testing.T, c *Cache[string], n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().Deduped >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never saw %d coalesced waiters: %+v", n, c.Stats())
}

// TestDoCtxAllCallersGoneCancelsCompute: when every interested caller
// abandons the key, the computation's context is cancelled, its (discarded)
// result is not cached, and a later caller recomputes freshly.
func TestDoCtxAllCallersGoneCancelsCompute(t *testing.T) {
	c := New[string](8)
	started := make(chan struct{})
	computeCtxDone := make(chan error, 1)

	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, _, err := c.DoCtx(ctx, "k", func(cctx context.Context) (string, error) {
			close(started)
			<-cctx.Done() // the compute context must die with its last caller
			computeCtxDone <- cctx.Err()
			return "orphaned", cctx.Err()
		})
		res <- err
	}()
	<-started
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller error = %v, want context.Canceled", err)
	}
	if err := <-computeCtxDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("compute ctx error = %v, want context.Canceled", err)
	}

	// Nothing was cached; a fresh caller recomputes and succeeds.
	v, outcome, err := c.DoCtx(context.Background(), "k", func(context.Context) (string, error) { return "fresh", nil })
	if err != nil || v != "fresh" || outcome != Miss {
		t.Fatalf("recompute = %q, %v, %v; want fresh miss", v, outcome, err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want only the fresh value", st.Entries)
	}
}

// TestDoCtxLeaderLeavesWaiterInherits: the first caller (which started the
// computation) abandons, but a second coalesced caller keeps the key alive;
// the computation completes, the survivor gets the value, and it is cached.
func TestDoCtxLeaderLeavesWaiterInherits(t *testing.T) {
	c := New[string](8)
	started := make(chan struct{})
	release := make(chan struct{})

	lctx, lcancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.DoCtx(lctx, "k", func(ctx context.Context) (string, error) {
			close(started)
			select {
			case <-release:
				return "survived", nil
			case <-ctx.Done():
				return "", ctx.Err()
			}
		})
		leader <- err
	}()
	<-started

	survivor := make(chan string, 1)
	go func() {
		v, _, err := c.DoCtx(context.Background(), "k", func(context.Context) (string, error) {
			t.Error("survivor must not compute")
			return "", nil
		})
		if err != nil {
			t.Errorf("survivor: %v", err)
		}
		survivor <- v
	}()
	waitForDeduped(t, c, 1)

	lcancel() // the leader walks away; the survivor still wants the value
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v", err)
	}
	close(release)
	if v := <-survivor; v != "survived" {
		t.Fatalf("survivor got %q", v)
	}
	if _, ok := c.Get("k"); !ok {
		t.Fatal("value not cached after the leader left")
	}
}

// TestDoCtxPreCancelled: a caller arriving with a dead context on a cold key
// gets the context error and caches nothing.
func TestDoCtxPreCancelled(t *testing.T) {
	c := New[string](8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.DoCtx(ctx, "k", func(cctx context.Context) (string, error) {
		return "", cctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d, want 0", st.Entries)
	}
}
