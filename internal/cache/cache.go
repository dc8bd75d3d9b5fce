// Package cache is an LRU result cache with in-flight request
// deduplication, the memory behind the vpserve HTTP API. Keys are canonical
// grid identities (sweep.Grid.Key); values are whatever a compute function
// produced for that key.
//
// DoCtx is the counted entry point: a cached key returns immediately (hit),
// a key someone else is already computing blocks until that computation
// finishes and shares its value (dedup — a thundering herd on one grid
// computes it once), and otherwise the caller computes, stores and returns
// (miss). Errors are propagated to every
// coalesced waiter but never cached, so a transient failure does not poison
// the key. Get and Put read and store an entry directly, without a
// computation and without touching the counters.
//
// One mutex guards the map and the recency list, and computations run
// outside it, so the lock is held only for a map lookup and a list update.
// Eviction is LRU over the whole capacity.
package cache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Cache is an LRU with singleflight-style dedup. The zero value is not
// usable; construct with New.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	inflight map[string]*call[V]

	hits      atomic.Int64
	misses    atomic.Int64
	deduped   atomic.Int64
	evictions atomic.Int64
}

type entry[V any] struct {
	key string
	val V
}

// call is one in-flight computation; waiters block on done. The computation
// runs on its own goroutine with a context detached from any single caller:
// refs counts the callers still interested, and when the last one abandons
// (its own context expired) cancel fires so orphaned work stops. A waiter
// leaving early therefore never poisons the entry — the computation keeps
// running for the remaining waiters and caches normally.
type call[V any] struct {
	done   chan struct{}
	val    V
	err    error
	refs   int // guarded by the cache's mu
	cancel context.CancelFunc
}

// New returns a cache holding up to capacity entries (minimum one).
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		capacity: max(capacity, 1),
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		inflight: make(map[string]*call[V]),
	}
}

// Outcome classifies how DoCtx resolved a key.
type Outcome int

const (
	// Hit: the key was cached.
	Hit Outcome = iota
	// Miss: this caller computed the value.
	Miss
	// Deduped: another caller was already computing the key; the value (or
	// error) was shared.
	Deduped
)

// Get returns the cached value without computing, marking the entry used.
// It does not touch the hit/miss counters — DoCtx owns the accounting.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// DoCtx returns the value for key, computing it with compute on a miss.
// Only one computation per key runs at a time: concurrent callers of the
// same key block and share the leader's value or error. Errors are never
// stored. Cancellation is per caller: the computation receives a context
// that outlives any individual caller and is cancelled only when every
// caller interested in the key has abandoned it. A caller whose ctx
// expires while waiting gets ctx.Err() immediately, but the in-flight
// computation keeps running for the remaining callers and its result is
// cached normally — an impatient waiter cannot poison the entry for others.
// If all callers leave, the compute context is cancelled and whatever the
// orphaned computation returns is discarded uncached (a context error is
// never stored, like any other error). A caller whose ctx is already done
// when it misses gets ctx.Err() and starts no computation, so nothing it
// asked for can be cached.
func (c *Cache[V]) DoCtx(ctx context.Context, key string, compute func(ctx context.Context) (V, error)) (V, Outcome, error) {
	var zero V
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		c.mu.Unlock()
		c.hits.Add(1)
		return v, Hit, nil
	}
	if cl, ok := c.inflight[key]; ok {
		cl.refs++
		c.mu.Unlock()
		c.deduped.Add(1)
		select {
		case <-cl.done:
			return cl.val, Deduped, cl.err
		case <-ctx.Done():
			c.abandon(key, cl)
			return zero, Deduped, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		c.misses.Add(1)
		return zero, Miss, err
	}

	cctx, cancel := context.WithCancel(context.Background())
	cl := &call[V]{done: make(chan struct{}), refs: 1, cancel: cancel}
	c.inflight[key] = cl
	c.mu.Unlock()
	c.misses.Add(1)

	go func() {
		v, err := compute(cctx)
		c.mu.Lock()
		// The call may already have been abandoned (refs hit 0) and removed;
		// only the still-registered call publishes into the cache.
		if c.inflight[key] == cl {
			delete(c.inflight, key)
			if err == nil {
				c.insert(key, v)
			}
		}
		c.mu.Unlock()
		cl.val, cl.err = v, err
		cancel() // release the context's resources; compute already returned
		close(cl.done)
	}()

	select {
	case <-cl.done:
		return cl.val, Miss, cl.err
	case <-ctx.Done():
		c.abandon(key, cl)
		return zero, Miss, ctx.Err()
	}
}

// abandon drops one caller's interest in an in-flight call. The last caller
// out cancels the computation's context and unregisters the call so a fresh
// DoCtx can recompute the key instead of waiting on doomed work.
func (c *Cache[V]) abandon(key string, cl *call[V]) {
	c.mu.Lock()
	cl.refs--
	last := cl.refs == 0 && c.inflight[key] == cl
	if last {
		delete(c.inflight, key)
	}
	c.mu.Unlock()
	if last {
		cl.cancel()
	}
}

// Put stores v under key without a computation, as the most recently used
// entry, evicting past capacity like a computed value. It touches no
// hit/miss counters and runs on the caller's goroutine.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	c.insert(key, v)
	c.mu.Unlock()
}

// insert stores a value, evicting the least recently used entry past
// capacity. Caller holds c.mu.
func (c *Cache[V]) insert(key string, v V) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry[V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&entry[V]{key: key, val: v})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[V]).key)
		c.evictions.Add(1)
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats is a snapshot of the cache counters. Hits+Misses+Deduped is the
// total number of DoCtx calls observed.
type Stats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Deduped   int64 `json:"deduped"`
	Evictions int64 `json:"evictions"`
}

// HitRatePct is hits (including coalesced waiters, which did not recompute)
// over all DoCtx calls, in percent; zero when nothing was looked up.
func (st Stats) HitRatePct() float64 {
	total := st.Hits + st.Misses + st.Deduped
	if total == 0 {
		return 0
	}
	return 100 * float64(st.Hits+st.Deduped) / float64(total)
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Deduped:   c.deduped.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Capacity:  c.capacity,
	}
}
