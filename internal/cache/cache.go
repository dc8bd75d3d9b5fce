// Package cache is a sharded LRU result cache with in-flight request
// deduplication, the memory behind the vpserve HTTP API. Keys are canonical
// grid identities (sweep.Grid.Key); values are whatever a compute function
// produced for that key.
//
// Do is the single entry point: a cached key returns immediately (hit), a
// key someone else is already computing blocks until that computation
// finishes and shares its value (dedup — a thundering herd on one grid
// computes it once), and otherwise the caller computes, stores and returns
// (miss). Errors are propagated to every coalesced waiter but never cached,
// so a transient failure does not poison the key.
//
// The key space is split across power-of-two shards by FNV-1a hash so
// unrelated keys do not contend on one mutex; eviction is LRU per shard.
package cache

import (
	"container/list"
	"context"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Cache is a sharded LRU with singleflight-style dedup. The zero value is
// not usable; construct with New.
type Cache[V any] struct {
	shards []*shard[V]
	mask   uint32

	hits      atomic.Int64
	misses    atomic.Int64
	deduped   atomic.Int64
	evictions atomic.Int64
}

// shard is one lock domain: an LRU of cached entries plus the in-flight
// calls currently computing keys that hash here.
type shard[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	inflight map[string]*call[V]
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
	refs   int // guarded by the owning shard's mu
	cancel context.CancelFunc
}

// DefaultShards is the shard count used by New.
const DefaultShards = 16

// New returns a cache holding up to capacity entries total (minimum one per
// shard). Capacity is distributed evenly across DefaultShards shards, so a
// single hot shard evicts at roughly capacity/DefaultShards entries.
func New[V any](capacity int) *Cache[V] {
	return NewSharded[V](capacity, DefaultShards)
}

// NewSharded is New with an explicit shard count (rounded up to a power of
// two, minimum 1). A single shard makes eviction strictly LRU over the whole
// capacity — useful for tests and tiny caches. The shard capacities always
// sum to exactly the requested capacity: the shard count shrinks for tiny
// caches rather than inflating the operator's memory bound.
func NewSharded[V any](capacity, shards int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	for shards&(shards-1) != 0 {
		shards++
	}
	for shards > capacity {
		shards /= 2
	}
	per, extra := capacity/shards, capacity%shards
	c := &Cache[V]{shards: make([]*shard[V], shards), mask: uint32(shards - 1)}
	for i := range c.shards {
		n := per
		if i < extra {
			n++
		}
		c.shards[i] = &shard[V]{
			capacity: n,
			entries:  make(map[string]*list.Element),
			order:    list.New(),
			inflight: make(map[string]*call[V]),
		}
	}
	return c
}

func (c *Cache[V]) shardFor(key string) *shard[V] {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()&c.mask]
}

// Outcome classifies how Do resolved a key.
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
// It does not touch the hit/miss counters — Do owns the accounting.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether key would resolve without a cold computation:
// either cached or already being computed (a new caller would dedup onto the
// in-flight leader). Unlike Get it does not promote the entry in the LRU and
// touches no counters — it is a pure probe, built for admission control where
// classifying a request must not perturb cache state.
func (c *Cache[V]) Contains(key string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return true
	}
	_, ok := s.inflight[key]
	return ok
}

// Do returns the value for key, computing it with compute on a miss. Only
// one computation per key runs at a time: concurrent callers of the same key
// block and share the leader's value or error. Errors are never stored.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (V, Outcome, error) {
	return c.DoCtx(context.Background(), key,
		func(context.Context) (V, error) { return compute() })
}

// DoCtx is Do with per-caller cancellation. The computation receives a
// context that outlives any individual caller: it is cancelled only when
// every caller interested in the key has abandoned it. A caller whose ctx
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
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, Hit, nil
	}
	if cl, ok := s.inflight[key]; ok {
		cl.refs++
		s.mu.Unlock()
		c.deduped.Add(1)
		select {
		case <-cl.done:
			return cl.val, Deduped, cl.err
		case <-ctx.Done():
			s.abandon(key, cl)
			return zero, Deduped, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		c.misses.Add(1)
		return zero, Miss, err
	}

	cctx, cancel := context.WithCancel(context.Background())
	cl := &call[V]{done: make(chan struct{}), refs: 1, cancel: cancel}
	s.inflight[key] = cl
	s.mu.Unlock()
	c.misses.Add(1)

	go func() {
		v, err := compute(cctx)
		s.mu.Lock()
		// The call may already have been abandoned (refs hit 0) and removed;
		// only the still-registered call publishes into the cache.
		if s.inflight[key] == cl {
			delete(s.inflight, key)
			if err == nil {
				s.insert(key, v, &c.evictions)
			}
		}
		s.mu.Unlock()
		cl.val, cl.err = v, err
		cancel() // release the context's resources; compute already returned
		close(cl.done)
	}()

	select {
	case <-cl.done:
		return cl.val, Miss, cl.err
	case <-ctx.Done():
		s.abandon(key, cl)
		return zero, Miss, ctx.Err()
	}
}

// abandon drops one caller's interest in an in-flight call. The last caller
// out cancels the computation's context and unregisters the call so a fresh
// Do can recompute the key instead of waiting on doomed work.
func (s *shard[V]) abandon(key string, cl *call[V]) {
	s.mu.Lock()
	cl.refs--
	last := cl.refs == 0 && s.inflight[key] == cl
	if last {
		delete(s.inflight, key)
	}
	s.mu.Unlock()
	if last {
		cl.cancel()
	}
}

// insert stores a value, evicting the least recently used entry past
// capacity. Caller holds s.mu.
func (s *shard[V]) insert(key string, v V, evictions *atomic.Int64) {
	if el, ok := s.entries[key]; ok {
		el.Value.(*entry[V]).val = v
		s.order.MoveToFront(el)
		return
	}
	s.entries[key] = s.order.PushFront(&entry[V]{key: key, val: v})
	for s.order.Len() > s.capacity {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.entries, oldest.Value.(*entry[V]).key)
		evictions.Add(1)
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats is a snapshot of the cache counters. Hits+Misses+Deduped is the
// total number of Do calls observed.
type Stats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Deduped   int64 `json:"deduped"`
	Evictions int64 `json:"evictions"`
}

// HitRatePct is hits (including coalesced waiters, which did not recompute)
// over all Do calls, in percent; zero when nothing was looked up.
func (st Stats) HitRatePct() float64 {
	total := st.Hits + st.Misses + st.Deduped
	if total == 0 {
		return 0
	}
	return 100 * float64(st.Hits+st.Deduped) / float64(total)
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Deduped:   c.deduped.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
	for _, s := range c.shards {
		st.Capacity += s.capacity
	}
	return st
}
