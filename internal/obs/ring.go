package obs

import "sync/atomic"

// ring is the completed-trace flight recorder: a fixed array of atomic
// pointers plus a monotonically increasing sequence. Writers claim a slot
// with one atomic add and publish with one atomic store — no locks, no
// allocation, no coordination with readers. Readers snapshot the sequence
// and walk slots newest-first; a concurrent overwrite simply means the
// reader sees the newer trace, never a torn one (pointer stores are atomic
// and a record is never written once published).
type ring struct {
	slots []atomic.Pointer[record]
	next  atomic.Uint64 // total adds ever; next.Load() % len(slots) is the next slot
}

func newRing(capacity int) *ring {
	return &ring{slots: make([]atomic.Pointer[record], capacity)}
}

// add publishes a completed trace, overwriting the oldest entry once full.
func (r *ring) add(rec *record) {
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(rec)
}

// len reports the occupied slot count (never above capacity). It reads the
// sequence once: a concurrent add between two reads could lift the count
// past the capacity check.
func (r *ring) len() int {
	return int(min(r.next.Load(), uint64(len(r.slots))))
}

// get scans newest-first for the trace with the given ID, so a reused ID
// (only possible with an injected test Rand) resolves to its latest
// recording.
func (r *ring) get(id TraceID) (*record, bool) {
	n := r.next.Load()
	c := uint64(len(r.slots))
	span := n
	if span > c {
		span = c
	}
	for i := uint64(0); i < span; i++ {
		if rec := r.slots[(n-1-i)%c].Load(); rec != nil && rec.id == id {
			return rec, true
		}
	}
	return nil, false
}

// recent returns up to limit traces, newest first.
func (r *ring) recent(limit int) []*record {
	n := r.next.Load()
	c := uint64(len(r.slots))
	span := n
	if span > c {
		span = c
	}
	if l := uint64(limit); limit >= 0 && span > l {
		span = l
	}
	out := make([]*record, 0, span)
	for i := uint64(0); i < span; i++ {
		if rec := r.slots[(n-1-i)%c].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}
