package obs

import (
	"sync"
	"testing"
)

func recWithID(n byte) *record {
	var id TraceID
	id[15] = n
	id[0] = 1 // keep it nonzero even when n is 0
	return &record{id: id}
}

func TestRingEvictsOldestFirst(t *testing.T) {
	r := newRing(4)
	for i := byte(1); i <= 6; i++ {
		r.add(recWithID(i))
	}
	if got := r.len(); got != 4 {
		t.Fatalf("len = %d, want 4 (capacity)", got)
	}
	for i := byte(1); i <= 2; i++ {
		if _, ok := r.get(recWithID(i).id); ok {
			t.Errorf("trace %d still resident after eviction", i)
		}
	}
	for i := byte(3); i <= 6; i++ {
		if _, ok := r.get(recWithID(i).id); !ok {
			t.Errorf("trace %d evicted while newer than capacity", i)
		}
	}
	recent := r.recent(10)
	if len(recent) != 4 {
		t.Fatalf("recent returned %d traces, want 4", len(recent))
	}
	if recent[0].id != recWithID(6).id || recent[3].id != recWithID(3).id {
		t.Errorf("recent not newest-first: %v ... %v", recent[0].id, recent[3].id)
	}
	if got := r.recent(2); len(got) != 2 || got[0].id != recWithID(6).id {
		t.Errorf("recent(2) = %d traces, head %v", len(got), got[0].id)
	}
}

func TestRingReusedIDResolvesToNewest(t *testing.T) {
	r := newRing(4)
	first := recWithID(7)
	second := &record{id: first.id}
	r.add(first)
	r.add(second)
	got, ok := r.get(first.id)
	if !ok || got != second {
		t.Errorf("lookup returned the older recording (ok=%v, newest=%v)", ok, got == second)
	}
}

// TestRingConcurrentWritersAndReaders is the -race proof: many goroutines
// hammer add while others scan get/recent/len. Correctness here is "no
// race, no torn reads, every returned trace is a real published one".
func TestRingConcurrentWritersAndReaders(t *testing.T) {
	r := newRing(8)
	published := make([]*record, 64)
	for i := range published {
		var id TraceID
		id[0] = 2
		id[14] = byte(i >> 8)
		id[15] = byte(i)
		published[i] = &record{id: id}
	}
	valid := make(map[TraceID]*record, len(published))
	for _, rec := range published {
		valid[rec.id] = rec
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(published); i += 4 {
				r.add(published[i])
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, rec := range r.recent(8) {
					if valid[rec.id] != rec {
						t.Errorf("ring returned a trace never published: %v", rec.id)
						return
					}
				}
				r.get(published[i%len(published)].id)
				if n := r.len(); n < 0 || n > 8 {
					t.Errorf("len = %d out of bounds", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.len(); got != 8 {
		t.Errorf("len = %d after 64 adds into capacity 8", got)
	}
}
