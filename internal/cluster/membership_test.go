package cluster

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/experiments"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
)

func TestNormalizeURL(t *testing.T) {
	ok := []struct{ in, want string }{
		{"127.0.0.1:8080", "http://127.0.0.1:8080"},
		{"http://h:1/", "http://h:1"},
		{"  https://h2  ", "https://h2"},
		{"http://h:1///", "http://h:1"},
		{"W1:8081", "http://w1:8081"},
		{"HTTP://W1:8081", "http://w1:8081"},
		{"http://w1:80", "http://w1"},
		{"https://w1:443", "https://w1"},
		{"https://w1:80", "https://w1:80"},
		{"http://w1:443", "http://w1:443"},
		{"http://[::1]:80", "http://[::1]"},
		{"http://[FE80::1]:8080", "http://[fe80::1]:8080"},
	}
	for _, tt := range ok {
		got, err := NormalizeURL(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("NormalizeURL(%q) = %q, %v; want %q", tt.in, got, err, tt.want)
		}
	}
	bad := []string{
		"", "   ", "http://", "ftp://h:1", "http://h/api", "h?q=1", "http://h#frag",
		"http://h:1/path", "cache_object:foo", "\xe4", "http://h\xff:1", "h%80:1",
	}
	for _, in := range bad {
		if got, err := NormalizeURL(in); err == nil {
			t.Errorf("NormalizeURL(%q) = %q, want error", in, got)
		}
	}
}

func TestJoinAndHeartbeat(t *testing.T) {
	d := New(Options{})
	if n := d.memberCount(); n != 0 {
		t.Fatalf("dynamic dispatcher starts with %d members, want 0", n)
	}
	u, added, err := d.Join("127.0.0.1:9001")
	if err != nil || !added || u != "http://127.0.0.1:9001" {
		t.Fatalf("first Join = (%q, %v, %v), want added under normalized URL", u, added, err)
	}
	// A heartbeat (and any alternate spelling of the same address) is a
	// refresh, not a second member.
	for _, hb := range []string{"http://127.0.0.1:9001", "127.0.0.1:9001", "http://127.0.0.1:9001/"} {
		if _, added, err := d.Join(hb); err != nil || added {
			t.Fatalf("re-Join(%q) = (added=%v, %v), want heartbeat no-op", hb, added, err)
		}
	}
	if _, _, err := d.Join("http://h/api"); err == nil {
		t.Fatal("Join accepted a non-base URL")
	}
	st := d.Stats()
	if st.Members != 1 || st.Joins != 1 {
		t.Fatalf("stats = %+v, want 1 member from 1 join", st)
	}
}

// TestJoinSpellingsOfOneWorker: host case and an explicit default port do
// not make a new member. Seven spellings name three processes.
func TestJoinSpellingsOfOneWorker(t *testing.T) {
	d := New(Options{})
	for _, u := range []string{"w1:8081", "W1:8081", "http://w1", "http://w1:80", "https://w1:443", "https://w1", "HTTP://w1:8081"} {
		if _, _, err := d.Join(u); err != nil {
			t.Fatalf("Join(%q): %v", u, err)
		}
	}
	want := []string{"http://w1", "http://w1:8081", "https://w1"}
	if got := d.Members(); !reflect.DeepEqual(got, want) {
		t.Errorf("members %v, want %v", got, want)
	}
}

// TestExpireSeedVsDynamic: expiry drops a dynamic member outright but parks
// a seed in the dormant set, and a heartbeat resurrects either kind.
func TestExpireSeedVsDynamic(t *testing.T) {
	d := New(Options{Workers: []string{"http://seed:1"}, MemberTTL: time.Second})
	base := time.Unix(1000, 0)
	d.now = func() time.Time { return base }
	d.members["http://seed:1"].touch(base)
	if _, added, _ := d.Join("http://dyn:2"); !added {
		t.Fatal("dynamic member did not join")
	}

	d.expireSilent(base.Add(500 * time.Millisecond)) // inside TTL: nothing happens
	if n := d.memberCount(); n != 2 {
		t.Fatalf("premature expiry: %d members, want 2", n)
	}

	d.expireSilent(base.Add(2 * time.Second))
	if n := d.memberCount(); n != 0 {
		t.Fatalf("%d members after expiry, want 0", n)
	}
	active, dormant := d.snapshotMembers()
	if len(active) != 0 || len(dormant) != 1 || dormant[0].url != "http://seed:1" {
		t.Fatalf("after expiry active=%v dormant=%v; want only the seed dormant", active, dormant)
	}
	if st := d.Stats(); st.Expired != 2 {
		t.Fatalf("stats = %+v, want 2 expirations", st)
	}
	// The pool is empty: no key has any placement.
	if seq := d.placement("any-key"); len(seq) != 0 {
		t.Fatalf("placement over an empty pool = %v, want none", seq)
	}

	// Both can come back: the dormant seed reactivates (same state object —
	// its circuit history survives), the dynamic member re-registers fresh.
	was := d.dormant["http://seed:1"]
	for _, u := range []string{"http://seed:1", "http://dyn:2"} {
		if _, added, err := d.Join(u); err != nil || !added {
			t.Fatalf("rejoin %q = (added=%v, %v)", u, added, err)
		}
	}
	if d.members["http://seed:1"] != was {
		t.Error("rejoined seed did not reuse its dormant state")
	}
	if n := d.memberCount(); n != 2 {
		t.Fatalf("%d members after rejoin, want 2", n)
	}
}

// TestPlacementDeterministic: a key's ranking holds every member once, is
// the same whatever order the members are listed in (the registry is a
// map), and is pinned for a few fixed keys. A coordinator restart must
// place every shard where the old process did, or warm worker caches go
// cold, so a change to the hash shows up here as a deliberate diff.
func TestPlacementDeterministic(t *testing.T) {
	urls := []string{"http://127.0.0.1:8191", "http://127.0.0.1:8192", "http://127.0.0.1:8193"}
	pinned := map[string][3]int{ // key → indices into urls, best first
		"k1": {1, 2, 0},
		"k2": {2, 1, 0},
		"k3": {0, 1, 2},
		"k4": {0, 2, 1},
		"table5|4B/s2048/v32k/1f1b;1f1b;4B;L32;a24;h3072;s2048;b1;m128;v32768;d8": {2, 0, 1},
	}
	orders := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	d := New(Options{Workers: urls})
	for key, want := range pinned {
		if got := placementURLs(d.placement(key)); !reflect.DeepEqual(got, []string{urls[want[0]], urls[want[1]], urls[want[2]]}) {
			t.Errorf("placement(%q) = %v, want pinned order %v", key, got, want)
		}
		for _, o := range orders {
			members := []*workerState{{url: urls[o[0]]}, {url: urls[o[1]]}, {url: urls[o[2]]}}
			if got := placementURLs(rank(key, members)); !reflect.DeepEqual(got, placementURLs(d.placement(key))) {
				t.Errorf("rank(%q) over members listed as %v = %v, want the same order as any other listing", key, o, got)
			}
		}
	}
	if got := rank("k", nil); len(got) != 0 {
		t.Errorf("rank over no members = %v, want none", got)
	}
}

func placementURLs(ws []*workerState) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.url
	}
	return out
}

// TestPlacementMinimalRemap proves the property placement exists for: a
// join moves keys only ONTO the newcomer — no key shuffles between two
// survivors — and a leave moves only the leaver's keys, each to its former
// second choice. So a join invalidates only the warm cache entries it takes
// over, and a leave only the leaver's.
func TestPlacementMinimalRemap(t *testing.T) {
	a, b, c, added := &workerState{url: "http://a:1"}, &workerState{url: "http://b:2"}, &workerState{url: "http://c:3"}, &workerState{url: "http://d:4"}
	moved := 0
	const keys = 1000
	for i := 0; i < keys; i++ {
		key := "shard-key-" + strings.Repeat("x", i%7) + string(rune('a'+i%26)) + "-" + time.Duration(i).String()
		was := rank(key, []*workerState{a, b, c})[0]
		all := rank(key, []*workerState{a, b, c, added})
		if now := all[0]; now != was {
			moved++
			if now != added {
				t.Fatalf("join: key %q moved from %s to %s, not to the new member", key, was.url, now.url)
			}
		}
		// b leaves the four-member pool.
		left := rank(key, []*workerState{a, c, added})[0]
		switch {
		case all[0] == b && left != all[1]:
			t.Fatalf("leave: key %q of the leaver moved to %s, not to its second choice %s", key, left.url, all[1].url)
		case all[0] != b && left != all[0]:
			t.Fatalf("leave: key %q moved from %s to %s, though its owner stayed", key, all[0].url, left.url)
		}
	}
	// Expect roughly 1/4 of keys on the new member; far outside that means
	// the weights are not spread.
	if moved < keys/8 || moved > keys/2 {
		t.Errorf("%d/%d keys moved to the new member, want roughly %d", moved, keys, keys/4)
	}
}

// TestPlacementBalance: every member owns its fair share of the shards.
// Two pools whose URLs differ only in their last bytes, as real pools'
// do: three loopback workers on adjacent ports, and four hosts on one
// subnet. Over 100,000 distinct shard-shaped keys each member owns its
// fair share within 2 percentage points. Over the shards the four
// shardable paper grids make when split 4, 8, 12, 16 and 32 ways, keyed as
// runShard keys them, no member owns less than half or more than twice its
// fair share.
func TestPlacementBalance(t *testing.T) {
	base, ok := costmodel.ConfigByName("4B")
	if !ok {
		t.Fatal("no 4B model in the zoo")
	}
	synthetic := make([]string, 100000)
	for i := range synthetic {
		c := base
		c.NumMicro = 8 + i%1000
		c.Vocab = 32768 + 1024*(i/1000)
		g := &sweep.Grid{Name: "sweep", Cells: []sweep.Cell{{Label: sweep.CellLabel(c, sim.Vocab1), Config: c, Method: sim.Vocab1}}}
		synthetic[i] = g.Key()
	}
	var paper []string
	for _, name := range []string{"table5", "table6", "blocks", "interlaced-mem"} {
		grid, ok := experiments.Grid(name)
		if !ok {
			t.Fatalf("no %s grid", name)
		}
		g := grid()
		cells := g.Expand()
		for _, parts := range []int{4, 8, 12, 16, 32} {
			for _, r := range sweep.SplitCells(len(cells), parts) {
				paper = append(paper, sweep.Subgrid(g, cells, r).Key())
			}
		}
	}

	for _, urls := range [][]string{
		{"http://127.0.0.1:8191", "http://127.0.0.1:8192", "http://127.0.0.1:8193"},
		{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080", "http://10.0.0.4:8080"},
	} {
		members := make([]*workerState, len(urls))
		for i, u := range urls {
			members[i] = &workerState{url: u}
		}
		owned := func(keys []string) map[string]int {
			n := make(map[string]int, len(urls))
			for _, key := range keys {
				n[rank(key, members)[0].url]++
			}
			return n
		}
		fair := 1 / float64(len(urls))
		n := owned(synthetic)
		for _, u := range urls {
			if share := float64(n[u]) / float64(len(synthetic)); math.Abs(share-fair) > 0.02 {
				t.Errorf("%s owns %.1f%% of %d synthetic keys, want %.1f%% ± 2", u, 100*share, len(synthetic), 100*fair)
			}
		}
		t.Logf("%d members: synthetic owners %v", len(urls), n)
		n = owned(paper)
		for _, u := range urls {
			if share := float64(n[u]) / float64(len(paper)); share < fair/2 || share > 2*fair {
				t.Errorf("%s owns %d of %d paper-grid shards, want between half and twice its fair share %.1f", u, n[u], len(paper), fair*float64(len(paper)))
			}
		}
		t.Logf("%d members: paper-grid shard owners %v", len(urls), n)
	}
}

// TestAffinityAcrossRepeatedSweeps: with a healthy pool and hedging off, a
// repeated sweep sends every shard to exactly the worker that served it the
// first time — the warm-cache property rendezvous placement buys.
func TestAffinityAcrossRepeatedSweeps(t *testing.T) {
	g := testGrid(t)
	w1 := newStubWorker(t, nil)
	w2 := newStubWorker(t, nil)
	d := New(Options{Workers: []string{w1.ts.URL, w2.ts.URL}, HedgeAfter: -1})
	d.shardsPerWorker = 2
	if _, err := d.Records(context.Background(), g, nil); err != nil {
		t.Fatal(err)
	}
	c1, c2 := w1.requests.Load(), w2.requests.Load()
	for i := 0; i < 3; i++ {
		if _, err := d.Records(context.Background(), g, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got1, got2 := w1.requests.Load(), w2.requests.Load(); got1 != 4*c1 || got2 != 4*c2 {
		t.Errorf("request counts after 4 identical sweeps = (%d, %d), want exactly (%d, %d) — placement drifted",
			got1, got2, 4*c1, 4*c2)
	}
}

// TestDeadMemberLeavesPlacement is the regression for the v1 defect where a
// permanently dead worker still received a fresh dial attempt from every
// shard: once the prober expires it, the member is out of placement —
// selection never proposes it — so a sweep over the 2 survivors runs
// with zero retries and zero dials at the dead address.
func TestDeadMemberLeavesPlacement(t *testing.T) {
	g := testGrid(t)
	w1 := newStubWorker(t, nil)
	w2 := newStubWorker(t, nil)
	dead := newStubWorker(t, nil)
	dead.ts.Close()
	d := New(Options{
		Workers:    []string{w1.ts.URL, w2.ts.URL, dead.ts.URL},
		HedgeAfter: -1,
		MemberTTL:  50 * time.Millisecond,
	})
	d.shardsPerWorker = 1
	base := time.Now()
	d.now = func() time.Time { return base }
	d.Probe(context.Background()) // live members refresh; dead accrues a failure
	if n := d.memberCount(); n != 3 {
		t.Fatalf("dead member expired too early: %d members", n)
	}
	d.now = func() time.Time { return base.Add(time.Second) }
	d.Probe(context.Background()) // dead is now silent past TTL → expired
	if n := d.memberCount(); n != 2 {
		t.Fatalf("%d members after expiry, want 2", n)
	}

	// Every shard's placement proposes only the survivors.
	cells := g.Expand()
	for _, r := range []int{0, len(cells) - 1} {
		key := "probe-key-" + time.Duration(r).String()
		for _, w := range d.placement(key) {
			if w.url == dead.ts.URL {
				t.Fatalf("placement still proposes the dead member")
			}
		}
	}

	dialsBefore := dead.requests.Load() // 0: the server is closed, but keep it honest
	got, err := d.Records(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, localRecords(g)) {
		t.Error("records differ from local sweep")
	}
	st := d.Stats()
	if st.Retries != 0 || st.Fallbacks != 0 {
		t.Errorf("stats = %+v, want zero retries and zero fallbacks with the dead member out of placement", st)
	}
	if dead.requests.Load() != dialsBefore {
		t.Error("dead member was dialed during the sweep")
	}
	// The dead seed is dormant, still visible to operators via Health.
	var dormantSeen bool
	for _, h := range d.Health() {
		if h.URL == dead.ts.URL {
			dormantSeen = h.Dormant && h.Seed
		}
	}
	if !dormantSeen {
		t.Errorf("dead seed not reported dormant in health: %+v", d.Health())
	}
}
