// Dynamic membership: the worker pool as a mutable registry instead of a
// frozen flag. Seed members come from Options.Workers at construction;
// runtime members join through Dispatcher.Join (the coordinator's
// POST /api/v1/cluster/join handler calls it, both for first contact and
// for heartbeat re-registration), and the prober expires members that have
// been silent past Options.MemberTTL — an expired member leaves the
// placement ranking entirely, so shard selection never proposes it again.
//
// Seeds are special only in how they die: an expired seed is parked in a
// dormant set the prober keeps probing, so a seed worker that comes back at
// the same address rejoins automatically even though it never calls the
// join API. Dynamic members are dropped outright — they own their liveness
// via the heartbeat and rejoin the same way they first appeared.
package cluster

import (
	"cmp"
	"fmt"
	"net/url"
	"slices"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// NormalizeURL canonicalizes a worker base URL: a bare "host:port" gains
// "http://", the scheme and host name are lowercased, the scheme's default
// port (:80 for http, :443 for https) is dropped, trailing slashes are
// stripped, and anything that does not parse to a scheme plus host — or
// that smuggles a path, query or fragment into what must be a base URL —
// is rejected, as is a host that is not valid UTF-8 once unescaped (JSON
// would echo it under another spelling, one that names no member). Both
// the -workers flag validation and the join API funnel through this, so
// one worker cannot appear under two spellings and collect two circuit
// breakers.
func NormalizeURL(raw string) (string, error) {
	s := strings.TrimSpace(raw)
	if s == "" {
		return "", fmt.Errorf("cluster: empty worker URL")
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return "", fmt.Errorf("cluster: bad worker URL %q: %v", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("cluster: worker URL %q: unsupported scheme %q (want http or https)", raw, u.Scheme)
	}
	if u.Host == "" {
		return "", fmt.Errorf("cluster: worker URL %q has no host", raw)
	}
	if !utf8.ValidString(u.Host) {
		return "", fmt.Errorf("cluster: worker URL %q: host is not valid UTF-8", raw)
	}
	if strings.TrimRight(u.Path, "/") != "" || u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("cluster: worker URL %q must be a base URL (scheme://host[:port], no path or query)", raw)
	}
	// Host names compare case-insensitively in ASCII only (RFC 4343), so
	// only ASCII letters fold.
	host := strings.Map(func(r rune) rune {
		if 'A' <= r && r <= 'Z' {
			return r + 'a' - 'A'
		}
		return r
	}, u.Host)
	if p := u.Port(); (u.Scheme == "http" && p == "80") || (u.Scheme == "https" && p == "443") {
		host = strings.TrimSuffix(host, ":"+p)
	}
	return u.Scheme + "://" + host, nil
}

// Join registers (or re-registers) a member. The returned added flag is
// true when the member entered the active pool — first contact, or a
// dormant seed coming back — and false for a heartbeat from a member
// already active, which merely refreshes its liveness timestamp. The
// normalized URL is returned so callers echo the canonical spelling.
//
// A new member raises the fan-out bound, so shards waiting for a slot
// retry at once.
//
// A heartbeat deliberately does not touch circuit state: "my process is
// up" (the join) and "your requests to me succeed" (the circuit) are
// different facts, and the prober plus live traffic own the second one.
func (d *Dispatcher) Join(rawURL string) (string, bool, error) {
	u, err := NormalizeURL(rawURL)
	if err != nil {
		return "", false, err
	}
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if w, ok := d.members[u]; ok {
		w.touch(now)
		return u, false, nil
	}
	w, ok := d.dormant[u]
	if ok {
		delete(d.dormant, u)
	} else {
		w = &workerState{url: u}
	}
	w.touch(now)
	d.members[u] = w
	d.joins.Add(1)
	d.wakeLocked() // the fan-out bound may have grown
	return u, true, nil
}

// expireSilent drops every active member whose last sign of life — join or
// heartbeat, successful probe, successful request — is older than the TTL.
// Expired seeds park in the dormant set (the prober keeps watching them);
// expired dynamic members are forgotten. Called by Probe after the probe
// outcomes have landed, so a member that just answered its healthz is
// fresh by construction.
func (d *Dispatcher) expireSilent(now time.Time) {
	ttl := d.opt.MemberTTL
	if ttl <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for u, w := range d.members {
		if now.Sub(w.seen()) <= ttl {
			continue
		}
		delete(d.members, u)
		if w.seed {
			d.dormant[u] = w
		}
		d.expired.Add(1)
	}
}

// placement is a shard key's preference order over the active members:
// the owner first, then the retries and hedges in turn. It is computed
// fresh per attempt, so a member that joined or expired mid-shard is
// respected by the very next retry.
func (d *Dispatcher) placement(key string) []*workerState {
	active, _ := d.snapshotMembers()
	return rank(key, active)
}

// rank sorts members into key's preference order, in place, by rendezvous
// (highest-random-weight) hashing (Thaler & Ravishankar, 1998): each member
// weighs the key, and the heaviest owns it. A weight depends only on the
// key and the member's own URL, so the order does not depend on how the
// members are listed, survives a coordinator restart (warm worker caches
// stay warm), and changes minimally with the pool: a join moves keys only
// onto the newcomer, and a leave moves only the leaver's keys, each to its
// former second choice. The key is hashed once; equal weights (colliding
// URL hashes) break on the URL.
func rank(key string, members []*workerState) []*workerState {
	k := fnv1a(key)
	slices.SortFunc(members, func(a, b *workerState) int {
		if c := cmp.Compare(weight(k, b.url), weight(k, a.url)); c != 0 {
			return c
		}
		return strings.Compare(a.url, b.url)
	})
	return members
}

// weight is a member's score for a key hash: SplitMix64's finalizer over
// the key hash XOR the member URL's hash. The full-avalanche mix matters.
// Member URLs usually differ only in their last bytes (the port), which
// FNV-1a barely carries into its high bits: without the finalizer, or
// ranking by FNV-1a of key plus URL instead, one of three loopback workers
// owns half the keys (TestPlacementBalance).
func weight(key uint64, u string) uint64 {
	z := key ^ fnv1a(u)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fnv1a is the 64-bit FNV-1a hash: allocation-free and the same in every
// process.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Members returns the active member base URLs in sorted (stable) order —
// the pool a coordinator fans debug-trace collection out to.
func (d *Dispatcher) Members() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.members))
	for u := range d.members {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// memberCount is the active pool size.
func (d *Dispatcher) memberCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.members)
}

// snapshotMembers returns the active members and dormant seeds as two
// slices (health reporting and the prober iterate them outside the lock).
func (d *Dispatcher) snapshotMembers() (active, dormant []*workerState) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	active = make([]*workerState, 0, len(d.members))
	for _, w := range d.members {
		active = append(active, w)
	}
	dormant = make([]*workerState, 0, len(d.dormant))
	for _, w := range d.dormant {
		dormant = append(dormant, w)
	}
	return active, dormant
}
