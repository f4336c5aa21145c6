package router

// The router's edge cache: seq-validated zero-hop reads.
//
// The interactive loop is read-dominated — groups poll packages and
// refinement state far more often than they mutate — yet every routed
// GET pays a full proxy hop to a shard, which renders the response from
// live state. The edge cache is the one place a repeat read is served
// from memory: for hot city-scoped GETs it keeps a bounded LRU of
// rendered responses keyed by (city, path, query), each entry stamped
// with the applied WAL sequence the shard rendered it at (the
// X-GT-Applied-Seq response header, a lower bound on the state the body
// reflects).
//
// The freshness contract — when may a cached entry be served?
//
//	entry.seq >= max( requester's session floor,
//	                  the city's commit floor,
//	                  the health feed's max appliedSeq for the city )
//
//   - The session floor (commit token / X-GT-Min-Seq / gt-session
//     cookie) preserves read-your-writes exactly: a hit at or past the
//     floor provably includes every write the floor names, because the
//     shard's stamp never runs ahead of the state it rendered.
//   - The commit floor is bumped to the commit token of every mutation
//     proxied through this router the moment it is acknowledged — the
//     city's cached entries are invalidated *immediately*, not at the
//     next poll; a reader arriving after a mutation's response can
//     never hit bytes rendered before it.
//   - The health-feed bound caps staleness for writes this router never
//     saw (another router's mutations, direct writes at the primary):
//     once any node of the shard reports a newer applied sequence, all
//     older entries stop serving. Staleness is therefore bounded by the
//     same poll-interval window token-less reads already accept from a
//     -shed-lag follower — the cache weakens nothing.
//
// Entries without a seq stamp are never cached: no sequence space means
// no way to validate freshness, so persistence-less backends simply
// keep paying the proxy hop.
//
// Concurrent misses for one key collapse into a single upstream fill
// (singleflight): a thundering herd on a hot group costs one proxy hop
// instead of N. Waiters re-validate the filled entry against their own
// floor — a pinned waiter whose floor the fill cannot prove falls
// through to its own upstream read rather than trust a staler rider.

import (
	"container/list"
	"net/http"
	"strconv"
	"sync"

	"grouptravel/internal/telemetry"
)

const (
	// DefaultEdgeCacheMax bounds the edge cache's entry count.
	DefaultEdgeCacheMax = 4096
	// maxEdgeBody keeps giant renders from pinning router memory; larger
	// responses relay uncached.
	maxEdgeBody = 1 << 20
	// maxEdgeKeyQuery bounds the query-string part of a cache key, so
	// arbitrary query strings cannot mint unbounded key space. Longer
	// queries are routed but never cached or coalesced.
	maxEdgeKeyQuery = 200
)

// HeaderEdge marks a response served from the router's edge cache
// ("hit") — the observability hook tests and curl read.
const HeaderEdge = "X-GT-Edge"

// edgeEntry is one cached rendered response.
type edgeEntry struct {
	key   string
	city  string
	seq   int64 // applied sequence the shard stamped at render
	ctype string
	body  []byte
}

// edgeFill is one in-flight singleflight fill. done closes when the
// leader finished; entry is nil when the fill failed or the response was
// uncacheable.
type edgeFill struct {
	done  chan struct{}
	entry *edgeEntry
}

// edgeCache is the bounded LRU plus the per-city commit floors and the
// singleflight fill table. One instance per router, shared by every
// city; the LRU bound is the memory bound.
type edgeCache struct {
	mu     sync.Mutex
	cap    int
	m      map[string]*list.Element // key -> *edgeEntry element
	lru    *list.List               // front = most recently served
	floors map[string]int64         // city -> min servable entry seq
	fills  map[string]*edgeFill

	hits          *telemetry.Counter
	misses        *telemetry.Counter
	coalesced     *telemetry.Counter
	invalidations *telemetry.Counter
}

func newEdgeCache(cap int, ctr counters) *edgeCache {
	if cap <= 0 {
		cap = DefaultEdgeCacheMax
	}
	return &edgeCache{
		cap:           cap,
		m:             make(map[string]*list.Element),
		lru:           list.New(),
		floors:        make(map[string]int64),
		fills:         make(map[string]*edgeFill),
		hits:          ctr.edgeHits,
		misses:        ctr.edgeMisses,
		coalesced:     ctr.edgeCoalesced,
		invalidations: ctr.edgeInvalidations,
	}
}

// edgeKey builds the cache key. City is part of the key even though the
// path contains it, so invalidation can match entries by city without
// parsing paths back apart.
func edgeKey(city, path, rawQuery string) string {
	return city + "\x00" + path + "?" + rawQuery
}

// edgeCacheable is the explicit route guard: which routed reads may
// touch the edge cache at all. The replication stream (/wal — flushed
// chunk by chunk, held open arbitrarily long) must relay untouched;
// /metrics and /healthz are live gauges even when a backend serves them
// under a city prefix; and an unbounded query string must not mint
// unbounded key space. Everything the guard rejects is routed exactly as
// before — never cached, never coalesced.
func edgeCacheable(rest, rawQuery string) bool {
	switch rest {
	case "wal", "metrics", "healthz":
		return false
	}
	return len(rawQuery) <= maxEdgeKeyQuery
}

// floor returns the city's commit floor: the minimum applied sequence a
// servable entry must have been rendered at.
func (ec *edgeCache) floor(city string) int64 {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.floors[city]
}

// get returns the entry for key when it satisfies the caller's combined
// floor, refreshing its LRU position. The caller passes the max of the
// session floor and health-feed bound; the city's commit floor is
// enforced here unconditionally, so no caller can forget it.
func (ec *edgeCache) get(key string, floor int64) *edgeEntry {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	el, ok := ec.m[key]
	if !ok {
		ec.misses.Inc()
		return nil
	}
	e := el.Value.(*edgeEntry)
	if f := ec.floors[e.city]; f > floor {
		floor = f
	}
	if e.seq < floor {
		ec.misses.Inc()
		return nil
	}
	ec.lru.MoveToFront(el)
	ec.hits.Inc()
	return e
}

// put stores an entry, evicting from the LRU tail past cap. An entry
// already below its city's commit floor is dead on arrival and skipped.
func (ec *edgeCache) put(e *edgeEntry) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if e.seq < ec.floors[e.city] {
		return
	}
	if el, ok := ec.m[e.key]; ok {
		// Keep the freshest render: a racing slower fill from a lagging
		// follower must not replace a newer entry.
		if el.Value.(*edgeEntry).seq <= e.seq {
			el.Value = e
			ec.lru.MoveToFront(el)
		}
		return
	}
	ec.m[e.key] = ec.lru.PushFront(e)
	for ec.lru.Len() > ec.cap {
		oldest := ec.lru.Back()
		ec.lru.Remove(oldest)
		delete(ec.m, oldest.Value.(*edgeEntry).key)
	}
}

// invalidate raises the city's commit floor to seq: every entry rendered
// before the mutation that committed at seq stops serving immediately.
// Entries are left in place — get's floor check makes them unservable —
// and recycled by LRU pressure or overwritten by the next fill.
func (ec *edgeCache) invalidate(city string, seq int64) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if seq > ec.floors[city] {
		ec.floors[city] = seq
		ec.invalidations.Inc()
	}
}

// purgeCity drops every entry of a city outright — the fallback for a
// mutation that carried no commit token (no sequence space to floor on).
func (ec *edgeCache) purgeCity(city string) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	var next *list.Element
	purged := false
	for el := ec.lru.Front(); el != nil; el = next {
		next = el.Next()
		if e := el.Value.(*edgeEntry); e.city == city {
			ec.lru.Remove(el)
			delete(ec.m, e.key)
			purged = true
		}
	}
	if purged {
		ec.invalidations.Inc()
	}
}

// join returns the in-flight fill for key, or registers a new one with
// the caller as leader. leader=false means another request is already
// filling: wait on fill.done.
func (ec *edgeCache) join(key string) (fill *edgeFill, leader bool) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if f, ok := ec.fills[key]; ok {
		return f, false
	}
	f := &edgeFill{done: make(chan struct{})}
	ec.fills[key] = f
	return f, true
}

// finish publishes the leader's result (entry may be nil) and releases
// the key for future fills.
func (ec *edgeCache) finish(key string, fill *edgeFill, entry *edgeEntry) {
	ec.mu.Lock()
	delete(ec.fills, key)
	ec.mu.Unlock()
	fill.entry = entry
	close(fill.done)
}

// len returns the current entry count (healthz).
func (ec *edgeCache) len() int {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.lru.Len()
}

// writeEdge serves one cached entry: the stored bytes, the applied-seq
// stamp the shard rendered them at, and the hit marker. No X-GT-Backend
// — no backend served this response.
func writeEdge(w http.ResponseWriter, e *edgeEntry, shard string) {
	h := w.Header()
	if e.ctype != "" {
		h.Set("Content-Type", e.ctype)
	}
	h.Set("Content-Length", strconv.Itoa(len(e.body)))
	h.Set(HeaderAppliedSeq, strconv.FormatInt(e.seq, 10))
	h.Set(HeaderShard, shard)
	h.Set(HeaderEdge, "hit")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.body)
}
