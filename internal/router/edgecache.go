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
//     never hit bytes rendered before it. The entries the new floor
//     retires leave the cache at once: nothing below a commit floor can
//     ever serve again, so it holds no memory either.
//   - The health-feed bound caps staleness for writes this router never
//     saw (another router's mutations, direct writes at the primary):
//     once any node of the shard reports a newer applied sequence, all
//     older entries stop serving. Staleness is therefore bounded by the
//     same poll-interval window token-less reads already accept from a
//     -shed-lag follower — the cache weakens nothing. Entries this bound
//     alone retires stay resident until LRU pressure recycles them:
//     the bound is a per-request view of the health feed, not a floor.
//
// Entries without a seq stamp are never cached: a shard stamps a city's
// reads only once its log holds a record, and without a stamp there is
// no way to validate freshness, so those reads keep paying the proxy hop.
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

// edgeEntry is one cached rendered response. key, city, seq, ctype and
// body never change once the entry is built, so a reader may use them
// after the cache lock is released; lru and byCity are the entry's
// positions in the cache's lists and are touched only under the lock.
type edgeEntry struct {
	key   string
	city  string
	seq   int64 // applied sequence the shard stamped at render
	ctype string
	body  []byte

	lru    *list.Element // in edgeCache.lru
	byCity *list.Element // in edgeCache.cities[city]
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
//
// Every resident entry sits in three places: the key map, the LRU, and
// its city's index, a list in ascending seq order. The index is what
// lets invalidate drop exactly the entries a new floor retires — a
// prefix of the city's list — without walking anything else. A fill is
// stamped with its node's applied sequence, and a node's stamps only
// rise, so fills reach an index nearly in seq order: placing one walks
// back from the tail only past entries a fresher node stamped since.
type edgeCache struct {
	mu     sync.Mutex
	cap    int
	m      map[string]*edgeEntry
	lru    *list.List            // front = most recently served
	cities map[string]*list.List // city -> its entries, ascending seq
	floors map[string]int64      // city -> min servable entry seq
	fills  map[string]*edgeFill
	bytes  int // sum of resident body lengths

	hits          *telemetry.Counter
	misses        *telemetry.Counter
	coalesced     *telemetry.Counter
	invalidations *telemetry.Counter
}

func newEdgeCache(cap int, ctr counters) *edgeCache {
	return &edgeCache{
		cap:           cap,
		m:             make(map[string]*edgeEntry),
		lru:           list.New(),
		cities:        make(map[string]*list.List),
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
	e, ok := ec.m[key]
	if !ok {
		ec.misses.Inc()
		return nil
	}
	if f := ec.floors[e.city]; f > floor {
		floor = f
	}
	if e.seq < floor {
		ec.misses.Inc()
		return nil
	}
	ec.lru.MoveToFront(e.lru)
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
	if old, ok := ec.m[e.key]; ok {
		// Keep the freshest render: a racing slower fill from a lagging
		// follower must not replace a newer entry.
		if old.seq > e.seq {
			return
		}
		ec.removeLocked(old)
	}
	ec.m[e.key] = e
	e.lru = ec.lru.PushFront(e)
	ec.bytes += len(e.body)
	idx := ec.cities[e.city]
	if idx == nil {
		idx = list.New()
		ec.cities[e.city] = idx
	}
	at := idx.Back()
	for at != nil && at.Value.(*edgeEntry).seq > e.seq {
		at = at.Prev()
	}
	if at == nil {
		e.byCity = idx.PushFront(e)
	} else {
		e.byCity = idx.InsertAfter(e, at)
	}
	for ec.lru.Len() > ec.cap {
		ec.removeLocked(ec.lru.Back().Value.(*edgeEntry))
	}
}

// removeLocked drops one resident entry from the key map, the LRU and its
// city's index. ec.mu is held.
func (ec *edgeCache) removeLocked(e *edgeEntry) {
	delete(ec.m, e.key)
	ec.lru.Remove(e.lru)
	ec.bytes -= len(e.body)
	idx := ec.cities[e.city]
	idx.Remove(e.byCity)
	if idx.Len() == 0 {
		delete(ec.cities, e.city)
	}
}

// invalidate raises the city's commit floor to seq: every entry rendered
// before the mutation that committed at seq stops serving immediately,
// and leaves the cache — the city's index is in seq order, so the
// retired entries are its prefix, and the cost is O(entries dropped). A
// fill that raced past the write carries a seq at or above the floor
// and stays.
func (ec *edgeCache) invalidate(city string, seq int64) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if seq <= ec.floors[city] {
		return
	}
	ec.floors[city] = seq
	ec.invalidations.Inc()
	if idx := ec.cities[city]; idx != nil {
		for el := idx.Front(); el != nil && el.Value.(*edgeEntry).seq < seq; el = idx.Front() {
			ec.removeLocked(el.Value.(*edgeEntry))
		}
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

// len returns the resident entry count (/metrics).
func (ec *edgeCache) len() int {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.lru.Len()
}

// size returns the resident body bytes (/metrics): what the cache holds
// beyond its bookkeeping.
func (ec *edgeCache) size() int {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.bytes
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
