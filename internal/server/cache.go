package server

// Version-keyed rendered-byte caches — the zero-copy hot path.
//
// Every hot read endpoint used to re-encode its JSON response on every
// request. But a city's serving state only changes when a mutation
// commits (or, on a follower, when a shipped frame applies), and the
// city already numbers those events: appliedSeq moves on every commit.
// The byte cache exploits that invariant: rendered response bytes are
// stored keyed by (route, cacheVersion), where cacheVersion is a per-city
// counter seeded from appliedSeq at load and bumped after every applied
// mutation. Serving a cached entry is a map hit plus one Write with
// Content-Length set — zero re-encoding, zero re-marshaling.
//
// Invalidation is free and race-safe by construction:
//
//   - the version is captured BEFORE rendering. If a mutation lands
//     while a response renders, the bump (which happens strictly AFTER
//     the in-memory state change) makes the stored entry unservable —
//     a racing fill can therefore only waste an entry, never serve
//     post-mutation bytes under a pre-mutation key or vice versa;
//   - an entry is served only while its version equals the current one,
//     so a reader can never observe bytes older than the last
//     acknowledged mutation (the bump precedes the mutation's response).
//
// The counter never reuses a value, so entries from superseded versions
// simply miss until they are swept.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"grouptravel/internal/telemetry"
)

const (
	// respCacheCap bounds a city's cache entries; overflow sweeps stale
	// versions, then drops an arbitrary entry. Hot reads (cities list,
	// package/group/POI reads) fit in a handful of entries per version.
	respCacheCap = 256
	// maxCachedBody keeps giant renders (huge ?k= POI listings) from
	// pinning memory; they are served from the pooled buffer instead.
	maxCachedBody = 1 << 20
	// maxPooledBuf drops oversized scratch buffers instead of pooling
	// them, so one large response does not pin its buffer forever.
	maxPooledBuf = 1 << 20
	// maxCacheKeyQuery bounds the query-string part of a cache key; a
	// longer query is served uncached rather than let arbitrary query
	// strings grow the key space.
	maxCacheKeyQuery = 200
)

// respEntry is one cached rendered response.
type respEntry struct {
	version int64
	status  int
	body    []byte
}

// respCache is a per-city byte cache. Entries are only served at their
// exact version; put sweeps stale versions on overflow. The counters are
// registry-backed (telemetry.go) so /healthz and /metrics report the same
// values; they are nil-safe for caches constructed outside a Server.
type respCache struct {
	mu        sync.Mutex
	entries   map[string]respEntry
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	fillRaces *telemetry.Counter
}

// get returns the cached body for key at exactly this version.
func (rc *respCache) get(key string, version int64) ([]byte, int, bool) {
	rc.mu.Lock()
	e, ok := rc.entries[key]
	rc.mu.Unlock()
	if ok && e.version == version {
		rc.hits.Inc()
		return e.body, e.status, true
	}
	rc.misses.Inc()
	return nil, 0, false
}

// put stores a rendered body under (key, version). The cache takes
// ownership of body.
func (rc *respCache) put(key string, version int64, status int, body []byte) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.entries == nil {
		rc.entries = make(map[string]respEntry)
	}
	if _, exists := rc.entries[key]; !exists && len(rc.entries) >= respCacheCap {
		for k, e := range rc.entries {
			if e.version != version {
				delete(rc.entries, k)
			}
		}
		if len(rc.entries) >= respCacheCap {
			for k := range rc.entries {
				delete(rc.entries, k)
				break
			}
		}
	}
	rc.entries[key] = respEntry{version: version, status: status, body: body}
}

// size returns the current entry count.
func (rc *respCache) size() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.entries)
}

// byteCacheHealth is the byte cache's slice of a city's health report.
type byteCacheHealth struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	FillRaces int64 `json:"fillRaces"` // fills a concurrent mutation made unservable
	Entries   int   `json:"entries"`
}

// jsonBufPool recycles the scratch buffers every JSON response renders
// into, so the uncached path stops allocating an encoder buffer per
// request.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeRawJSON writes pre-rendered JSON bytes with Content-Length set.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// renderJSON encodes v exactly as writeJSON does (json.Encoder, trailing
// newline) into a pooled buffer and returns an owned copy of the bytes.
func renderJSON(v any) []byte {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_ = json.NewEncoder(buf).Encode(v)
	body := append([]byte(nil), buf.Bytes()...)
	if buf.Cap() <= maxPooledBuf {
		jsonBufPool.Put(buf)
	}
	return body
}

// serveCached answers from the city's byte cache when the rendered bytes
// for key are current, and renders-then-fills otherwise. The version is
// captured before render runs — see the package comment above for why
// that ordering is what makes a racing mutation safe. Only 2xx responses
// are cached; error renders depend on transient state.
func (cs *cityState) serveCached(w http.ResponseWriter, key string, status int, render func() any) {
	v := cs.cacheVersion.Load()
	if cs.serveHit(w, key, v) {
		return
	}
	cs.fillAndServe(w, key, v, status, render)
}

// serveHit writes the cached bytes for (key, v) if present. Handlers with
// per-request validation call it before parsing anything: a cached 200
// proves an identical request already validated, so a hit skips the
// whole parse (handlePOIs' hot path).
func (cs *cityState) serveHit(w http.ResponseWriter, key string, v int64) bool {
	if body, st, ok := cs.rcache.get(key, v); ok {
		writeRawJSON(w, st, body)
		return true
	}
	return false
}

// fillAndServe renders, caches under the version v the caller captured
// BEFORE rendering (never a freshly loaded one — a mutation landing
// between capture and render must keep the fill unservable), and writes.
func (cs *cityState) fillAndServe(w http.ResponseWriter, key string, v int64, status int, render func() any) {
	body := renderJSON(render())
	if status < 300 && len(body) <= maxCachedBody {
		cs.rcache.put(key, v, status, body)
		if cs.cacheVersion.Load() != v {
			// A mutation landed mid-render: the entry just stored can never
			// be served. Counted, not corrected — the next reader refills.
			cs.rcache.fillRaces.Inc()
		}
	}
	writeRawJSON(w, status, body)
}

// bumpCacheVersion invalidates the city's byte cache (and the server's
// fleet-level /cities cache). Called strictly AFTER an in-memory state
// change is complete and strictly BEFORE the mutation is acknowledged to
// its client.
func (cs *cityState) bumpCacheVersion() {
	cs.cacheVersion.Add(1)
	if cs.fleetVersion != nil {
		cs.fleetVersion.Add(1)
	}
}

// fleetCache is the server-level cache for GET /cities, keyed by the
// fleet version — bumped by every city's mutations, compactions and
// loads, since the cities listing aggregates all of those.
type fleetCache struct {
	mu      sync.Mutex
	version int64
	body    []byte
}

// get returns the cached listing if it is current.
func (fc *fleetCache) get(version int64) ([]byte, bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.body != nil && fc.version == version {
		return fc.body, true
	}
	return nil, false
}

// put stores the listing rendered at version.
func (fc *fleetCache) put(version int64, body []byte) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.version, fc.body = version, body
}
