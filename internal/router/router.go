// Package router is the consistent-hash front tier: a thin HTTP proxy
// that spreads city keys across backend shards (each shard one primary
// plus N followers, wired by log shipping — see internal/replicate) and
// routes every request to a node that can serve it correctly:
//
//   - Mutations (POST) go to the shard's primary — discovered from node
//     health, not configured, so failover changes routing without a
//     topology edit. A 403 from a node that turned out to be a follower
//     is retried transparently at the primary its X-GT-Primary hint
//     names; only if that also fails is the 403 relayed, hint intact.
//   - Reads (GET) fan out to the freshest eligible replica: followers
//     first (freshest applied sequence wins), the primary as the last
//     candidate, with unhealthy and lag-shedded followers skipped and
//     failed candidates retried down the list, so a dying follower costs
//     a failover, not an error.
//   - Read-your-writes: every mutation response carries its committed
//     (city, seq) token, echoed as a gt-session cookie; a client that
//     replays the cookie (or sends the token back as X-GT-Min-Seq) has
//     its reads pinned to replicas at or past its last written sequence
//     — it can never observe pre-write state through any router, while
//     token-less traffic keeps enjoying follower fan-out. The router
//     holds no per-client state: the floor travels with the request.
//
// The routing unit is the city key — the same unit internal/registry
// shards within a process — so the front tier scales the same axis
// horizontally: more shards, bounded key movement (consistent hashing),
// deterministic placement across router restarts.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grouptravel/internal/replicate"
	"grouptravel/internal/telemetry"
)

// Protocol headers. The X-GT-City/X-GT-Seq commit token and the
// X-GT-Primary hint are stamped by the backend (internal/server); the
// router consumes them and adds its own: the explicit-floor request
// header, and response headers naming which shard/backend served — the
// observability hook the examples and tests read.
const (
	HeaderSeq        = "X-GT-Seq"
	HeaderCity       = "X-GT-City"
	HeaderPrimary    = "X-GT-Primary"
	HeaderMinSeq     = "X-GT-Min-Seq"
	HeaderShard      = "X-GT-Shard"
	HeaderBackend    = "X-GT-Backend"
	HeaderAppliedSeq = "X-GT-Applied-Seq"
)

// SessionCookie is the client-carried slice of the read-your-writes
// contract: every mutation response echoes its commit token (merged with
// the floors the request's cookie already carried) as a gt-session
// cookie, and any later read presenting the cookie has its floor raised
// to the cookie's sequence for the request's city. A cookie-only client
// — a browser behind any of N routers — therefore keeps read-your-writes
// with zero router-side state. The value encodes per-city floors as
// "city:seq|city:seq" using only cookie-safe bytes.
const SessionCookie = "gt-session"

const (
	// DefaultPollInterval is the health feed's refresh cadence. Freshness
	// data half a second stale only delays follower eligibility — read
	// pinning stays correct because a pinned read demands the replica's
	// *reported* sequence reach the token, and reports never run ahead of
	// applied state.
	DefaultPollInterval = 500 * time.Millisecond
	// DefaultShedLag is how many records a follower may trail its primary
	// before token-less reads shed it: far enough behind, serving it is
	// worse than the primary's extra load.
	DefaultShedLag = 1024
	// maxBufferedBody bounds a buffered mutation body (bodies must be
	// replayable for the 403/failover retries).
	maxBufferedBody = 16 << 20
)

// Options configures a Router.
type Options struct {
	// Topology is the shard layout. Required.
	Topology *Topology
	// PollInterval is the health feed cadence: 0 selects
	// DefaultPollInterval; < 0 starts no background poller — the embedder
	// calls Poll itself (tests).
	PollInterval time.Duration
	// ShedLag is the max records a follower may lag before token-less
	// reads shed it (0: DefaultShedLag; < 0: never shed).
	ShedLag int64
	// HTTP overrides the backend transport; when nil, a keep-alive client
	// with per-phase transport deadlines (dial, response headers, idle) and
	// no overall timeout — the /wal streams proxied for push replication
	// are healthy precisely when they stay open.
	HTTP *http.Client
	// AccessLog, when set, receives one structured record per routed
	// request (request id, endpoint class, city, shard, backend, status,
	// duration). Nil disables access logging.
	AccessLog *slog.Logger
	// Failover is the primary lease: when a shard's writable node stays
	// unreachable this long across health polls while no other writable
	// node appears, the router auto-promotes the shard's freshest healthy
	// follower (POST /promote), bumping the replication epoch that fences
	// the deposed primary. 0 disables automatic failover — promotion
	// stays a manual operation.
	Failover time.Duration
	// EdgeCache enables the router's seq-validated response cache for hot
	// city-scoped GETs (see edgecache.go): zero-hop reads with coalesced
	// fills, read-your-writes floors honored, staleness bounded by the
	// health feed's poll window. Off by default. Only responses a shard
	// stamped with X-GT-Applied-Seq are cached.
	EdgeCache bool
}

// counters are the router's routing telemetry, surfaced on /metrics
// (registry-backed series, see telemetry.go) — the observable proof of
// where traffic actually went.
type counters struct {
	readsTotal         *telemetry.Counter
	readsPrimary       *telemetry.Counter
	readsFollower      *telemetry.Counter
	readsPinned        *telemetry.Counter
	readFailovers      *telemetry.Counter
	followersShed      *telemetry.Counter
	mutations          *telemetry.Counter
	mutationRetries403 *telemetry.Counter
	mutationFailovers  *telemetry.Counter
	autoPromotions     *telemetry.Counter
	edgeHits           *telemetry.Counter
	edgeMisses         *telemetry.Counter
	edgeCoalesced      *telemetry.Counter
	edgeInvalidations  *telemetry.Counter
}

// routeTable is one immutable routing generation: the validated
// topology, its hash ring, and the shard index. The router swaps whole
// tables atomically (Reload), so every request routes against exactly
// one consistent generation — never a ring from one topology and a
// shard list from another.
type routeTable struct {
	topo      *Topology
	ring      *Ring
	shards    map[string]*Shard
	nodeShard map[string]string // node URL -> owning shard name
}

func newRouteTable(topo *Topology) (*routeTable, error) {
	names := make([]string, 0, len(topo.Shards))
	shards := make(map[string]*Shard, len(topo.Shards))
	nodeShard := make(map[string]string)
	for i := range topo.Shards {
		sh := &topo.Shards[i]
		names = append(names, sh.Name)
		shards[sh.Name] = sh
		for _, n := range sh.Nodes {
			nodeShard[n] = sh.Name
		}
	}
	ring, err := NewRing(names, topo.VirtualNodes)
	if err != nil {
		return nil, err
	}
	return &routeTable{topo: topo, ring: ring, shards: shards, nodeShard: nodeShard}, nil
}

// Router is the front-tier proxy. Construct with New, serve Handler.
type Router struct {
	table     atomic.Pointer[routeTable]
	health    *healthFeed
	edge      *edgeCache // nil when the edge cache is disabled
	client    *http.Client
	shedLag   int64
	failover  time.Duration
	ctr       counters
	metrics   *telemetry.Registry
	httpM     *telemetry.HTTPMetrics
	accessLog *slog.Logger

	// downSince tracks, per shard, when the supervisor first saw the
	// shard's writable node dark with no replacement — the start of the
	// failover lease countdown. Guarded by superMu; only the supervisor
	// (one pass per poll) touches it.
	superMu   sync.Mutex
	downSince map[string]time.Time

	// baseURLs caches each backend base URL parsed once — forward copies
	// the cached struct per request instead of re-parsing "scheme://host"
	// from scratch on every proxied hop. Keys are the handful of node URLs
	// the topology lists (plus any X-GT-Primary hints), so the map never
	// grows past the fleet size.
	baseURLs sync.Map // string -> *url.URL
}

// defaultProxyClient carries all backend traffic: proxied requests,
// health polls, and — with push replication — /wal streams a follower
// holds open through the router. That last case rules out Client.Timeout
// (it would cut every healthy stream at the mark); instead each phase is
// bounded on the Transport: dial, time-to-headers, idle reuse. The pool
// sizes fit the fan-out shape — a router talks to a handful of backends,
// each carrying many concurrent proxied requests, so per-host idle
// capacity matters more than total.
var defaultProxyClient = &http.Client{Transport: &http.Transport{
	DialContext: (&net.Dialer{
		Timeout:   5 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:          256,
	MaxIdleConnsPerHost:   32,
	IdleConnTimeout:       90 * time.Second,
	ResponseHeaderTimeout: 30 * time.Second,
}}

// New builds a router over a validated topology.
func New(opts Options) (*Router, error) {
	if opts.Topology == nil {
		return nil, fmt.Errorf("router: no topology")
	}
	if err := opts.Topology.Validate(); err != nil {
		return nil, fmt.Errorf("router: topology: %w", err)
	}
	table, err := newRouteTable(opts.Topology)
	if err != nil {
		return nil, err
	}
	client := opts.HTTP
	if client == nil {
		client = defaultProxyClient
	}
	interval := opts.PollInterval
	if interval == 0 {
		interval = DefaultPollInterval
	}
	shedLag := opts.ShedLag
	if shedLag == 0 {
		shedLag = DefaultShedLag
	}
	reg := telemetry.NewRegistry()
	rt := &Router{
		health:    newHealthFeed(opts.Topology.nodeURLs(), client, interval),
		client:    client,
		shedLag:   shedLag,
		failover:  opts.Failover,
		ctr:       newCounters(reg),
		metrics:   reg,
		httpM:     telemetry.NewHTTPMetrics(reg),
		accessLog: opts.AccessLog,
		downSince: make(map[string]time.Time),
	}
	rt.table.Store(table)
	rt.health.instrument(reg)
	rt.health.epochFor = rt.epochForNode
	rt.health.afterPoll = rt.supervise
	if opts.EdgeCache {
		rt.edge = newEdgeCache(DefaultEdgeCacheMax, rt.ctr)
		reg.GaugeFunc("gt_router_edgecache_entries", "Edge-cache entries resident.",
			func() float64 { return float64(rt.edge.len()) })
		reg.GaugeFunc("gt_router_edgecache_bytes", "Edge-cache response body bytes resident.",
			func() float64 { return float64(rt.edge.size()) })
	}
	rt.health.start()
	return rt, nil
}

// Reload swaps the routing topology in place: the ring, shard index,
// and health-feed node set all move to the new layout atomically while
// requests keep flowing. Views (and so epochs) of surviving nodes are
// kept; in-flight requests finish against the generation they started
// on. Invalid topologies are rejected with the old one untouched.
func (rt *Router) Reload(topo *Topology) error {
	if topo == nil {
		return fmt.Errorf("router: reload: no topology")
	}
	if err := topo.Validate(); err != nil {
		return fmt.Errorf("router: reload: topology: %w", err)
	}
	table, err := newRouteTable(topo)
	if err != nil {
		return fmt.Errorf("router: reload: %w", err)
	}
	rt.table.Store(table)
	rt.health.setNodes(topo.nodeURLs())
	return nil
}

// Poll runs one synchronous health pass over every node (plus the
// failover supervision that rides every pass) — boot warm-up and
// deterministic tests.
func (rt *Router) Poll() { rt.health.pollAll() }

// Close stops the background health poller.
func (rt *Router) Close() { rt.health.stopPolling() }

// Ring exposes the hash ring (tests, placement inspection).
func (rt *Router) Ring() *Ring { return rt.table.Load().ring }

// epochForNode resolves the fencing epoch a health poll of the given
// node should carry: the highest term any node of the same shard has
// reported. Per-shard, never global — shard epochs advance
// independently, and a global maximum would fence other shards'
// legitimate primaries.
func (rt *Router) epochForNode(url string) (int64, string) {
	tab := rt.table.Load()
	name, ok := tab.nodeShard[url]
	if !ok {
		return 0, ""
	}
	return rt.shardEpoch(tab.shards[name])
}

// shardEpoch is the highest replication term any of the shard's nodes
// has reported, and the primary that owns it.
func (rt *Router) shardEpoch(sh *Shard) (int64, string) {
	var term int64
	var owner string
	for _, n := range sh.Nodes {
		if v := rt.health.view(n); v.Epoch > term {
			term, owner = v.Epoch, v.EpochPrimary
		}
	}
	return term, owner
}

// Handler returns the router's HTTP handler: the backend's /cities tree,
// routed per city key, plus the router's own /healthz and /metrics. The
// whole mux runs under the telemetry middleware with Mint on: the router
// is where a request enters the fleet, so it mints X-GT-Request-Id
// (honoring a caller-supplied one) and forward's copyHeader relays it
// across every proxy, 403-retry, and failover hop to the shard.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.Handle("GET /metrics", rt.metrics.Handler())
	mux.HandleFunc("GET /cities", rt.handleCities)
	mux.HandleFunc("/cities/{city}", rt.handleCityRoute)
	mux.HandleFunc("/cities/{city}/{rest...}", rt.handleCityRoute)
	mw := &telemetry.Middleware{Metrics: rt.httpM, Log: rt.accessLog, Mint: true}
	return mw.Wrap(mux)
}

// handleCityRoute proxies one city-scoped request to its shard.
func (rt *Router) handleCityRoute(w http.ResponseWriter, r *http.Request) {
	city := strings.ToLower(r.PathValue("city"))
	tab := rt.table.Load()
	sh := tab.shards[tab.ring.Shard(city)]
	switch r.Method {
	case http.MethodGet:
		rt.proxyRead(sh, city, r.PathValue("rest"), w, r)
	case http.MethodPost:
		rt.proxyMutation(sh, city, w, r)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method %s not routed", r.Method)
	}
}

// --- read path ---

// proxyRead routes a GET: through the edge cache when it is on and the
// route may touch it (zero-hop hits, coalesced fills), and directly to
// the freshest eligible replica otherwise. rest is the city-relative
// route ("" for the city-info endpoint).
func (rt *Router) proxyRead(sh *Shard, city, rest string, w http.ResponseWriter, r *http.Request) {
	rt.ctr.readsTotal.Inc()
	minSeq := readFloor(city, r)
	if minSeq > 0 {
		rt.ctr.readsPinned.Inc()
	}
	if rt.edge != nil && edgeCacheable(rest, r.URL.RawQuery) {
		rt.edgeRead(sh, city, rest, w, r, minSeq)
		return
	}
	resp, node, ok := rt.fetchRead(sh, city, rest, w, r, minSeq)
	if !ok {
		return
	}
	rt.relay(w, resp, sh.Name, node, rest == "wal")
}

// fetchRead walks the read candidates — eligible followers freshest
// first, the discovered primary last — failing over on connection errors
// and retryable statuses, and returns the first usable backend response
// with the node that produced it. On total failure the error response is
// already written and ok is false.
func (rt *Router) fetchRead(sh *Shard, city, rest string, w http.ResponseWriter, r *http.Request, minSeq int64) (resp *http.Response, node string, ok bool) {
	primary := rt.primaryOf(sh)
	var cands []string
	if rest == "wal" {
		// The replication stream must come from one coherent log: a
		// follower tailing through the router would otherwise hop between
		// backends mid-log. Primary only.
		cands = []string{primary}
	} else {
		cands = rt.readCandidates(sh, city, primary, minSeq)
	}
	if len(cands) == 0 {
		writeErr(w, http.StatusServiceUnavailable,
			"no replica of shard %q is known to be at or past seq %d for city %q", sh.Name, minSeq, city)
		return nil, "", false
	}
	term, owner := rt.shardEpoch(sh)
	for i, cand := range cands {
		resp, err := rt.forward(cand, r, nil, term, owner)
		if err != nil || readRetryable(resp.StatusCode) {
			if resp != nil {
				drain(resp)
			}
			if i < len(cands)-1 {
				rt.ctr.readFailovers.Inc()
			}
			continue
		}
		if cand == primary {
			rt.ctr.readsPrimary.Inc()
		} else {
			rt.ctr.readsFollower.Inc()
		}
		return resp, cand, true
	}
	writeErr(w, http.StatusBadGateway, "no replica of shard %q reachable for city %q", sh.Name, city)
	return nil, "", false
}

// healthMaxApplied is the freshest applied sequence any node of the
// shard has reported for the city — the edge cache's staleness bound: an
// entry older than what the health feed already knows exists must not
// serve, so cache staleness never exceeds the poll-interval window
// token-less reads already accept.
func (rt *Router) healthMaxApplied(sh *Shard, city string) int64 {
	var m int64
	for _, n := range sh.Nodes {
		if v := rt.health.view(n); v.AppliedSeq[city] > m {
			m = v.AppliedSeq[city]
		}
	}
	return m
}

// edgeRead serves one cacheable routed GET through the edge cache: a
// validated hit costs zero proxy hops; a miss joins the key's
// singleflight fill — one upstream hop no matter how many requests
// collide on the key. The combined floor is computed once per request:
// the request's own floor (read-your-writes), the city's commit floor
// (immediate invalidation by proxied mutations), and the health feed's
// max applied sequence (bounded staleness for writes this router never
// saw).
func (rt *Router) edgeRead(sh *Shard, city, rest string, w http.ResponseWriter, r *http.Request, minSeq int64) {
	key := edgeKey(city, r.URL.Path, r.URL.RawQuery)
	floor := minSeq
	if f := rt.edge.floor(city); f > floor {
		floor = f
	}
	if h := rt.healthMaxApplied(sh, city); h > floor {
		floor = h
	}
	if e := rt.edge.get(key, floor); e != nil {
		writeEdge(w, e, sh.Name)
		return
	}
	fill, leader := rt.edge.join(key)
	if !leader {
		rt.ctr.edgeCoalesced.Inc()
		select {
		case <-fill.done:
			if e := fill.entry; e != nil && e.seq >= floor {
				writeEdge(w, e, sh.Name)
				return
			}
		case <-r.Context().Done():
			writeErr(w, http.StatusServiceUnavailable, "canceled while awaiting a coalesced fill for city %q", city)
			return
		}
		// The fill failed or could not prove this reader's floor: pay the
		// proxy hop directly. Never re-coalesce — a second wait could
		// chain fills forever behind a floor no fill reaches.
		resp, node, ok := rt.fetchRead(sh, city, rest, w, r, minSeq)
		if !ok {
			return
		}
		rt.relay(w, resp, sh.Name, node, false)
		return
	}
	// Leader: one upstream hop, captured into the cache for every rider
	// and future hit. finish always runs — a leader that errors out must
	// release the waiters, not strand them until their contexts expire.
	var entry *edgeEntry
	defer func() { rt.edge.finish(key, fill, entry) }()
	resp, node, ok := rt.fetchRead(sh, city, rest, w, r, minSeq)
	if !ok {
		return
	}
	entry = rt.captureAndRelay(w, resp, sh, city, key, node)
}

// captureAndRelay relays one backend response while capturing it into an
// edge-cache entry when it is cacheable: status 200, stamped with a
// positive X-GT-Applied-Seq (the shard's proof of what state the bytes
// reflect — unstamped responses cannot be validated and are never
// cached), and bounded in size. Oversized bodies stream through after
// the buffered prefix. Returns the stored entry, nil when uncacheable.
func (rt *Router) captureAndRelay(w http.ResponseWriter, resp *http.Response, sh *Shard, city, key, node string) *edgeEntry {
	defer resp.Body.Close()
	body, err := readCapture(resp)
	if err != nil {
		writeErr(w, http.StatusBadGateway, "read %s response: %v", node, err)
		return nil
	}
	copyHeader(w.Header(), resp.Header)
	w.Header().Set(HeaderShard, sh.Name)
	w.Header().Set(HeaderBackend, node)
	overflow := len(body) > maxEdgeBody
	if !overflow {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	} else if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
	if overflow {
		buf := copyBufPool.Get().(*[]byte)
		_, _ = io.CopyBuffer(w, resp.Body, *buf)
		copyBufPool.Put(buf)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	seq, err := strconv.ParseInt(resp.Header.Get(HeaderAppliedSeq), 10, 64)
	if err != nil || seq <= 0 {
		return nil
	}
	e := &edgeEntry{key: key, city: city, seq: seq, ctype: resp.Header.Get("Content-Type"), body: body}
	rt.edge.put(e)
	return e
}

// readCapture reads up to maxEdgeBody+1 bytes of a response body for
// captureAndRelay. A body whose Content-Length is known and within the
// cap is read into one slice of exactly that size — the slice a cached
// entry then keeps, with no growth slack for the cache to pin. Chunked
// and oversized bodies take io.ReadAll's growing buffer; the extra byte
// tells captureAndRelay an oversized body from one at the cap.
func readCapture(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxEdgeBody {
		body := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxEdgeBody+1))
}

// readFloor resolves the minimum acceptable sequence for this read: the
// explicit X-GT-Min-Seq floor, raised by the gt-session cookie's floor
// for this city. Both carriers are stateless — the floor arrives with
// the request — so any router of a fleet serves it identically. The
// cookie is the header-less form: a browser that merely replays
// Set-Cookie gets read-your-writes with no client code at all.
func readFloor(city string, r *http.Request) int64 {
	var minSeq int64
	if v := r.Header.Get(HeaderMinSeq); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			minSeq = n
		}
	}
	if ck, err := r.Cookie(SessionCookie); err == nil {
		if s := cookieFloor(ck.Value, city); s > minSeq {
			minSeq = s
		}
	}
	return minSeq
}

// cookieFloor extracts the named city's floor from a gt-session cookie
// value ("city:seq|city:seq"). Malformed slices are ignored — a client
// that mangles its cookie degrades to token-less reads, never to an
// error.
func cookieFloor(value, city string) int64 {
	for v := value; v != ""; {
		var pair string
		if i := strings.IndexByte(v, '|'); i >= 0 {
			pair, v = v[:i], v[i+1:]
		} else {
			pair, v = v, ""
		}
		i := strings.LastIndexByte(pair, ':')
		if i < 0 || pair[:i] != city {
			continue
		}
		if n, err := strconv.ParseInt(pair[i+1:], 10, 64); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// cookieToken renders the merged gt-session cookie value after a write:
// the request's existing cookie floors with the written city raised to
// seq. Cities are bounded by the topology, so the value stays small; the
// separator set (':' and '|') is cookie-value-safe so net/http never
// sanitizes bytes away.
func cookieToken(prev, city string, seq int64) string {
	if s := cookieFloor(prev, city); s > seq {
		seq = s // racing responses must never lower an established floor
	}
	var b strings.Builder
	b.WriteString(city)
	b.WriteByte(':')
	b.WriteString(strconv.FormatInt(seq, 10))
	for v := prev; v != ""; {
		var pair string
		if i := strings.IndexByte(v, '|'); i >= 0 {
			pair, v = v[:i], v[i+1:]
		} else {
			pair, v = v, ""
		}
		i := strings.LastIndexByte(pair, ':')
		if i < 0 || pair[:i] == city {
			continue
		}
		if n, err := strconv.ParseInt(pair[i+1:], 10, 64); err != nil || n <= 0 {
			continue
		}
		b.WriteByte('|')
		b.WriteString(pair)
	}
	return b.String()
}

// readCandidates orders a shard's nodes for one read: eligible followers
// freshest-first, the discovered primary as the final fallback. A real
// primary is always eligible — it is the source of truth, so a pinned
// read can never outrun it — but when discovery had to *guess* (nothing
// healthy identified itself as primary), a fallback that is known to be
// a follower below the read floor is dropped rather than trusted:
// serving pre-write state silently is worse than the empty candidate
// list the caller answers 503 for. A follower is eligible when its last
// poll succeeded, its role is actually follower, its reported appliedSeq
// reaches the read floor, and — for token-less reads — it is not shed
// for lagging the primary by more than shedLag records.
func (rt *Router) readCandidates(sh *Shard, city, primary string, minSeq int64) []string {
	type cand struct {
		url string
		seq int64
	}
	primarySeq := rt.health.view(primary).AppliedSeq[city]
	var followers []cand
	for _, n := range sh.Nodes {
		if n == primary {
			continue
		}
		v := rt.health.view(n)
		if v.Err != "" || v.Role != "follower" {
			continue
		}
		seq := v.AppliedSeq[city]
		if minSeq > 0 && seq < minSeq {
			continue // behind the reader's write: would serve pre-write state
		}
		if minSeq == 0 && rt.shedLag > 0 && primarySeq > 0 && primarySeq-seq > rt.shedLag {
			rt.ctr.followersShed.Inc()
			continue
		}
		followers = append(followers, cand{url: n, seq: seq})
	}
	sort.SliceStable(followers, func(i, j int) bool { return followers[i].seq > followers[j].seq })
	out := make([]string, 0, len(followers)+1)
	for _, f := range followers {
		out = append(out, f.url)
	}
	if minSeq > 0 {
		v := rt.health.view(primary)
		writable := v.Role == "primary" || v.Role == "promoted"
		if !writable && v.AppliedSeq[city] < minSeq {
			// The fallback is a guess that cannot *prove* the floor — a
			// known or never-identified follower may be lagging, and an
			// unproven 200 here would be pre-write state. Let the caller
			// answer 503; the next successful health poll restores service.
			return out
		}
	}
	return append(out, primary)
}

// readRetryable: statuses that mean "this replica, right now" rather
// than "this request": a 403 (read-only race or a misrouted gate), 5xx
// unavailability. 404s are authoritative — a lagging follower legitimately
// 404s a token-less read of a fresh entity; that is the eventual-
// consistency contract token-less traffic opted into.
func readRetryable(status int) bool {
	switch status {
	case http.StatusForbidden, http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// --- mutation path ---

// proxyMutation routes a POST to the shard's primary. The body is
// buffered so it can be replayed: a 403 from a stale primary view is
// retried at the node the X-GT-Primary hint names, and a dead node fails
// over through the shard's remaining nodes (one of which may have been
// promoted). Only when the hint and every remaining node fail too is the
// first 5xx, else the original 403 with its hint intact, relayed — the
// client learns exactly what the router knew.
//
// Mutations are not idempotent, so the failover rules are narrower than
// the read path's: a *dial* failure (the request never reached the
// backend) and a 5xx *response* are safe to retry. A shard installs a
// write only after its log append succeeded and answers 503, installing
// nothing, when the append fails; the next nodes are followers that
// refuse with a 403, or one promoted since the last poll, which accepts.
// When no node accepts, the first 5xx is relayed: it outranks a
// follower's 403, which would send the client back to the primary that
// just refused. A timeout or mid-stream cut is ambiguous — the backend
// may have committed — and is answered 502 rather than re-sent, because a
// silent double-apply is worse than a client-visible unknown.
func (rt *Router) proxyMutation(sh *Shard, city string, w http.ResponseWriter, r *http.Request) {
	rt.ctr.mutations.Inc()
	// The body buffers into pooled storage — it only needs to live until
	// the last forward attempt below, so the buffer recycles per request
	// instead of a fresh io.ReadAll allocation per mutation.
	bodyBuf := bodyBufPool.Get().(*bytes.Buffer)
	bodyBuf.Reset()
	defer bodyBufPool.Put(bodyBuf)
	if _, err := bodyBuf.ReadFrom(io.LimitReader(r.Body, maxBufferedBody+1)); err != nil {
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	body := bodyBuf.Bytes()
	if len(body) > maxBufferedBody {
		writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxBufferedBody)
		return
	}
	primary := rt.primaryOf(sh)
	order := make([]string, 0, len(sh.Nodes))
	order = append(order, primary)
	for _, n := range sh.Nodes {
		if n != primary {
			order = append(order, n)
		}
	}

	// The first 5xx and the first follower 403 are kept aside and relayed
	// — the 403's hint intact — only after every other avenue is
	// exhausted: the hinted primary first, then the shard's remaining
	// nodes (one may have been promoted since the last health poll).
	var failed, denied *heldResponse
	tried := make(map[string]bool, len(order)+1)
	term, epochOwner := rt.shardEpoch(sh)

	// attempt sends the mutation to one node and fully classifies the
	// outcome; true means a response (success or terminal failure) was
	// written. A 403 chases its X-GT-Primary hint immediately — the hint
	// names the node the follower actually replicates from, a better
	// guess than list order — with the tried set bounding the recursion.
	var attempt func(node string) bool
	attempt = func(node string) bool {
		if node == "" || tried[node] {
			return false
		}
		tried[node] = true
		resp, err := rt.forward(node, r, body, term, epochOwner)
		if err != nil {
			if !dialFailure(err) {
				writeErr(w, http.StatusBadGateway,
					"mutation to %s failed mid-flight (it may or may not have committed): %v", node, err)
				return true
			}
			rt.ctr.mutationFailovers.Inc()
			return false
		}
		if resp.StatusCode >= http.StatusInternalServerError {
			failed = holdFirst(failed, resp, node)
			rt.ctr.mutationFailovers.Inc()
			return false
		}
		if resp.StatusCode == http.StatusForbidden {
			hint := resp.Header.Get(HeaderPrimary)
			denied = holdFirst(denied, resp, node)
			if target := rt.resolveNode(sh, hint); target != "" && !tried[target] {
				rt.ctr.mutationRetries403.Inc()
				return attempt(target)
			}
			return false
		}
		rt.noteMutation(city, r, w, resp)
		rt.relay(w, resp, sh.Name, node, false)
		return true
	}

	for _, node := range order {
		if attempt(node) {
			return
		}
	}
	// Every other avenue failed: a node's 5xx, else a 403 with its hint,
	// is the most truthful answer the shard produced.
	if failed == nil {
		failed = denied
	}
	if failed != nil {
		copyHeader(w.Header(), failed.hdr)
		w.Header().Set(HeaderShard, sh.Name)
		w.Header().Set(HeaderBackend, failed.node)
		w.WriteHeader(failed.status)
		_, _ = w.Write(failed.body)
		return
	}
	writeErr(w, http.StatusBadGateway, "no node of shard %q accepted the mutation for city %q", sh.Name, city)
}

// heldResponse is a refusal proxyMutation keeps aside while it tries the
// shard's other nodes.
type heldResponse struct {
	status int
	hdr    http.Header
	body   []byte
	node   string
}

// holdFirst keeps resp unless an earlier refusal is already held, and
// consumes its body either way.
func holdFirst(held *heldResponse, resp *http.Response, node string) *heldResponse {
	if held != nil {
		drain(resp)
		return held
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxBufferedBody))
	resp.Body.Close()
	return &heldResponse{status: resp.StatusCode, hdr: resp.Header.Clone(), body: body, node: node}
}

// dialFailure reports whether a forward error happened while *dialing* —
// before the request could have reached the backend — which is the only
// transport failure a non-idempotent mutation may retry after.
func dialFailure(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// noteMutation records a successful mutation's commit token two ways,
// both strictly before the ack relays to the client: against the edge
// cache (the city's commit floor rises, so entries rendered pre-write
// stop serving before the writer can act on the ack), and as a
// gt-session cookie echo (header-less read-your-writes for clients that
// just replay their cookie jar). A shard acknowledges a write only once
// its record is durable and installed, and stamps every commit with its
// token, so a 2xx without one — a refine without rebuild — committed
// nothing: the city's entries and floors stay as they are.
func (rt *Router) noteMutation(city string, r *http.Request, w http.ResponseWriter, resp *http.Response) {
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return
	}
	seq, err := strconv.ParseInt(resp.Header.Get(HeaderSeq), 10, 64)
	if err != nil || seq <= 0 {
		return
	}
	tokenCity := resp.Header.Get(HeaderCity)
	if tokenCity == "" {
		tokenCity = city
	}
	if rt.edge != nil {
		rt.edge.invalidate(tokenCity, seq)
	}
	var prev string
	if ck, err := r.Cookie(SessionCookie); err == nil {
		prev = ck.Value
	}
	http.SetCookie(w, &http.Cookie{Name: SessionCookie, Value: cookieToken(prev, tokenCity, seq), Path: "/"})
}

// --- shared plumbing ---

// primaryOf discovers a shard's primary from node health. The shard's
// replication epoch rules first: whoever owns the highest term *is* the
// primary, whatever stale roles other views still claim — after a
// failover, a healed deposed node may report role "primary" for one
// more poll, and believing it would be split-brain routing. Below the
// epoch: a healthy node reporting role "primary" wins, then a healthy
// "promoted" ex-follower, then a node whose *last known* role was
// primary/promoted even if its latest poll failed (a transient poll
// failure must not redirect mutations at a node that is known to be a
// follower), then a never-identified node, then the first listed one.
// The 403-retry path heals a wrong guess on the mutation side; the read
// side additionally guards pinned reads against a known-follower
// fallback (readCandidates).
func (rt *Router) primaryOf(sh *Shard) string {
	if _, epochOwner := rt.shardEpoch(sh); epochOwner != "" {
		if n := rt.resolveNode(sh, epochOwner); n != "" {
			return n
		}
	}
	var promoted, staleWritable, unknown string
	for _, n := range sh.Nodes {
		v := rt.health.view(n)
		writable := v.Role == "primary" || v.Role == "promoted"
		switch {
		case v.Err == "" && v.Role == "primary":
			return n
		case v.Err == "" && v.Role == "promoted" && promoted == "":
			promoted = n
		case v.Err != "" && writable && staleWritable == "":
			staleWritable = n
		case v.Role == "" && unknown == "":
			unknown = n
		}
	}
	for _, n := range []string{promoted, staleWritable, unknown} {
		if n != "" {
			return n
		}
	}
	return sh.Nodes[0]
}

// resolveNode maps an X-GT-Primary hint onto a shard node, matching both
// listed URLs and advertised ones (a follower knows its upstream by the
// address *it* dials, which node lists may not repeat verbatim). An
// unmatched non-empty hint is trusted as-is — the hinting node reaches
// its primary there, so the router can too.
func (rt *Router) resolveNode(sh *Shard, hint string) string {
	hint = strings.TrimRight(hint, "/")
	if hint == "" {
		return ""
	}
	for _, n := range sh.Nodes {
		if n == hint {
			return n
		}
		if v := rt.health.view(n); v.Advertise != "" && v.Advertise == hint {
			return n
		}
	}
	return hint
}

// forward sends a copy of the inbound request to one backend. GET bodies
// are empty; mutation bodies are the buffered bytes, replayable across
// candidates (GetBody lets the transport itself replay over a dead
// keep-alive connection). The outbound request is assembled directly —
// cached base URL copied by value, path/query taken from the inbound
// parse — rather than formatting a URL string for http.NewRequest to
// parse straight back apart; that round-trip was the proxy hot path's
// single largest allocation source.
//
// term/owner are the shard's fencing epoch, stamped after the header
// copy so the router's authoritative value always replaces anything the
// client sent — epoch headers from outside the fleet are stripped
// either way (a forged X-GT-Epoch must not be able to fence a primary
// through the proxy).
func (rt *Router) forward(base string, r *http.Request, body []byte, term int64, owner string) (*http.Response, error) {
	bu, err := rt.baseURL(base)
	if err != nil {
		return nil, err
	}
	u := *bu
	u.Path = bu.Path + r.URL.Path
	if bu.RawPath != "" || r.URL.RawPath != "" {
		u.RawPath = bu.EscapedPath() + r.URL.EscapedPath()
	}
	u.RawQuery = r.URL.RawQuery
	req := (&http.Request{
		Method:     r.Method,
		URL:        &u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header, len(r.Header)+2),
		Host:       u.Host,
	}).WithContext(r.Context())
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
	}
	copyHeader(req.Header, r.Header)
	req.Header.Del(replicate.HeaderEpoch)
	req.Header.Del(replicate.HeaderEpochPrimary)
	if term > 0 {
		req.Header.Set(replicate.HeaderEpoch, strconv.FormatInt(term, 10))
		if owner != "" {
			req.Header.Set(replicate.HeaderEpochPrimary, owner)
		}
	}
	return rt.client.Do(req)
}

// baseURL returns the parsed form of a backend base URL, parsing each
// distinct base exactly once.
func (rt *Router) baseURL(base string) (*url.URL, error) {
	if v, ok := rt.baseURLs.Load(base); ok {
		return v.(*url.URL), nil
	}
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	rt.baseURLs.Store(base, u)
	return u, nil
}

// copyBufPool feeds relay's io.CopyBuffer: one 32 KiB scratch buffer per
// in-flight relay instead of the fresh buffer a bare io.Copy allocates
// for every proxied response.
var copyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 32*1024)
	return &b
}}

// bodyBufPool recycles the buffers proxyMutation reads request bodies
// into, replacing a per-mutation io.ReadAll allocation.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// relay streams a backend response to the client, stamping which shard
// and backend served it. The copy runs over a pooled buffer and the
// backend's Content-Length (when known) passes through, so a cached
// byte-for-byte backend response relays without any allocation or
// chunked re-framing on this hop. With flush set (the /wal route) every
// chunk flushes as it arrives, so a push stream's commit-wakeup frames
// and heartbeats pass through the router instead of sitting in its
// response buffer until it fills.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, shard, backend string, flush bool) {
	defer resp.Body.Close()
	copyHeader(w.Header(), resp.Header)
	w.Header().Set(HeaderShard, shard)
	w.Header().Set(HeaderBackend, backend)
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	var dst io.Writer = w
	if flush {
		if fl := telemetry.FlusherFor(w); fl != nil {
			fl.Flush() // headers out now: the follower reads them before the first frame
			dst = flushWriter{w: w, fl: fl}
		}
	}
	buf := copyBufPool.Get().(*[]byte)
	_, _ = io.CopyBuffer(dst, resp.Body, *buf)
	copyBufPool.Put(buf)
}

// flushWriter flushes after every write — the pass-through a long-lived
// stream needs from a proxy hop.
type flushWriter struct {
	w  io.Writer
	fl http.Flusher
}

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if n > 0 {
		f.fl.Flush()
	}
	return n, err
}

// copyHeader copies all headers except hop-by-hop ones.
func copyHeader(dst, src http.Header) {
	for k, vv := range src {
		switch k {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade":
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// drain discards a response that will not be relayed, keeping the
// backend connection reusable.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// --- aggregation & health ---

// routedCity is one row of the router's GET /cities: the backend's
// summary for every city its owning shard knows, annotated with the
// shard the ring routes it to.
type routedCity struct {
	Key        string `json:"key"`
	Shard      string `json:"shard"`
	Loaded     bool   `json:"loaded"`
	WALBytes   int64  `json:"walBytes,omitempty"`
	AppliedSeq int64  `json:"appliedSeq,omitempty"`
}

// handleCities aggregates GET /cities across shards: each shard's
// primary lists its cities, and the router keeps the rows the ring
// actually routes to that shard — one merged, deduplicated view of the
// fleet's key space. Shards are queried concurrently so a dark shard
// costs one timeout, not one per corpse; its rows go missing and
// /healthz names it.
func (rt *Router) handleCities(w http.ResponseWriter, r *http.Request) {
	// Bound each shard fetch like the health polls are bounded: a
	// black-holed primary costs one short timeout, and a disconnected
	// client cancels the work.
	ctx, cancel := context.WithTimeout(r.Context(), healthPollTimeout)
	defer cancel()
	tab := rt.table.Load()
	names := tab.ring.Shards()
	perShard := make([][]routedCity, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			primary := rt.primaryOf(tab.shards[name])
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, primary+"/cities", nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				drain(resp)
				return
			}
			var rows []nodeCityRow
			if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
				return
			}
			for _, row := range rows {
				if tab.ring.Shard(row.Key) != name {
					continue
				}
				perShard[i] = append(perShard[i], routedCity{
					Key: row.Key, Shard: name, Loaded: row.Loaded,
					WALBytes: row.WALBytes, AppliedSeq: row.AppliedSeq,
				})
			}
		}(i, name)
	}
	wg.Wait()
	var out []routedCity
	for _, rows := range perShard {
		out = append(out, rows...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	writeJSON(w, http.StatusOK, out)
}

// shardHealth is one shard's row in the router's /healthz: the node
// views plus the shard's fencing epoch — the term the router relays to
// fence stale primaries, and who it believes owns it.
type shardHealth struct {
	Epoch        int64      `json:"epoch,omitempty"`
	EpochPrimary string     `json:"epochPrimary,omitempty"`
	Nodes        []NodeView `json:"nodes"`
}

// healthReport is the router's /healthz: liveness and the topology as
// the health feed sees it. Routing and edge-cache counters live on
// /metrics only (gt_router_*).
type healthReport struct {
	Status       string                 `json:"status"`
	VirtualNodes int                    `json:"virtualNodes"`
	Shards       map[string]shardHealth `json:"shards"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	tab := rt.table.Load()
	rep := healthReport{
		Status:       "ok",
		VirtualNodes: tab.ring.VirtualNodes(),
		Shards:       make(map[string]shardHealth, len(tab.shards)),
	}
	for name, sh := range tab.shards {
		views := make([]NodeView, 0, len(sh.Nodes))
		for _, n := range sh.Nodes {
			views = append(views, rt.health.view(n))
		}
		term, owner := rt.shardEpoch(sh)
		rep.Shards[name] = shardHealth{Epoch: term, EpochPrimary: owner, Nodes: views}
	}
	writeJSON(w, http.StatusOK, rep)
}
