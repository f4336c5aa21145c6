// Package server exposes GroupTravel over HTTP — the backend a Figure 3
// style map GUI would talk to. It serves many cities from one process: a
// city-keyed registry (internal/registry) lazily loads each city's dataset
// on first touch and builds one shared concurrency-safe core.Engine per
// city, which then stays resident for the life of the process, while
// per-city groups and packages snapshot through internal/store so a
// restart reconstructs the full serving state.
//
// # Routes
//
// Every route has one address; a city's resources live under
// /cities/{city}:
//
//	GET  /healthz                  liveness + engine/registry metrics
//	GET  /metrics                  Prometheus text exposition
//	GET  /cities                   known cities + residency
//	GET  /cities/{city}            schema, POI counts, bounds
//	GET  /cities/{city}/pois
//	POST /cities/{city}/groups
//	GET  /cities/{city}/groups/{id}
//	POST /cities/{city}/packages
//	GET  /cities/{city}/packages/{id}
//	POST /cities/{city}/packages/{id}/ops
//	POST /cities/{city}/packages/{id}/refine
//	GET  /cities/{city}/wal        replication stream
//	POST /promote                  follower failover
//
// # Concurrency
//
// Locking is sharded by entity rather than globalized: the registry
// serializes only city lookup and first load, each city's state has an
// RWMutex for its group/package registries and id allocation, each group
// carries its own lock for the memoized consensus profiles, and each package
// carries its own lock for its customization session. Package builds run
// on the city's shared core.Engine outside every lock — the engine is
// itself concurrency-safe with a bounded, singleflight cluster cache — so
// builds for different groups and different cities proceed fully in
// parallel; only operations on the same package serialize. Lock ordering:
// registry < city registries < entity locks, never taken upward, so the
// hierarchy is acyclic and deadlock-free. A loaded city is never
// unloaded, so a request can hold its city without pinning it.
//
// # Persistence
//
// Every city runs on its write-ahead log under Options.SnapshotDir, which
// is required: commit tokens, the X-GT-Applied-Seq stamp, /wal
// replication and the epoch fence all read it. Every mutation (group
// creation, package creation, customization op, refinement) appends one
// typed record to the log — O(1) per mutation regardless of city size —
// and the append is fsynced, group-committed, before the mutation is
// acknowledged. The full-state snapshot is only rewritten at
// *compaction*: when the log crosses the record-count threshold
// (Options.CompactEvery) or DefaultCompactBytes. On a city's first touch
// after a restart the snapshot is read back and the log suffix replayed
// on top, with package POIs re-resolved against the city dataset. Torn
// log tails are truncated at the last valid record, corrupt snapshots
// quarantine the snapshot+log pair; both surface on /healthz, and neither
// ever bricks a city. A mutation is planned without touching live state,
// appended, and installed only once the append is durable, through the
// function replay and replication run; a failed append installs nothing
// and answers 503.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grouptravel/internal/core"
	"grouptravel/internal/dataset"
	"grouptravel/internal/registry"
	"grouptravel/internal/replicate"
	"grouptravel/internal/store"
	"grouptravel/internal/telemetry"
)

// Compaction triggers: how much write-ahead log a city accumulates before
// its snapshot is rewritten. 1k records (the default of
// Options.CompactEvery) keeps replay-on-load well under a snapshot write's
// own cost; 4 MiB bounds replay time for op-heavy logs with large
// packages.
const (
	DefaultCompactEvery = 1024
	DefaultCompactBytes = 4 << 20
)

// Options configures a multi-city server. At least one city must be
// reachable through DataDir or Cities.
type Options struct {
	// DataDir holds city datasets as <key>.json files (dataset.SaveJSON
	// format). Keys are the file base names.
	DataDir string
	// Cities are preloaded datasets served in addition to DataDir, keyed
	// by their lowercased name. They never hit the disk loader.
	Cities []*dataset.City
	// SnapshotDir holds every city's write-ahead log, snapshot and
	// replication epoch. Required: commit tokens, the applied-sequence
	// stamp, /wal replication and the epoch fence all run on the log.
	SnapshotDir string
	// WALSync is ignored: every write-ahead-log append is fsynced before
	// its mutation is acknowledged.
	//
	// Deprecated: the durability rule is not configurable.
	WALSync store.WALSyncPolicy
	// CompactEvery rewrites a city's snapshot (and trims its log)
	// once the log holds this many records. 0 means DefaultCompactEvery;
	// < 0 disables the record-count trigger (DefaultCompactBytes still
	// applies).
	CompactEvery int
	// PreloadCities are keys to load at boot through the registry's
	// singleflight path, so the first request pays no cold start. Unknown
	// keys or failing loads fail construction.
	PreloadCities []string
	// Follow runs this server as a read-only follower replicating every
	// city from the primary at this base URL (log shipping; see
	// internal/replicate). Mutating routes answer 403 until Promote. A
	// follower keeps its replicated position in its own write-ahead log.
	Follow string
	// Advertise is the base URL peers and front tiers reach this node at
	// (-advertise); it self-describes with it on /healthz so a router can
	// match topology entries against X-GT-Primary hints. A follower also
	// names itself with it on its primary's replication-slot table (the
	// ?fid= stream handshake): per-follower positions on the primary's
	// /healthz and /metrics, and compaction holds while this follower
	// lags. Empty, the follower streams anonymously (replication still
	// works, it just isn't slot-tracked).
	Advertise string
	// FollowPoll paces the replication tailers' reconnects: each tailer
	// holds a push stream open per city — the primary flushes frames as
	// commits land, so steady-state lag is bounded by the network, not an
	// interval — and backs off from this base after failures. 0 selects
	// replicate.DefaultPollInterval; < 0 starts no background tailers —
	// the embedder drives Follower().Sync/CatchUp itself (tests).
	FollowPoll time.Duration
	// AccessLog emits one structured line per request (request id,
	// endpoint class, city, status, duration) when non-nil. Nil keeps the
	// request path silent — the benchmark/embedder default.
	AccessLog *slog.Logger
}

// Server routes requests to per-city engines and serving state.
type Server struct {
	reg          *registry.Registry[*cityState]
	snapshotDir  string
	compactEvery int64

	// Replication role (see follower.go): advertise is the base URL peers
	// and front tiers reach this node at ("" when unknown); upstream is
	// the primary this node replicates from, "" on a primary. Both are
	// fixed for the life of the process: city loads decide from upstream
	// whether to build replication state, and role *transitions* go
	// through Promote — or through the replication epoch (epoch.go),
	// which can fence a writable node read-only when a peer proves a
	// newer term — never through a changing upstream. follower tails the
	// upstream's logs; promoted latches once Promote flips the process
	// read-write (promoteOnce runs the flip exactly once; promoted is the
	// fast flag handlers read).
	advertise   string
	upstream    string
	follower    *replicate.Follower
	promoteOnce sync.Once
	promoted    atomic.Bool

	// Replication epoch (epoch.go): the monotonic term that fences
	// deposed primaries. epochMu serializes adopt/bump + persist;
	// epochVal/epochOwner are the fast reads every request stamps;
	// fenced latches a writable node read-only once it observes a term
	// owned by someone else.
	epochMu    sync.Mutex
	epochVal   atomic.Int64
	epochOwner atomic.Value // string
	fenced     atomic.Bool

	// slots is the fan-out ledger (slots.go): per-follower stream
	// positions keyed by the ?fid= handshake, consulted by compaction.
	slots *slotTable

	// metrics backs GET /metrics and every counter /healthz reports (one
	// value set, two surfaces — see telemetry.go); accessLog, when set,
	// gives the HTTP middleware its structured request log.
	metrics   *serverMetrics
	accessLog *slog.Logger
}

// cityKey derives the registry key for a preloaded city.
func cityKey(name string) string { return strings.ToLower(name) }

// scanDataDir lists the city keys a data directory can serve. Files the
// store writes (snapshots, epochs, logs) are not datasets and are
// skipped, so DataDir and SnapshotDir may point at the same directory.
func scanDataDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || store.IsStateFile(name) {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, ".json"))
	}
	// An empty directory is fine as long as preloaded Cities exist; the
	// caller enforces that at least one city is configured overall.
	return keys, nil
}

// NewMultiCity builds a server over a data directory and/or preloaded
// cities, logging every city under opts.SnapshotDir.
func NewMultiCity(opts Options) (*Server, error) {
	if opts.SnapshotDir == "" {
		return nil, fmt.Errorf("server: no SnapshotDir (-snapshot-dir): every city runs on its write-ahead log")
	}
	preloaded := make(map[string]*dataset.City, len(opts.Cities))
	var keys []string
	for _, c := range opts.Cities {
		if c == nil {
			return nil, fmt.Errorf("server: nil city")
		}
		key := cityKey(c.Name)
		if _, dup := preloaded[key]; dup {
			return nil, fmt.Errorf("server: duplicate city %q", key)
		}
		preloaded[key] = c
		keys = append(keys, key)
	}
	if opts.DataDir != "" {
		scanned, err := scanDataDir(opts.DataDir)
		if err != nil {
			return nil, err
		}
		for _, k := range scanned {
			if _, dup := preloaded[k]; !dup {
				keys = append(keys, k)
			}
		}
	}
	if len(keys) == 0 {
		if opts.DataDir != "" {
			return nil, fmt.Errorf("server: no city datasets (*.json) in %s and no preloaded cities", opts.DataDir)
		}
		return nil, fmt.Errorf("server: no cities configured")
	}
	sort.Strings(keys)

	s := &Server{
		snapshotDir:  opts.SnapshotDir,
		compactEvery: int64(opts.CompactEvery),
		// Set before the registry exists: city loads consult the role to
		// decide whether they replicate, and pull their per-city counters
		// off the metrics registry.
		advertise: strings.TrimRight(opts.Advertise, "/"),
		upstream:  strings.TrimRight(opts.Follow, "/"),
		metrics:   newServerMetrics(),
		accessLog: opts.AccessLog,
	}
	s.epochOwner.Store("")
	s.slots = newSlotTable(s.metrics.reg)
	if s.compactEvery == 0 {
		s.compactEvery = DefaultCompactEvery
	}

	reg, err := registry.New(keys, registry.Options[*cityState]{
		Load: func(key string) (*dataset.City, error) {
			if c, ok := preloaded[key]; ok {
				return c, nil
			}
			f, err := os.Open(filepath.Join(opts.DataDir, key+".json"))
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return dataset.LoadJSON(f)
		},
		NewState: func(c *registry.City[*cityState]) (*cityState, error) { return s.newCityState(c) },
	})
	if err != nil {
		return nil, err
	}
	s.reg = reg
	// Recover the replication term before anything touches role state:
	// a node that was promoted (or fenced) before a restart must come
	// back that way, and city loads consult the role.
	if err := s.loadEpochs(keys); err != nil {
		return nil, err
	}
	if err := s.Preload(opts.PreloadCities...); err != nil {
		// The cities that did load hold open logs, and no caller gets a
		// Server to Close.
		s.Close()
		return nil, err
	}
	if s.upstream != "" && !s.promoted.Load() {
		s.follower = replicate.NewFollower(s.upstream, keys, followerTarget{s}, max(opts.FollowPoll, 0))
		s.follower.SetID(s.advertise)
		s.follower.SetEpochInfo(s.Epoch)
		s.follower.SetOnEpoch(s.observeEpoch)
		if opts.FollowPoll >= 0 {
			s.follower.Start()
		}
	}
	// After the registry and follower exist: the scrape-time rows close
	// over both.
	s.registerScrapeFuncs(keys)
	return s, nil
}

// Preload warms cities through the registry's singleflight load path, in
// parallel, so their first request pays no dataset/engine/replay cold
// start. It returns the first load failure.
func (s *Server) Preload(keys ...string) error {
	if len(keys) == 0 {
		return nil
	}
	for _, key := range keys {
		if !s.reg.Has(key) {
			return fmt.Errorf("server: preload city %q not among %v", key, s.reg.Keys())
		}
	}
	errs := make(chan error, len(keys))
	for _, key := range keys {
		go func(key string) {
			if _, err := s.reg.Get(key); err != nil {
				errs <- fmt.Errorf("server: preload %q: %w", key, err)
				return
			}
			errs <- nil
		}(key)
	}
	var first error
	for range keys {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Registry exposes the underlying city registry (benchmarks and embedders).
func (s *Server) Registry() *registry.Registry[*cityState] { return s.reg }

// Handler returns the HTTP handler with all routes registered. The whole
// mux is wrapped in the telemetry middleware — per-class latency
// histograms, in-flight gauges, status counters, request-id echo (the
// shard echoes the id the router minted; it never mints its own, so the
// hot path stays allocation-free), and the opt-in access log.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	mux.HandleFunc("GET /cities", s.handleCities)

	city := func(h func(cs *cityState, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
		return s.withCity(h)
	}
	// Mutations go through the role gate: an unpromoted follower answers
	// 403 with a pointer at the primary instead of diverging from it.
	mutate := func(h func(cs *cityState, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
		return s.writable(s.withCity(h))
	}
	mux.HandleFunc("GET /cities/{city}", city((*cityState).handleCity))
	mux.HandleFunc("GET /cities/{city}/pois", city((*cityState).handlePOIs))
	mux.HandleFunc("POST /cities/{city}/groups", mutate((*cityState).handleCreateGroup))
	mux.HandleFunc("GET /cities/{city}/groups/{id}", city((*cityState).handleGetGroup))
	mux.HandleFunc("POST /cities/{city}/packages", mutate((*cityState).handleCreatePackage))
	mux.HandleFunc("GET /cities/{city}/packages/{id}", city((*cityState).handleGetPackage))
	mux.HandleFunc("POST /cities/{city}/packages/{id}/ops", mutate((*cityState).handleOps))
	mux.HandleFunc("POST /cities/{city}/packages/{id}/refine", mutate((*cityState).handleRefine))
	// The replication stream: followers tail it, and a follower serves it
	// too (from its own log), so replicas can cascade. Not routed through
	// withCity — it needs no applied-seq stamp and validates its query
	// before loading the city (stream.go).
	mux.HandleFunc("GET /cities/{city}/wal", s.handleWAL)
	mux.HandleFunc("POST /promote", s.handlePromote)
	mw := &telemetry.Middleware{Metrics: s.metrics.http, Log: s.accessLog}
	// The epoch sniffer wraps everything: any request can carry proof of
	// a newer term, and every response advertises this node's own.
	return s.noteEpochHeader(mw.Wrap(mux))
}

// withCity resolves the request's {city} path value and gets it from the
// registry, loading it on first touch.
func (s *Server) withCity(h func(cs *cityState, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("city")
		c, err := s.reg.Get(key)
		if err != nil {
			if !s.reg.Has(key) {
				writeErr(w, http.StatusNotFound, "unknown city %q", key)
				return
			}
			writeErr(w, http.StatusServiceUnavailable, "city %q unavailable: %v", key, err)
			return
		}
		if r.Method == http.MethodGet {
			// Stamp the applied sequence before the handler writes its
			// status line. Reading it here — before the handler renders —
			// makes the stamp a *lower* bound: a mutation landing between
			// stamp and render can only make the body fresher than the
			// header claims, never staler, which is the direction freshness
			// validation is safe in. A write installs only after its
			// append, under its entity's lock (see appliedSeq), so the
			// render waits out every write the stamp counts.
			if seq := c.State.appliedSeq(); seq > 0 {
				w.Header().Set(HeaderAppliedSeq, strconv.FormatInt(seq, 10))
			}
		}
		h(c.State, w, r)
	}
}

// --- helpers ---

// jsonBufPool recycles the scratch buffers every JSON response renders
// into, so a response does not allocate an encoder buffer per request.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf drops oversized scratch buffers instead of pooling them,
// so one large response does not pin its buffer forever.
const maxPooledBuf = 1 << 20

// writeJSON renders v through a pooled buffer (no per-request encoder
// allocation) and writes it with Content-Length set. The bytes are
// json.Encoder output, trailing newline included.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_ = json.NewEncoder(buf).Encode(v)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBuf {
		jsonBufPool.Put(buf)
	}
}

type apiError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// --- health & cities ---

// cityHealth is the per-loaded-city slice of the health report.
type cityHealth struct {
	Cache        core.CacheStats `json:"clusterCache"`
	Groups       int             `json:"groups"`
	Packages     int             `json:"packages"`
	LastSnapshot string          `json:"lastSnapshot,omitempty"` // RFC3339; empty when never compacted
	PersistErr   string          `json:"persistenceError,omitempty"`
	WAL          *walHealth      `json:"wal,omitempty"`
	// Replication is the follower's replication state for this city: its
	// applied sequence and handoff/retry counters. Followers only.
	Replication *replicate.Lag `json:"replication,omitempty"`
}

// walHealth is the write-ahead-log slice of a city's health: the log's
// current length (the replay debt a restart would pay), fsync behavior,
// and what the last recovery found.
type walHealth struct {
	Records         int64   `json:"records"`
	Bytes           int64   `json:"bytes"` // bytes appended since the last compaction
	Fsyncs          int64   `json:"fsyncs"`
	Compactions     int64   `json:"compactions"`
	Replayed        int     `json:"replayedRecords"` // records replayed at load
	ReplayMillis    float64 `json:"replayMillis"`
	ReplayTruncated string  `json:"replayTruncated,omitempty"` // non-empty when a torn tail was cut
}

type healthResponse struct {
	Status    string                `json:"status"`
	Role      string                `json:"role"`                // primary | follower | promoted | fenced
	Primary   string                `json:"primary,omitempty"`   // the primary's URL on (ex-)followers
	Advertise string                `json:"advertise,omitempty"` // the URL this node self-describes as
	Registry  registry.Stats        `json:"registry"`
	Cities    map[string]cityHealth `json:"cities"` // loaded cities only
	// Epoch is the node's replication term and EpochPrimary the term
	// owner's URL (absent before any promotion); ReplicationSlots are the
	// per-follower stream positions this node tracks as a primary.
	Epoch            int64        `json:"epoch,omitempty"`
	EpochPrimary     string       `json:"epochPrimary,omitempty"`
	ReplicationSlots []slotHealth `json:"replicationSlots,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := healthResponse{
		Status:    "ok",
		Role:      s.Role(),
		Primary:   s.upstream,
		Advertise: s.advertise,
		Registry:  s.reg.Stats(),
		Cities:    map[string]cityHealth{},
	}
	resp.Epoch, resp.EpochPrimary = s.Epoch()
	resp.ReplicationSlots = s.slots.snapshot()
	s.reg.Range(func(c *registry.City[*cityState]) {
		h := c.State.health()
		if s.follower != nil {
			if lag, ok := s.follower.Lag(c.Key); ok {
				h.Replication = &lag
			}
		}
		resp.Cities[c.Key] = h
	})
	writeJSON(w, http.StatusOK, resp)
}

// citySummary is one row of GET /cities. WALBytes is the city's
// bytes-since-compaction — the write-ahead-log backpressure gauge a front
// tier can route on (a large value means an expensive replay-on-reload
// and a mutation-hot city); 0 for unloaded cities. AppliedSeq is the
// city's last committed (primary) or applied (follower) WAL sequence —
// the freshness gauge a front tier compares session tokens against, in
// the same cheap call; 0 for a city not loaded yet or with an empty
// sequence space.
type citySummary struct {
	Key        string `json:"key"`
	Loaded     bool   `json:"loaded"`
	WALBytes   int64  `json:"walBytes,omitempty"`
	AppliedSeq int64  `json:"appliedSeq,omitempty"`
}

func (s *Server) handleCities(w http.ResponseWriter, _ *http.Request) {
	var out []citySummary
	for _, key := range s.reg.Keys() {
		row := citySummary{Key: key}
		if c, ok := s.reg.Resident(key); ok {
			row.Loaded = true
			row.WALBytes = c.State.wal.Stats().Bytes
			row.AppliedSeq = c.State.appliedSeq()
		}
		out = append(out, row)
	}
	writeJSON(w, http.StatusOK, out)
}

// lastSnapshotString formats a snapshot instant for health reports.
func lastSnapshotString(nanos int64) string {
	if nanos == 0 {
		return ""
	}
	return time.Unix(0, nanos).UTC().Format(time.RFC3339Nano)
}
