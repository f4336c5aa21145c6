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
// City-scoped routes live under /cities/{city}/...; the legacy single-city
// /api/... routes are kept as aliases for the configured default city, so
// existing clients keep working unchanged:
//
//	GET  /healthz                 (alias /api/healthz)  liveness + engine/registry metrics
//	GET  /cities                                        known cities + residency
//	GET  /cities/{city}           (alias /api/city)     schema, POI counts, bounds
//	GET  /cities/{city}/pois      (alias /api/pois)
//	POST /cities/{city}/groups    (alias /api/groups)
//	GET  /cities/{city}/groups/{id}
//	POST /cities/{city}/packages
//	GET  /cities/{city}/packages/{id}
//	POST /cities/{city}/packages/{id}/ops
//	POST /cities/{city}/packages/{id}/refine
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
// With a snapshot directory configured, every mutation (group creation,
// package creation, customization op, refinement) appends one typed
// record to the city's write-ahead log — O(1) per mutation regardless of
// city size. The full-state snapshot is only rewritten at *compaction*:
// when the log crosses the configured record-count or byte thresholds.
// On a city's first touch after a restart the snapshot is read back and
// the log suffix replayed on top, with
// package POIs re-resolved against the city dataset. Torn log tails are
// truncated at the last valid record, corrupt snapshots quarantine the
// snapshot+log pair; both surface on /healthz, and neither ever bricks a
// city. Persistence failures never fail the request that triggered them.
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

// Compaction defaults: how much write-ahead log a city accumulates before
// its snapshot is rewritten. 1k records keeps replay-on-load well under a
// snapshot write's own cost; 4 MiB bounds replay time for op-heavy logs
// with large packages.
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
	// SnapshotDir enables persistence of groups/packages per city; empty
	// disables it.
	SnapshotDir string
	// DefaultCity is the key the legacy /api routes serve; defaults to
	// the alphabetically first key.
	DefaultCity string
	// EngineCacheCap overrides each engine's cluster-cache bound
	// (core.DefaultCacheCap when 0, unbounded when < 0).
	EngineCacheCap int
	// WALSync selects when write-ahead-log appends reach stable storage.
	// The zero value is store.WALSyncAlways.
	WALSync store.WALSyncPolicy
	// CompactEvery rewrites a city's snapshot (and truncates its log)
	// once the log holds this many records. 0 means DefaultCompactEvery;
	// < 0 disables the record-count trigger.
	CompactEvery int
	// CompactBytes is the byte-size trigger for compaction. 0 means
	// DefaultCompactBytes; < 0 disables it.
	CompactBytes int64
	// PreloadCities are keys to load at boot through the registry's
	// singleflight path, so the first request pays no cold start. Unknown
	// keys or failing loads fail construction.
	PreloadCities []string
	// Follow runs this server as a read-only follower replicating every
	// city from the primary at this base URL (log shipping; see
	// internal/replicate). Mutating routes answer 403 until Promote.
	Follow string
	// Advertise is the base URL peers and front tiers reach this node at
	// (-advertise); it self-describes with it on /healthz so a router can
	// match topology entries against X-GT-Primary hints.
	Advertise string
	// Topology overrides the node-metadata source. Nil builds a
	// StaticTopology from Advertise and Follow — the normal boot path.
	// When set, Follow and Advertise are ignored.
	Topology Topology
	// FollowerID names this node on its primary's replication-slot table
	// (the ?fid= stream handshake): per-follower positions on the
	// primary's /healthz and /metrics, and compaction holds while this
	// follower lags. Defaults to Advertise; with both empty the node
	// streams anonymously (replication still works, it just isn't
	// slot-tracked).
	FollowerID string
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
	defaultCity  string
	snapshotDir  string
	walSync      store.WALSyncPolicy
	compactEvery int64
	compactBytes int64

	// Replication role (see follower.go): topo carries the node metadata —
	// Upstream is empty on a primary; follower tails the upstream's logs;
	// promoted latches once Promote flips the process read-write
	// (promoteOnce runs the flip exactly once; promoted is the fast flag
	// handlers read).
	topo        Topology
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

// New builds a single-city server with no persistence — the original
// constructor, kept for embedders and tests; the city becomes the default
// (and only) city.
func New(city *dataset.City) (*Server, error) {
	if city == nil {
		return nil, fmt.Errorf("server: nil city")
	}
	return NewMultiCity(Options{Cities: []*dataset.City{city}})
}

// cityKey derives the registry key for a preloaded city.
func cityKey(name string) string { return strings.ToLower(name) }

// scanDataDir lists the city keys a data directory can serve. Snapshot
// files (*.state.json) are not datasets and are skipped, so DataDir and
// SnapshotDir may point at the same directory.
func scanDataDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".state.json") {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, ".json"))
	}
	// An empty directory is fine as long as preloaded Cities exist; the
	// caller enforces that at least one city is configured overall.
	return keys, nil
}

// NewMultiCity builds a server over a data directory and/or preloaded
// cities.
func NewMultiCity(opts Options) (*Server, error) {
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

	topo := opts.Topology
	if topo == nil {
		topo = StaticTopology{AdvertiseURL: opts.Advertise, PrimaryURL: opts.Follow}
	}
	s := &Server{
		snapshotDir:  opts.SnapshotDir,
		walSync:      opts.WALSync,
		compactEvery: int64(opts.CompactEvery),
		compactBytes: opts.CompactBytes,
		// Set before the registry exists: city loads consult the role to
		// decide whether to build the replication mirror, and pull their
		// per-city counters off the metrics registry.
		topo:      topo,
		metrics:   newServerMetrics(),
		accessLog: opts.AccessLog,
	}
	s.epochOwner.Store("")
	s.slots = newSlotTable(s.metrics.reg)
	if s.compactEvery == 0 {
		s.compactEvery = DefaultCompactEvery
	}
	if s.compactBytes == 0 {
		s.compactBytes = DefaultCompactBytes
	}
	s.defaultCity = opts.DefaultCity
	if s.defaultCity == "" {
		s.defaultCity = keys[0]
	}
	found := false
	for _, k := range keys {
		if k == s.defaultCity {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("server: default city %q not among %v", s.defaultCity, keys)
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
		NewState:       func(c *registry.City[*cityState]) (*cityState, error) { return s.newCityState(c) },
		EngineCacheCap: opts.EngineCacheCap,
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
		return nil, err
	}
	if upstream := s.topo.Upstream(); upstream != "" && !s.promoted.Load() {
		s.follower = replicate.NewFollower(upstream, keys, followerTarget{s}, max(opts.FollowPoll, 0))
		fid := opts.FollowerID
		if fid == "" {
			fid = s.topo.Advertise()
		}
		s.follower.SetID(fid)
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

// DefaultCity returns the key the legacy /api routes serve.
func (s *Server) DefaultCity() string { return s.defaultCity }

// Handler returns the HTTP handler with all routes registered: the
// city-scoped /cities tree plus the legacy /api aliases for the default
// city. The whole mux is wrapped in the telemetry middleware — per-class
// latency histograms, in-flight gauges, status counters, request-id echo
// (the shard echoes the id the router minted; it never mints its own, so
// the hot path stays allocation-free), and the opt-in access log.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /api/healthz", s.handleHealth)
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
	for _, prefix := range []string{"/api", "/cities/{city}"} {
		mux.HandleFunc("GET "+prefix+"/pois", city((*cityState).handlePOIs))
		mux.HandleFunc("POST "+prefix+"/groups", mutate((*cityState).handleCreateGroup))
		mux.HandleFunc("GET "+prefix+"/groups/{id}", city((*cityState).handleGetGroup))
		mux.HandleFunc("POST "+prefix+"/packages", mutate((*cityState).handleCreatePackage))
		mux.HandleFunc("GET "+prefix+"/packages/{id}", city((*cityState).handleGetPackage))
		mux.HandleFunc("POST "+prefix+"/packages/{id}/ops", mutate((*cityState).handleOps))
		mux.HandleFunc("POST "+prefix+"/packages/{id}/refine", mutate((*cityState).handleRefine))
		// The replication stream: followers tail it, and a follower serves
		// it too (from its own log), so replicas can cascade. Not routed
		// through withCity — it needs no applied-seq stamp and answers 501
		// without loading the city when persistence is off (stream.go).
		mux.HandleFunc("GET "+prefix+"/wal", s.handleWAL)
	}
	mux.HandleFunc("GET /api/city", city((*cityState).handleCity))
	mux.HandleFunc("GET /cities/{city}", city((*cityState).handleCity))
	mux.HandleFunc("POST /promote", s.handlePromote)
	mw := &telemetry.Middleware{Metrics: s.metrics.http, Log: s.accessLog}
	// The epoch sniffer wraps everything: any request can carry proof of
	// a newer term, and every response advertises this node's own.
	return s.noteEpochHeader(mw.Wrap(mux))
}

// withCity resolves the request's city — the {city} path value, or the
// default city on the legacy routes — and gets it from the registry,
// loading it on first touch.
func (s *Server) withCity(h func(cs *cityState, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("city")
		if key == "" {
			key = s.defaultCity
		}
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
			// validation is safe in. appliedSeq reports the durable head,
			// never the pinPrimarySeq sentinel, so a failed append can
			// never inflate the stamp.
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
	// Replication is the follower's position against the primary for this
	// city: replicaLag in records and bytes, handoff/retry counters, and
	// the primary's bytes-since-compaction gauge. Followers only.
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
	Status string `json:"status"`
	// City preserves the legacy single-city health field: the default
	// city's dataset name when it is resident, its key otherwise (reading
	// health must not force a dataset load).
	City        string                `json:"city"`
	DefaultCity string                `json:"defaultCity"`
	Role        string                `json:"role"`                // primary | follower | promoted | fenced
	Primary     string                `json:"primary,omitempty"`   // the primary's URL on (ex-)followers
	Advertise   string                `json:"advertise,omitempty"` // the URL this node self-describes as
	Registry    registry.Stats        `json:"registry"`
	Cities      map[string]cityHealth `json:"cities"` // loaded cities only
	Persistence bool                  `json:"persistence"`
	WALSync     string                `json:"walSync,omitempty"` // fsync policy when persistence is on
	// Epoch is the node's replication term and EpochPrimary the term
	// owner's URL (absent before any promotion); ReplicationSlots are the
	// per-follower stream positions this node tracks as a primary.
	Epoch            int64        `json:"epoch,omitempty"`
	EpochPrimary     string       `json:"epochPrimary,omitempty"`
	ReplicationSlots []slotHealth `json:"replicationSlots,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := healthResponse{
		Status:      "ok",
		City:        s.defaultCity,
		DefaultCity: s.defaultCity,
		Role:        s.Role(),
		Primary:     s.topo.Upstream(),
		Advertise:   s.topo.Advertise(),
		Registry:    s.reg.Stats(),
		Cities:      map[string]cityHealth{},
		Persistence: s.snapshotDir != "",
	}
	if resp.Persistence {
		resp.WALSync = s.walSync.String()
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
		if c.Key == s.defaultCity {
			resp.City = c.City.Name
		}
	})
	writeJSON(w, http.StatusOK, resp)
}

// citySummary is one row of GET /cities. WALBytes is the city's
// bytes-since-compaction — the write-ahead-log backpressure gauge a front
// tier can route on (a large value means an expensive replay-on-reload
// and a mutation-hot city); 0 for unloaded cities or without persistence.
// AppliedSeq is the city's last committed (primary) or applied (follower)
// WAL sequence — the freshness gauge a front tier compares session tokens
// against, in the same cheap call; 0 means unknown (no persistence, or a
// city not loaded yet).
type citySummary struct {
	Key        string `json:"key"`
	Loaded     bool   `json:"loaded"`
	Default    bool   `json:"default"`
	WALBytes   int64  `json:"walBytes,omitempty"`
	AppliedSeq int64  `json:"appliedSeq,omitempty"`
}

func (s *Server) handleCities(w http.ResponseWriter, _ *http.Request) {
	var out []citySummary
	for _, key := range s.reg.Keys() {
		row := citySummary{Key: key, Default: key == s.defaultCity}
		if c, ok := s.reg.Resident(key); ok {
			row.Loaded = true
			if c.State.wal != nil {
				row.WALBytes = c.State.wal.Stats().Bytes
			}
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
