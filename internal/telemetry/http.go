package telemetry

// HTTP instrumentation: one middleware both daemons wrap their mux in.
// It classifies each request into an endpoint class, tracks an in-flight
// gauge, a per-class latency histogram and per-class status-code
// counters, propagates the X-GT-Request-Id correlation header, and —
// when a logger is configured — emits one structured request log line
// carrying everything needed to follow a slow request across the fleet.
//
// The hot path stays allocation-free: classes and their metrics are
// resolved at construction, the response-writer wrapper is pooled, and
// the request id is only minted where Mint is set (the router; shards
// echo the relayed id). With no logger configured the middleware costs
// two time reads, a handful of atomic ops and one pooled Get/Put.

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// HeaderRequestID is the fleet-wide request correlation header: minted
// by the front tier (or supplied by the caller), relayed on every proxy
// and retry hop, echoed by the shards, logged by everyone.
const HeaderRequestID = "X-GT-Request-Id"

// ridHeaderKey is HeaderRequestID in net/http canonical form, so the
// hot-path header lookup is a plain map index with no canonicalization.
const ridHeaderKey = "X-Gt-Request-Id"

// Endpoint classes — the taxonomy every per-class metric and log line
// uses. One vocabulary across router and shards, so fleet dashboards
// aggregate without a mapping table.
const (
	ClassBuild  = "build"  // POST .../packages — package construction
	ClassRefine = "refine" // POST .../refine — preference refinement
	ClassCollab = "collab" // POST .../groups, .../ops — group collaboration
	ClassRead   = "read"   // GETs: cities, POIs, groups, packages
	ClassWAL    = "wal"    // GET .../wal — replication stream
	ClassHealth = "health" // healthz, metrics, promote — control plane
)

// Classes lists the taxonomy in exposition order, indexed by the class
// indices classIdx returns (the hot path works in indices; strings are
// for labels and logs).
var Classes = []string{ClassBuild, ClassRefine, ClassCollab, ClassRead, ClassWAL, ClassHealth}

const (
	idxBuild = iota
	idxRefine
	idxCollab
	idxRead
	idxWAL
	idxHealth
	numClasses
)

// classIdx maps one request onto its endpoint class index. Suffix checks
// only, so a request lands in the same class whichever city it names,
// on the router and on a shard alike. The last path byte pre-filters
// which suffixes can match at all, so the hot read paths (…/pois,
// …/cities/{city}, …/packages/{id}) run at most one real suffix compare.
func classIdx(method, path string) int {
	var last byte
	if len(path) > 0 {
		last = path[len(path)-1]
	}
	switch last {
	case 'z':
		if strings.HasSuffix(path, "/healthz") {
			return idxHealth
		}
	case 'e':
		if strings.HasSuffix(path, "/promote") {
			return idxHealth
		}
		if method == http.MethodPost && strings.HasSuffix(path, "/refine") {
			return idxRefine
		}
	case 'l':
		if strings.HasSuffix(path, "/wal") {
			return idxWAL
		}
	case 's':
		if strings.HasSuffix(path, "/metrics") {
			return idxHealth
		}
		if method == http.MethodPost && strings.HasSuffix(path, "/packages") {
			return idxBuild
		}
	}
	if method != http.MethodPost {
		return idxRead
	}
	// POST groups, ops — and any future mutation until classified.
	return idxCollab
}

// Classify maps one request onto its endpoint class name.
func Classify(method, path string) string { return Classes[classIdx(method, path)] }

// codeClass buckets a status code for the per-class counters.
func codeClass(status int) int {
	i := status/100 - 1
	if i < 0 || i > 4 {
		return 4 // off-protocol statuses count as 5xx-adjacent
	}
	return i
}

var codeClassNames = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// classMetrics is one endpoint class's pre-resolved instruments.
type classMetrics struct {
	inflight *Gauge
	latency  *Histogram
	codes    [5]*Counter
}

// HTTPMetrics is the per-class HTTP instrument set, registered once at
// construction and indexed by class index, so the request path never
// touches the registry or hashes a map key.
type HTTPMetrics struct {
	classes [numClasses]*classMetrics
}

// NewHTTPMetrics registers the per-class HTTP metrics on reg:
//
//	gt_http_requests_total{class,code}   counter
//	gt_http_request_seconds{class}       histogram
//	gt_http_inflight{class}              gauge
func NewHTTPMetrics(reg *Registry) *HTTPMetrics {
	m := &HTTPMetrics{}
	for idx, class := range Classes {
		cm := &classMetrics{
			inflight: reg.Gauge("gt_http_inflight", "Requests currently being served.", "class", class),
			latency: reg.Histogram("gt_http_request_seconds",
				"Request latency by endpoint class.", nil, "class", class),
		}
		for i, code := range codeClassNames {
			cm.codes[i] = reg.Counter("gt_http_requests_total",
				"Requests served by endpoint class and status class.", "class", class, "code", code)
		}
		m.classes[idx] = cm
	}
	return m
}

// Class returns one class's latency histogram (tests, SLO assertions).
func (m *HTTPMetrics) Class(class string) *Histogram {
	for idx, name := range Classes {
		if name == class {
			return m.classes[idx].latency
		}
	}
	return nil
}

// --- request ids ---

// ridPrefix makes ids from different processes distinguishable without
// coordination; ridSeq makes them unique within the process.
var (
	ridPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Entropy exhaustion at boot: fall back to the clock. Ids stay
			// unique within the process either way.
			return strconv.FormatInt(time.Now().UnixNano()&0xffffffff, 16)
		}
		return hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Uint64
)

// NewRequestID mints a process-unique request id: a boot-time random
// prefix plus a sequence number.
func NewRequestID() string {
	return ridPrefix + "-" + strconv.FormatUint(ridSeq.Add(1), 36)
}

// --- middleware ---

// statusWriter captures the status and byte count of one response. It is
// pooled; the zero status means WriteHeader was never called (implicit
// 200 on first Write).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Unwrap supports http.ResponseController passthrough.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// FlusherFor walks w's Unwrap chain (wrappers like statusWriter expose
// the writer they decorate through Unwrap, the http.ResponseController
// convention) to a writer that can actually flush. Streaming handlers
// must use this instead of asserting w.(http.Flusher) directly: a
// middleware wrapper in between would hide the real Flusher and silently
// turn a held-open stream into a buffered one-shot. nil means nothing in
// the stack can flush.
func FlusherFor(w http.ResponseWriter) http.Flusher {
	for {
		if f, ok := w.(http.Flusher); ok {
			return f
		}
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return nil
		}
		w = u.Unwrap()
	}
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

// Middleware instruments an http.Handler: per-class metrics always,
// request-id propagation always, one structured request log line when
// Log is set.
type Middleware struct {
	// Metrics is the per-class instrument set. Required.
	Metrics *HTTPMetrics
	// Log emits one line per request when non-nil (access logging is the
	// daemons' opt-in; embedders and benchmarks leave it nil).
	Log *slog.Logger
	// Mint mints a request id when the request carries none — the front
	// tier's job. Shards leave it false and only echo relayed ids.
	Mint bool
}

// Wrap returns the instrumented handler.
func (m *Middleware) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := nanotime()
		idx := classIdx(r.Method, r.URL.Path)
		cm := m.Metrics.classes[idx]

		var rid string
		if vals := r.Header[ridHeaderKey]; len(vals) > 0 {
			rid = vals[0]
		} else if m.Mint {
			rid = NewRequestID()
			// Set on the *request* so a proxy's forwarded copy (which
			// clones inbound headers) relays it on every hop and retry.
			r.Header[ridHeaderKey] = []string{rid}
		}
		if rid != "" {
			w.Header()[ridHeaderKey] = []string{rid}
		}

		sw := swPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status, sw.bytes = w, 0, 0

		cm.inflight.Add(1)
		next.ServeHTTP(sw, r)
		cm.inflight.Add(-1)

		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		elapsed := time.Duration(nanotime() - start)
		cm.latency.Observe(float64(elapsed) * 1e-9)
		cm.codes[codeClass(status)].Inc()

		if m.Log != nil {
			m.logRequest(r, sw, rid, Classes[idx], status, elapsed)
		}
		sw.ResponseWriter = nil
		swPool.Put(sw)
	})
}

// logRequest emits the structured access-log line. Attr construction
// allocates; that is fine here — the logging path is opt-in and already
// formats output.
func (m *Middleware) logRequest(r *http.Request, sw *statusWriter, rid, class string, status int, elapsed time.Duration) {
	level := slog.LevelInfo
	switch {
	case status >= 500:
		level = slog.LevelError
	case status >= 400:
		level = slog.LevelWarn
	}
	attrs := make([]slog.Attr, 0, 10)
	attrs = append(attrs,
		slog.String("rid", rid),
		slog.String("class", class),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
	)
	if city := cityOf(r.URL.Path); city != "" {
		attrs = append(attrs, slog.String("city", city))
	}
	// The routing layer stamps which shard/backend served; present only
	// on proxied responses, so one line locates the whole hop.
	h := sw.Header()
	if shard := h.Get("X-GT-Shard"); shard != "" {
		attrs = append(attrs, slog.String("shard", shard))
	}
	if backend := h.Get("X-GT-Backend"); backend != "" {
		attrs = append(attrs, slog.String("backend", backend))
	}
	attrs = append(attrs,
		slog.Int("status", status),
		slog.Int64("bytes", sw.bytes),
		slog.Duration("dur", elapsed),
	)
	m.Log.LogAttrs(r.Context(), level, "http", attrs...)
}

// cityOf extracts the {city} path segment from /cities/{city}[/...].
func cityOf(path string) string {
	rest, ok := strings.CutPrefix(path, "/cities/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i]
	}
	return rest
}
