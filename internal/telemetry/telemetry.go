// Package telemetry is the fleet's dependency-free metrics core: atomic
// counters and gauges, fixed-bucket latency histograms with a lock-free
// allocation-free Observe on the hot path, snapshots with quantile
// extraction, and a Prometheus-text GET /metrics exposition —
// the machine-scrapable surface the SLO/loadgen trajectory gates on.
//
// # Model
//
// A Registry holds metric families keyed by name; each family holds one
// series per label set. Registration is idempotent: asking for the same
// (name, labels) twice returns the same metric, so a per-city counter
// survives a retried city load and the health report and the
// /metrics exposition can be backed by the *same* underlying values —
// the two surfaces can never disagree.
//
// Callers register a series once and keep the instrument, so the request
// path performs only atomic operations: no locks, no maps, no allocation.
// Registration may still happen while serving (a city's first load, a
// follower's first stream, a topology reload that adds a node); it and
// the scrape share one registry lock. Values that are cheaper to read
// than to track (WAL stats, residency) register as CounterFunc/GaugeFunc
// and are sampled at scrape time.
package telemetry

import (
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// --- metrics ---

// Counter is a monotonically increasing value. The zero value is unusable;
// obtain counters from a Registry. All methods are safe for concurrent
// use and nil-safe (a nil counter is a no-op), so instrumented code never
// branches on "is telemetry wired".
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds delta (negative deltas are a caller bug; they are not checked
// on the hot path).
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Observe is lock-free and
// allocation-free: one bounded scan over the bucket bounds plus two
// atomic adds — cheap enough for a per-request hot path. The total count
// is the sum of the bucket counts (no separate total, one fewer atomic
// per Observe). The sum is tracked in integer nanounits (for latencies
// in seconds: nanoseconds), which overflows after ~292 years of
// accumulated observation.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64
	sumN   atomic.Int64 // sum in 1e-9 units
}

// DefLatencyBuckets spans 5µs to 10s — the full range from a cached
// byte-serve (~2µs) through package builds (~hundreds of µs) to a
// pathological tail. 19 bounds keeps the exposition small and the
// quantile resolution ~2.5x per step.
var DefLatencyBuckets = []float64{
	0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value (seconds, for latency histograms).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumN.Add(int64(v * 1e9))
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Snapshot captures a point-in-time copy. Concurrent Observes
// may straddle the capture; each observation is either fully in or fully
// out of its bucket, and the total count is the sum of the captured
// buckets, so count and buckets can never disagree.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    float64(h.sumN.Load()) / 1e9,
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistSnapshot is a point-in-time histogram state: per-bucket counts
// (last bucket is +Inf), total count, and the observed sum.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Quantile extracts the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket holding the target rank — exact up to bucket
// resolution: the true quantile is always inside the returned value's
// bucket. Values in the +Inf bucket report the largest finite bound.
// An empty histogram reports 0.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < target {
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket: no finite upper bound
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		if c == 0 {
			return upper
		}
		return lower + (upper-lower)*(target-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// --- registry ---

// metricKind orders families in the exposition and names their TYPE.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one (labels, value) row of a family.
type series struct {
	labels  string // pre-rendered {k="v",...} or ""
	counter *Counter
	gauge   *Gauge
	fn      func() float64 // CounterFunc/GaugeFunc sample
	hist    *Histogram
}

type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series // label signature -> series
	order  []string           // registration order of signatures
}

// Registry is a set of metric families. All registration methods are
// idempotent on (name, labels) and safe for concurrent use; registering
// one name under two different kinds panics — that is a wiring bug, not
// a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSig renders label pairs into the exposition form, escaping label
// values per the Prometheus text format (backslash, quote, newline).
func labelSig(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be key/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		v := labels[i+1]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// register returns the family's series for the labels, creating family
// and series as needed, and runs init on the series under the registry
// lock — so a concurrent scrape, which copies series under the same lock,
// never sees an instrument half-installed.
func (r *Registry) register(name, help string, kind metricKind, labels []string, init func(*series)) *series {
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s and %s", name, f.kind, kind))
	}
	s := f.series[sig]
	if s == nil {
		s = &series{labels: sig}
		f.series[sig] = s
		f.order = append(f.order, sig)
	}
	init(s)
	return s
}

// Unregister removes one series (a departed follower's row, say); a later
// registration of the same (name, labels) starts afresh. Unknown series
// are ignored.
func (r *Registry) Unregister(name string, labels ...string) {
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil || f.series[sig] == nil {
		return
	}
	delete(f.series, sig)
	f.order = slices.DeleteFunc(f.order, func(o string) bool { return o == sig })
}

// Counter registers (or returns the existing) counter. labels are
// key/value pairs: Counter("gt_hits_total", "hits", "city", "paris").
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.register(name, help, kindCounter, labels, func(s *series) {
		if s.counter == nil {
			s.counter = &Counter{}
		}
	}).counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.register(name, help, kindGauge, labels, func(s *series) {
		if s.gauge == nil {
			s.gauge = &Gauge{}
		}
	}).gauge
}

// CounterFunc registers a counter sampled at scrape time — for
// monotonically increasing values something else already tracks (WAL
// fsync counts, replication sync counts). Re-registration replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindCounter, labels, func(s *series) { s.fn = fn })
}

// GaugeFunc registers a gauge sampled at scrape time — for values that
// are cheaper to read than to track (lag, residency, queue depths).
// Re-registration replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGauge, labels, func(s *series) { s.fn = fn })
}

// Histogram registers (or returns the existing) histogram with the given
// bucket upper bounds (nil: DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return r.register(name, help, kindHistogram, labels, func(s *series) {
		if s.hist == nil {
			if bounds == nil {
				bounds = DefLatencyBuckets
			}
			s.hist = newHistogram(bounds)
		}
	}).hist
}

// formatFloat renders a sample value: integers without a decimal point
// (the common counter case), everything else in shortest-form %g.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the whole registry in the Prometheus text
// exposition format (version 0.0.4), families in registration order,
// series in registration order within each family. The series are copied
// under the registry lock; their values are read after it is released,
// so a slow scrape func never blocks registration.
func (r *Registry) WritePrometheus(w *strings.Builder) {
	type familyRows struct {
		*family
		rows []series
	}
	r.mu.Lock()
	fams := make([]familyRows, len(r.order))
	for i, n := range r.order {
		f := r.families[n]
		rows := make([]series, len(f.order))
		for j, sig := range f.order {
			rows[j] = *f.series[sig]
		}
		fams[i] = familyRows{f, rows}
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			w.WriteString("# HELP ")
			w.WriteString(f.name)
			w.WriteByte(' ')
			w.WriteString(f.help)
			w.WriteByte('\n')
		}
		w.WriteString("# TYPE ")
		w.WriteString(f.name)
		w.WriteByte(' ')
		w.WriteString(string(f.kind))
		w.WriteByte('\n')
		for i := range f.rows {
			s := &f.rows[i]
			switch {
			case f.kind == kindHistogram:
				writeHistogram(w, f.name, s)
			case s.fn != nil:
				writeSample(w, f.name, "", s.labels, s.fn())
			case s.counter != nil:
				writeSample(w, f.name, "", s.labels, float64(s.counter.Value()))
			case s.gauge != nil:
				writeSample(w, f.name, "", s.labels, float64(s.gauge.Value()))
			}
		}
	}
}

func writeSample(w *strings.Builder, name, suffix, labels string, v float64) {
	w.WriteString(name)
	w.WriteString(suffix)
	w.WriteString(labels)
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

// writeHistogram renders one series' cumulative buckets, sum and count.
func writeHistogram(w *strings.Builder, name string, s *series) {
	snap := s.hist.Snapshot()
	// The le label joins any existing labels inside one brace set.
	prefix, suffix := "{", "}"
	if s.labels != "" {
		prefix = s.labels[:len(s.labels)-1] + ","
	}
	var cum int64
	for i, c := range snap.Counts {
		cum += c
		le := "+Inf"
		if i < len(snap.Bounds) {
			le = formatFloat(snap.Bounds[i])
		}
		w.WriteString(name)
		w.WriteString("_bucket")
		w.WriteString(prefix)
		w.WriteString(`le="`)
		w.WriteString(le)
		w.WriteByte('"')
		w.WriteString(suffix)
		w.WriteByte(' ')
		w.WriteString(strconv.FormatInt(cum, 10))
		w.WriteByte('\n')
	}
	writeSample(w, name, "_sum", s.labels, snap.Sum)
	writeSample(w, name, "_count", s.labels, float64(snap.Count))
}

// Render returns the full exposition as a string.
func (r *Registry) Render() string {
	var b strings.Builder
	b.Grow(4096)
	r.WritePrometheus(&b)
	return b.String()
}

// Handler serves the registry as GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		body := r.Render()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write([]byte(body))
	})
}
