package telemetry

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// refQuantile is the reference: sort and index.
func refQuantile(values []float64, q float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	i := int(q*float64(len(s))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// bucketOf returns the index of the bucket v falls in.
func bucketOf(bounds []float64, v float64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// TestHistogramQuantileAgainstReferenceSort pins the quantile contract:
// the estimate always lands in the same bucket as the true (sorted)
// quantile — exact up to bucket resolution.
func TestHistogramQuantileAgainstReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		h := newHistogram(DefLatencyBuckets)
		n := 100 + rng.Intn(5000)
		values := make([]float64, n)
		for i := range values {
			// Log-uniform across the bucket range, like real latencies.
			values[i] = 0.000001 * pow(10, rng.Float64()*6)
			h.Observe(values[i])
		}
		snap := h.Snapshot()
		if snap.Count != int64(n) {
			t.Fatalf("count = %d, want %d", snap.Count, n)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			est := snap.Quantile(q)
			ref := refQuantile(values, q)
			got, want := bucketOf(snap.Bounds, est), bucketOf(snap.Bounds, ref)
			// The estimate must land in the reference value's bucket —
			// exact up to bucket resolution. Allow one bucket of slack for
			// ranks sitting exactly on a boundary, where the two rank
			// conventions legitimately straddle it.
			if d := got - want; d < -1 || d > 1 {
				t.Errorf("q=%g: estimate %g (bucket %d) vs reference %g (bucket %d)", q, est, got, ref, want)
			}
		}
	}
}

func pow(base, exp float64) float64 {
	r := 1.0
	for exp >= 1 {
		r *= base
		exp--
	}
	if exp > 0 {
		// crude fractional power via repeated sqrt is overkill; use the
		// identity base^exp = e^(exp ln base) only through the stdlib in
		// non-test code. Here linear interpolation suffices for spread.
		r *= 1 + exp*(base-1)
	}
	return r
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100) // all beyond the largest bound
	}
	if got := h.Snapshot().Quantile(0.5); got != 4 {
		t.Fatalf("+Inf bucket quantile = %g, want largest finite bound 4", got)
	}
}

// TestConcurrentObserveAndSnapshot exercises the lock-free paths under
// the race detector: concurrent Observe against concurrent Snapshot and
// a concurrent scrape must be clean, and the final count exact.
func TestConcurrentObserveAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("gt_test_seconds", "test", nil)
	c := reg.Counter("gt_test_total", "test", "worker", "all")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Observe(rng.Float64())
				c.Inc()
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = h.Snapshot()
			_ = reg.Render()
		}
	}()
	wg.Wait()
	<-done
	snap := h.Snapshot()
	if want := int64(workers * perWorker); snap.Count != want || c.Value() != want {
		t.Fatalf("count = %d / counter = %d, want %d", snap.Count, c.Value(), want)
	}
	var sum int64
	for _, n := range snap.Counts {
		sum += n
	}
	if sum != snap.Count {
		t.Fatalf("bucket sum %d != count %d", sum, snap.Count)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("gt_x_total", "x", "city", "paris")
	b := reg.Counter("gt_x_total", "x", "city", "paris")
	if a != b {
		t.Fatal("same (name, labels) returned different counters")
	}
	other := reg.Counter("gt_x_total", "x", "city", "rome")
	if a == other {
		t.Fatal("different labels returned the same counter")
	}
}

// TestRegistryRegisterWhileRendering: series are registered while
// serving — a city's first load, a follower's first stream, a topology
// reload that adds a node — so a scrape must be safe against concurrent
// registration of new series, and against a scrape func being replaced.
// Run under -race (make race).
func TestRegistryRegisterWhileRendering(t *testing.T) {
	reg := NewRegistry()
	const n = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			city := strconv.Itoa(i)
			reg.Gauge("gt_lag", "lag", "city", city).Set(int64(i))
			reg.Counter("gt_ops_total", "ops", "city", city).Inc()
			reg.Histogram("gt_op_seconds", "op latency", nil, "city", city).Observe(0.001)
			reg.GaugeFunc("gt_resident", "resident", func() float64 { return float64(i) })
		}
	}()
	for renders := 0; ; renders++ {
		select {
		case <-done:
			samples := parseExposition(t, reg.Render())
			for _, i := range []int{0, n / 2, n - 1} {
				city := strconv.Itoa(i)
				if samples[`gt_lag{city="`+city+`"}`] != float64(i) || samples[`gt_ops_total{city="`+city+`"}`] != 1 ||
					samples[`gt_op_seconds_count{city="`+city+`"}`] != 1 {
					t.Fatalf("city %s missing or wrong after %d concurrent renders", city, renders)
				}
			}
			if samples["gt_resident"] != n-1 {
				t.Fatalf("gt_resident = %v, want the last registered func's %d", samples["gt_resident"], n-1)
			}
			return
		default:
			reg.Render()
		}
	}
}

// parseExposition is a minimal Prometheus text-format parser: it
// validates line shape and returns sample name+labels -> value.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE %q", ln+1, line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, fields[3])
			}
			if _, dup := types[fields[2]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, fields[2])
			}
			types[fields[2]] = fields[3]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("line %d: no sample value in %q", ln+1, line)
			}
			key, valStr := line[:sp], line[sp+1:]
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
			}
			if _, dup := samples[key]; dup {
				t.Fatalf("line %d: duplicate sample %q", ln+1, key)
			}
			name := key
			if i := strings.IndexByte(name, '{'); i >= 0 {
				if !strings.HasSuffix(key[:sp], "}") && !strings.Contains(key, "}") {
					t.Fatalf("line %d: unterminated label set in %q", ln+1, key)
				}
				name = name[:i]
			}
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if trimmed, ok := strings.CutSuffix(name, suffix); ok && types[trimmed] == "histogram" {
					base = trimmed
				}
			}
			if _, ok := types[base]; !ok {
				t.Fatalf("line %d: sample %q precedes its TYPE", ln+1, key)
			}
			samples[key] = v
		}
	}
	return samples
}

// TestPrometheusExpositionRoundTrip renders a populated registry and
// parses it back: every family typed, histogram buckets cumulative and
// consistent with _count, label escaping intact.
func TestPrometheusExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("gt_reqs_total", "requests", "class", "read").Add(7)
	reg.Gauge("gt_inflight", "in flight", "class", "read").Set(2)
	reg.GaugeFunc("gt_lag_records", "lag", func() float64 { return 41 }, "city", `we"ird\city`)
	h := reg.Histogram("gt_lat_seconds", "latency", []float64{0.001, 0.01, 0.1}, "class", "read")
	for _, v := range []float64{0.0005, 0.005, 0.005, 0.05, 5} {
		h.Observe(v)
	}

	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var sb strings.Builder
	if _, err := copyAll(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, sb.String())

	if got := samples[`gt_reqs_total{class="read"}`]; got != 7 {
		t.Fatalf("counter = %g, want 7", got)
	}
	if got := samples[`gt_lag_records{city="we\"ird\\city"}`]; got != 41 {
		t.Fatalf("escaped-label gauge = %g (samples: %v)", got, samples)
	}
	// Histogram: buckets cumulative, +Inf equals _count.
	buckets := []string{
		`gt_lat_seconds_bucket{class="read",le="0.001"}`,
		`gt_lat_seconds_bucket{class="read",le="0.01"}`,
		`gt_lat_seconds_bucket{class="read",le="0.1"}`,
		`gt_lat_seconds_bucket{class="read",le="+Inf"}`,
	}
	want := []float64{1, 3, 4, 5}
	prev := -1.0
	for i, key := range buckets {
		got, ok := samples[key]
		if !ok {
			t.Fatalf("missing %s", key)
		}
		if got != want[i] {
			t.Fatalf("%s = %g, want %g", key, got, want[i])
		}
		if got < prev {
			t.Fatalf("buckets not cumulative at %s", key)
		}
		prev = got
	}
	if samples[`gt_lat_seconds_count{class="read"}`] != 5 {
		t.Fatalf("count = %g, want 5", samples[`gt_lat_seconds_count{class="read"}`])
	}
	if sum := samples[`gt_lat_seconds_sum{class="read"}`]; sum < 5.0 || sum > 5.2 {
		t.Fatalf("sum = %g, want ~5.06", sum)
	}
}

func copyAll(sb *strings.Builder, r io.Reader) (int64, error) {
	return io.Copy(sb, r)
}

func TestClassify(t *testing.T) {
	cases := []struct{ method, path, want string }{
		{"GET", "/healthz", ClassHealth},
		{"GET", "/metrics", ClassHealth},
		{"POST", "/promote", ClassHealth},
		{"GET", "/cities/paris/wal", ClassWAL},
		{"GET", "/cities", ClassRead},
		{"GET", "/cities/paris/pois", ClassRead},
		{"GET", "/cities/paris/packages/3", ClassRead},
		{"POST", "/cities/paris/packages", ClassBuild},
		{"POST", "/cities/paris/packages/3/refine", ClassRefine},
		{"POST", "/cities/paris/groups", ClassCollab},
		{"POST", "/cities/paris/packages/3/ops", ClassCollab},
	}
	for _, c := range cases {
		if got := Classify(c.method, c.path); got != c.want {
			t.Errorf("Classify(%s %s) = %s, want %s", c.method, c.path, got, c.want)
		}
	}
}

// TestObserveAllocationFree pins the acceptance criterion: Observe on
// the hot path must not allocate.
func TestObserveAllocationFree(t *testing.T) {
	h := newHistogram(DefLatencyBuckets)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.00042) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f times per call, want 0", allocs)
	}
	c := &Counter{}
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Fatalf("Counter.Inc allocates %.1f times per call, want 0", allocs)
	}
}
