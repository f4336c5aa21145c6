package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"grouptravel/internal/server"
	"grouptravel/internal/telemetry"
)

// End-to-end observability: the same stack the routing tests run —
// real internal/server backends behind a real router over HTTP — but
// asserting the telemetry contract: one request id visible in both
// tiers' structured logs, and /metrics on both daemons exposing the
// per-class histograms and fleet counters dashboards are built on.

// syncBuffer is a concurrency-safe log sink: httptest serves requests
// on its own goroutines, so the slog handler writes concurrently with
// the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines decodes every JSON log line in the sink.
func logLines(t *testing.T, b *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// findLog returns the first record matching the predicate.
func findLog(recs []map[string]any, pred func(map[string]any) bool) map[string]any {
	for _, r := range recs {
		if pred(r) {
			return r
		}
	}
	return nil
}

// TestRequestIDInBothTiersLogs: a mutation proxied through the router
// appears in the router's and the shard's structured logs under the
// same request id — the cross-fleet correlation the tracing exists for.
func TestRequestIDInBothTiersLogs(t *testing.T) {
	shardLog := &syncBuffer{}
	shardLogger, err := telemetry.NewAccessLogger(shardLog, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.NewMultiCity(server.Options{
		Cities: rtTestCities(t), SnapshotDir: t.TempDir(), AccessLog: shardLogger,
	})
	if err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(s.Handler())
	defer backend.Close()

	routerLog := &syncBuffer{}
	routerLogger, err := telemetry.NewAccessLogger(routerLog, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	rt, ts := newRouter(t, Options{Topology: singleShard(backend.URL), AccessLog: routerLogger})
	rt.Poll()

	city := cityKeyOf(rtTestCities(t)[0])
	var g createdGroup
	hdr := doJSON(t, http.MethodPost, ts.URL+"/cities/"+city+"/groups",
		groupBody(rtTestCities(t)[0]), nil, http.StatusCreated, &g)

	rid := hdr.Get(telemetry.HeaderRequestID)
	if rid == "" {
		t.Fatal("router response carries no X-GT-Request-Id")
	}

	routerRec := findLog(logLines(t, routerLog), func(r map[string]any) bool {
		return r["rid"] == rid
	})
	if routerRec == nil {
		t.Fatalf("request id %q not in router log:\n%s", rid, routerLog.String())
	}
	if routerRec["class"] != telemetry.ClassCollab {
		t.Fatalf("router logged class %v, want %q", routerRec["class"], telemetry.ClassCollab)
	}
	if routerRec["shard"] != "s1" || routerRec["backend"] != backend.URL {
		t.Fatalf("router log names shard=%v backend=%v, want s1 / %s",
			routerRec["shard"], routerRec["backend"], backend.URL)
	}

	shardRec := findLog(logLines(t, shardLog), func(r map[string]any) bool {
		return r["rid"] == rid
	})
	if shardRec == nil {
		t.Fatalf("request id %q not in shard log:\n%s", rid, shardLog.String())
	}
	if shardRec["city"] != city {
		t.Fatalf("shard logged city %v, want %q", shardRec["city"], city)
	}

	// A caller-supplied id is honored, not replaced: the client's own
	// correlation survives the whole fleet hop.
	hdr = doJSON(t, http.MethodGet, ts.URL+"/cities/"+city, nil,
		map[string]string{telemetry.HeaderRequestID: "caller-supplied-1"}, http.StatusOK, nil)
	if got := hdr.Get(telemetry.HeaderRequestID); got != "caller-supplied-1" {
		t.Fatalf("caller-supplied request id replaced with %q", got)
	}
	if rec := findLog(logLines(t, shardLog), func(r map[string]any) bool {
		return r["rid"] == "caller-supplied-1"
	}); rec == nil {
		t.Fatal("caller-supplied request id not in shard log")
	}
}

// TestMetricsEndToEnd: after real traffic, both tiers' /metrics expose
// the per-class latency histograms (with a sane p99), the routing
// counters, and the shard's WAL series.
func TestMetricsEndToEnd(t *testing.T) {
	s, backend := newPrimary(t)
	rt, ts := newRouter(t, Options{Topology: singleShard(backend.URL)})
	rt.Poll()

	city := cityKeyOf(rtTestCities(t)[0])
	var g createdGroup
	doJSON(t, http.MethodPost, ts.URL+"/cities/"+city+"/groups",
		groupBody(rtTestCities(t)[0]), nil, http.StatusCreated, &g)
	for i := 0; i < 5; i++ {
		doJSON(t, http.MethodGet, ts.URL+"/cities/"+city, nil, nil, http.StatusOK, nil)
	}

	// Per-class latency: every read above went through the router's
	// middleware, so the read class histogram must hold them all and
	// report a positive, sane p99.
	snap := rt.HTTPMetrics().Class(telemetry.ClassRead).Snapshot()
	if snap.Count < 5 {
		t.Fatalf("read-class histogram holds %d observations, want >= 5", snap.Count)
	}
	if p99 := snap.Quantile(0.99); p99 <= 0 || p99 > 10 {
		t.Fatalf("read-class p99 = %v s, want within (0, 10]", p99)
	}
	if collab := rt.HTTPMetrics().Class(telemetry.ClassCollab).Snapshot(); collab.Count < 1 {
		t.Fatal("collab-class histogram recorded no mutation")
	}

	routerMetrics := fetchText(t, ts.URL+"/metrics")
	for _, want := range []string{
		`gt_http_request_seconds_bucket{class="read",le="+Inf"}`,
		`gt_http_requests_total{class="collab",code="2xx"} 1`,
		"gt_router_reads_total 5",
		"gt_router_mutations_total 1",
		`gt_router_node_up{node="` + backend.URL + `"} 1`,
		`gt_router_health_poll_seconds_count{node="` + backend.URL + `"}`,
	} {
		if !strings.Contains(routerMetrics, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}

	shardMetrics := fetchText(t, backend.URL+"/metrics")
	for _, want := range []string{
		`gt_http_request_seconds_bucket{class="collab",le="+Inf"}`,
		"gt_wal_append_seconds_count",
		"gt_wal_fsync_seconds_count",
		`gt_wal_records{city="` + city + `"}`,
	} {
		if !strings.Contains(shardMetrics, want) {
			t.Errorf("shard /metrics missing %q", want)
		}
	}

	// The shard's per-class histogram saw the proxied traffic too.
	if snap := s.HTTPMetrics().Class(telemetry.ClassRead).Snapshot(); snap.Count < 5 {
		t.Fatalf("shard read-class histogram holds %d observations, want >= 5", snap.Count)
	}
}

func fetchText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
