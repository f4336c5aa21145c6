package router

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"grouptravel/internal/server"
	"grouptravel/internal/telemetry"
)

// --- unit: guard, cookie codec, LRU/floor mechanics ---

func TestEdgeCacheableGuard(t *testing.T) {
	long := make([]byte, maxEdgeKeyQuery+1)
	for i := range long {
		long[i] = 'q'
	}
	cases := []struct {
		rest, query string
		want        bool
	}{
		{"", "", true},
		{"groups/7", "", true},
		{"pois", "k=3", true},
		{"wal", "", false},
		{"wal", "from=3", false},
		{"metrics", "", false},
		{"healthz", "", false},
		{"groups/7", string(long), false},
	}
	for _, c := range cases {
		if got := edgeCacheable(c.rest, c.query); got != c.want {
			t.Fatalf("edgeCacheable(%q, %.20q) = %v, want %v", c.rest, c.query, got, c.want)
		}
	}
}

func TestSessionCookieCodec(t *testing.T) {
	v := cookieToken("", "rhodes", 3)
	if v != "rhodes:3" {
		t.Fatalf("cookieToken fresh = %q", v)
	}
	v = cookieToken(v, "smyrna", 5)
	if cookieFloor(v, "rhodes") != 3 || cookieFloor(v, "smyrna") != 5 {
		t.Fatalf("merged cookie %q lost a floor", v)
	}
	// A racing response must never lower an established floor.
	if v := cookieToken("rhodes:9", "rhodes", 3); cookieFloor(v, "rhodes") != 9 {
		t.Fatalf("stale echo lowered the floor: %q", v)
	}
	// Malformed slices degrade to no floor, never an error.
	for _, bad := range []string{"", "rhodes", "rhodes:", "rhodes:x", ":3", "|||", "rhodes:-2"} {
		if f := cookieFloor(bad, "rhodes"); f != 0 {
			t.Fatalf("cookieFloor(%q) = %d, want 0", bad, f)
		}
	}
	// The cookie value must survive net/http's sanitizer byte for byte.
	raw := cookieToken(cookieToken("", "rhodes", 3), "smyrna", 5)
	rec := httptest.NewRecorder()
	http.SetCookie(rec, &http.Cookie{Name: SessionCookie, Value: raw, Path: "/"})
	cks := rec.Result().Cookies()
	if len(cks) != 1 || cks[0].Value != raw {
		t.Fatalf("cookie value mangled by net/http: %+v", cks)
	}
}

func TestEdgeCacheLRUAndFloors(t *testing.T) {
	ec := newEdgeCache(2, newCounters(telemetry.NewRegistry()))
	put := func(key string, seq int64) {
		ec.put(&edgeEntry{key: key, city: "v", seq: seq, body: []byte(key)})
	}
	put("a", 1)
	put("b", 1)
	put("c", 1) // evicts a (LRU tail)
	if ec.len() != 2 {
		t.Fatalf("len = %d, want cap 2", ec.len())
	}
	if ec.get("a", 0) != nil {
		t.Fatal("evicted entry still served")
	}
	if e := ec.get("b", 0); e == nil || string(e.body) != "b" {
		t.Fatalf("get(b) = %+v", e)
	}
	if ec.get("b", 2) != nil {
		t.Fatal("entry below the caller's floor served")
	}
	ec.invalidate("v", 5)
	if ec.get("b", 0) != nil {
		t.Fatal("entry served after its city's commit floor rose past it")
	}
	put("d", 4) // dead on arrival: below the commit floor
	if ec.get("d", 0) != nil {
		t.Fatal("below-floor put was stored")
	}
	put("d", 5)
	if ec.get("d", 5) == nil {
		t.Fatal("at-floor entry not served")
	}
	// A racing slower fill must not replace a fresher render.
	put("d", 7)
	put("d", 6)
	if e := ec.get("d", 0); e == nil || e.seq != 7 {
		t.Fatalf("older racing fill replaced a fresher entry: %+v", e)
	}
}

// --- integration: hits, invalidation, freshness over real backends ---

// TestEdgeCacheHitInvalidateRefill walks the cache through its whole
// deterministic life cycle against a real primary+follower shard: miss →
// fill → hit, commit-floor invalidation by a proxied mutation, refill at
// the new sequence from the primary, and hit again once the entry proves
// the floor.
func TestEdgeCacheHitInvalidateRefill(t *testing.T) {
	_, pts := newPrimary(t)
	fsrv, fts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)

	rt, rts := newRouter(t, Options{Topology: singleShard(fts.URL, pts.URL), ShedLag: -1, EdgeCache: true})
	rt.Poll()

	var g createdGroup
	hdr := doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusCreated, &g)
	sid := cookieCarrier(sessionCookieOf(t, hdr))
	syncAll(t, fsrv)
	rt.Poll()

	url := fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, key, g.ID)

	// Miss + fill (served by the freshest follower), then a zero-hop hit.
	hdr = doJSON(t, "GET", url, nil, sid, http.StatusOK, nil)
	if hdr.Get(HeaderEdge) != "" || hdr.Get(HeaderBackend) != fts.URL {
		t.Fatalf("fill not served by the follower: edge=%q backend=%q", hdr.Get(HeaderEdge), hdr.Get(HeaderBackend))
	}
	hdr = doJSON(t, "GET", url, nil, sid, http.StatusOK, nil)
	if hdr.Get(HeaderEdge) != "hit" {
		t.Fatalf("second read not an edge hit: %v", hdr)
	}
	if hdr.Get(HeaderAppliedSeq) != "1" || hdr.Get(HeaderBackend) != "" {
		t.Fatalf("hit headers wrong: seq=%q backend=%q", hdr.Get(HeaderAppliedSeq), hdr.Get(HeaderBackend))
	}
	if n := rt.ctr.edgeHits.Value(); n != 1 {
		t.Fatalf("edgeHits = %d, want 1", n)
	}

	// A proxied mutation invalidates the city immediately — before any
	// health poll or follower sync — so the next read refills from the
	// primary, the only node that can prove the new floor. The ack's
	// refreshed cookie carries that floor into the writer's next read.
	hdr = doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), sid, http.StatusCreated, nil)
	sid = cookieCarrier(sessionCookieOf(t, hdr))
	hdr = doJSON(t, "GET", url, nil, sid, http.StatusOK, nil)
	if hdr.Get(HeaderEdge) == "hit" {
		t.Fatal("stale entry served after the mutation raised the commit floor")
	}
	if hdr.Get(HeaderBackend) != pts.URL {
		t.Fatalf("post-write refill served by %q, want primary %q", hdr.Get(HeaderBackend), pts.URL)
	}
	if hdr.Get(HeaderAppliedSeq) != "2" {
		t.Fatalf("refill stamped %q, want \"2\"", hdr.Get(HeaderAppliedSeq))
	}
	if n := rt.ctr.edgeInvalidations.Value(); n == 0 {
		t.Fatal("edgeInvalidations never moved")
	}

	// The refilled entry proves the floor: hit again, at the new seq.
	hdr = doJSON(t, "GET", url, nil, sid, http.StatusOK, nil)
	if hdr.Get(HeaderEdge) != "hit" || hdr.Get(HeaderAppliedSeq) != "2" {
		t.Fatalf("refilled entry not hit: edge=%q seq=%q", hdr.Get(HeaderEdge), hdr.Get(HeaderAppliedSeq))
	}
}

// TestEdgeCacheWriteDropsRetiredEntries: a proxied write's commit floor
// retires every older entry of its city, and they leave the cache at
// once — the entry count and both size gauges on /metrics fall — while
// other cities' entries, and a fill that raced past the write, stay.
func TestEdgeCacheWriteDropsRetiredEntries(t *testing.T) {
	_, pts := newPrimary(t)
	cities := rtTestCities(t)
	keyA, keyB := cityKeyOf(cities[0]), cityKeyOf(cities[1])
	rt, rts := newRouter(t, Options{Topology: singleShard(pts.URL), EdgeCache: true})

	var ga, gb createdGroup
	doJSON(t, "POST", rts.URL+"/cities/"+keyA+"/groups", groupBody(cities[0]), nil, http.StatusCreated, &ga)
	doJSON(t, "POST", rts.URL+"/cities/"+keyB+"/groups", groupBody(cities[1]), nil, http.StatusCreated, &gb)
	rt.Poll()
	for _, path := range []string{
		fmt.Sprintf("/cities/%s/groups/%d", keyA, ga.ID),
		"/cities/" + keyA + "/pois?k=3",
		fmt.Sprintf("/cities/%s/groups/%d", keyB, gb.ID),
	} {
		doJSON(t, "GET", rts.URL+path, nil, nil, http.StatusOK, nil)
	}
	// A fill that raced past the write: stamped above any floor the
	// write below can set.
	raced := &edgeEntry{key: edgeKey(keyA, "/cities/"+keyA+"/raced", ""), city: keyA, seq: 1 << 40, body: []byte("raced")}
	rt.edge.put(raced)

	gauges := func() (entries, bytes float64) {
		text := fetchText(t, rts.URL+"/metrics")
		return metricValue(t, text, "gt_router_edgecache_entries"), metricValue(t, text, "gt_router_edgecache_bytes")
	}
	entries, bytes := gauges()
	if entries != 4 || rt.edge.len() != 4 {
		t.Fatalf("warm cache: gauge %v, len %d entries, want 4", entries, rt.edge.len())
	}

	doJSON(t, "POST", rts.URL+"/cities/"+keyA+"/groups", groupBody(cities[0]), nil, http.StatusCreated, nil)
	entriesAfter, bytesAfter := gauges()
	if entriesAfter != 2 || rt.edge.len() != 2 {
		t.Fatalf("after the write: gauge %v, len %d entries, want 2 (city %s's older entries dropped)",
			entriesAfter, rt.edge.len(), keyA)
	}
	if bytesAfter >= bytes || bytesAfter <= float64(len(raced.body)) {
		t.Fatalf("byte gauge %v -> %v: want a fall that keeps %s's entry and the raced fill", bytes, bytesAfter, keyB)
	}
	if rt.edge.get(raced.key, 0) != raced {
		t.Fatal("entry at or above the new floor was dropped")
	}
	hdr := doJSON(t, "GET", fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, keyB, gb.ID), nil, nil, http.StatusOK, nil)
	if hdr.Get(HeaderEdge) != "hit" {
		t.Fatalf("another city's entry did not survive the write")
	}
}

// metricValue reads one unlabelled sample from a /metrics page.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

// TestEdgeCacheNeverServesPreWrite is the freshness-contract proof the
// tentpole hangs on: with a follower frozen mid-lag and the cache warm,
// a mutation's ack must make every pre-write entry unservable — for the
// writer's own cookie-carrying read AND for token-less readers — before the writer
// can act on the ack. The token-less reader then gets the follower's
// honest 404 (the eventual-consistency contract), never the cache's
// confident stale 200.
func TestEdgeCacheNeverServesPreWrite(t *testing.T) {
	_, pts := newPrimary(t)
	fsrv, fts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)

	rt, rts := newRouter(t, Options{Topology: singleShard(fts.URL, pts.URL), ShedLag: -1, EdgeCache: true})
	rt.Poll()

	// Warm the cache at seq 1 with everyone in sync.
	var g1 createdGroup
	doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusCreated, &g1)
	syncAll(t, fsrv)
	rt.Poll()
	g1url := fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, key, g1.ID)
	doJSON(t, "GET", g1url, nil, nil, http.StatusOK, nil)
	if hdr := doJSON(t, "GET", g1url, nil, nil, http.StatusOK, nil); hdr.Get(HeaderEdge) != "hit" {
		t.Fatal("cache did not warm")
	}

	// The write: a second group commits at seq 2. The follower does NOT
	// sync and the router does NOT poll — the lag window is wide open and
	// only the commit token can save correctness.
	var g2 createdGroup
	hdr := doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusCreated, &g2)
	sid := cookieCarrier(sessionCookieOf(t, hdr))

	// The writer's read-back: cookie floor 2 beats the warm seq-1 entry;
	// the lagging follower can't prove the floor either, so the primary
	// serves — post-write state, not a 404.
	hdr = doJSON(t, "GET", fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, key, g2.ID), nil, sid, http.StatusOK, nil)
	if hdr.Get(HeaderEdge) == "hit" {
		t.Fatal("writer's read-back served from a pre-write cache entry")
	}
	if hdr.Get(HeaderBackend) != pts.URL {
		t.Fatalf("read-back served by %q, want primary", hdr.Get(HeaderBackend))
	}

	// A token-less reader of the warm key: the commit floor (raised by
	// the ack, no poll needed) kills the seq-1 entry, and the refill from
	// the lagging follower is stamped seq 1 — below the floor — so it is
	// served but NOT re-cached as servable. No pre-write bytes from the
	// cache, ever.
	hdr = doJSON(t, "GET", g1url, nil, nil, http.StatusOK, nil)
	if hdr.Get(HeaderEdge) == "hit" {
		t.Fatal("token-less read served a pre-write cache entry after the ack")
	}
	// The read-back above cached post-write bytes at seq 2 — so a
	// token-less reader of the NEW entity gets a hit *fresher* than the
	// lagging follower could serve. The cache only ever errs forward.
	hdr, err := tryDoJSON("GET", fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, key, g2.ID), nil, nil, http.StatusOK, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Get(HeaderEdge) != "hit" || hdr.Get(HeaderAppliedSeq) != "2" {
		t.Fatalf("token-less read of the fresh entity: edge=%q seq=%q, want fresh hit", hdr.Get(HeaderEdge), hdr.Get(HeaderAppliedSeq))
	}
	// An uncached key scoped to the new entity has nothing to hit: the
	// lagging follower answers its honest 404 — never a stale 200 and
	// never the cache inventing state.
	hdr, err = tryDoJSON("GET", fmt.Sprintf("%s/cities/%s/groups/%d?fresh=1", rts.URL, key, g2.ID), nil, nil, http.StatusNotFound, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Get(HeaderEdge) == "hit" || hdr.Get(HeaderBackend) != fts.URL {
		t.Fatalf("token-less 404: edge=%q backend=%q, want follower miss", hdr.Get(HeaderEdge), hdr.Get(HeaderBackend))
	}
}

// TestEdgeCacheUnrebuiltRefineKeepsEntries: a refine without rebuild
// answers 200 with no commit token because it commits nothing, so the
// city's entries stay resident and keep hitting: no invalidation, no
// purge.
func TestEdgeCacheUnrebuiltRefineKeepsEntries(t *testing.T) {
	_, pts := newPrimary(t)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)
	rt, rts := newRouter(t, Options{Topology: singleShard(pts.URL), EdgeCache: true})

	var g createdGroup
	doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusCreated, &g)
	var pkg struct {
		ID int `json:"id"`
	}
	doJSON(t, "POST", rts.URL+"/cities/"+key+"/packages", map[string]any{"group": g.ID, "k": 2}, nil, http.StatusCreated, &pkg)
	rt.Poll()
	urls := []string{
		fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, key, g.ID),
		fmt.Sprintf("%s/cities/%s/packages/%d", rts.URL, key, pkg.ID),
	}
	for _, u := range urls {
		doJSON(t, "GET", u, nil, nil, http.StatusOK, nil)
	}
	invalidations := rt.ctr.edgeInvalidations.Value()
	if n := rt.edge.len(); n != len(urls) {
		t.Fatalf("warm cache holds %d entries, want %d", n, len(urls))
	}

	refine := fmt.Sprintf("%s/cities/%s/packages/%d/refine", rts.URL, key, pkg.ID)
	hdr := doJSON(t, "POST", refine, map[string]any{"strategy": "batch"}, nil, http.StatusOK, nil)
	if hdr.Get(HeaderSeq) != "" {
		t.Fatalf("refine without rebuild carried commit token %q", hdr.Get(HeaderSeq))
	}
	if n := rt.edge.len(); n != len(urls) {
		t.Fatalf("refine without rebuild left %d of %d entries", n, len(urls))
	}
	if n := rt.ctr.edgeInvalidations.Value(); n != invalidations {
		t.Fatalf("refine without rebuild counted an invalidation: %d -> %d", invalidations, n)
	}
	for _, u := range urls {
		if hdr := doJSON(t, "GET", u, nil, nil, http.StatusOK, nil); hdr.Get(HeaderEdge) != "hit" {
			t.Fatalf("GET %s after the refine missed the cache", u)
		}
	}
}

// TestSessionCookieReadYourWrites proves the header-less client contract:
// a client that only replays its cookie jar gets read-your-writes through
// a lagging follower, and floors for different cities merge into one
// cookie.
func TestSessionCookieReadYourWrites(t *testing.T) {
	_, pts := newPrimary(t)
	_, fts := newFollower(t, pts.URL)
	cities := rtTestCities(t)
	key := cityKeyOf(cities[0])

	rt, rts := newRouter(t, Options{Topology: singleShard(fts.URL, pts.URL), ShedLag: -1})
	rt.Poll()

	// A cookie-less mutation: the ack sets gt-session.
	var g createdGroup
	hdr := doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(cities[0]), nil, http.StatusCreated, &g)
	ck := sessionCookieOf(t, hdr)
	if ck != key+":1" {
		t.Fatalf("gt-session = %q, want %q", ck, key+":1")
	}

	// Replaying the cookie pins the read past the lagging follower.
	url := fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, key, g.ID)
	withCookie := cookieCarrier(ck)
	hdr = doJSON(t, "GET", url, nil, withCookie, http.StatusOK, nil)
	if hdr.Get(HeaderBackend) != pts.URL {
		t.Fatalf("cookie-carrying read served by %q, want primary %q", hdr.Get(HeaderBackend), pts.URL)
	}
	if rt.ctr.readsPinned.Value() == 0 {
		t.Fatal("cookie floor did not pin the read")
	}
	// Without the cookie the same read is token-less: the lagging
	// follower's honest 404.
	if _, err := tryDoJSON("GET", url, nil, nil, http.StatusNotFound, nil); err != nil {
		t.Fatal(err)
	}

	// A write in a second city merges into the same cookie.
	key2 := cityKeyOf(cities[1])
	hdr = doJSON(t, "POST", rts.URL+"/cities/"+key2+"/groups", groupBody(cities[1]), withCookie, http.StatusCreated, nil)
	merged := sessionCookieOf(t, hdr)
	if cookieFloor(merged, key) != 1 || cookieFloor(merged, key2) != 1 {
		t.Fatalf("merged cookie %q lost a city floor", merged)
	}
}

// --- coalescing and the route guard, against an instrumented backend ---

// TestEdgeCacheCoalescesConcurrentMisses: N concurrent misses on one key
// cost exactly one upstream request — the singleflight leader's — and
// every waiter still gets the full body.
func TestEdgeCacheCoalescesConcurrentMisses(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	gate := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-gate
		w.Header().Set(server.HeaderAppliedSeq, "1")
		_, _ = w.Write([]byte(`{"hot":true}`))
	}))
	t.Cleanup(backend.Close)
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	})

	rt, rts := newRouter(t, Options{Topology: singleShard(backend.URL), EdgeCache: true})

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(rts.URL + "/cities/ville/groups/1")
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || string(body) != `{"hot":true}` {
				errs <- fmt.Errorf("got %d %q", resp.StatusCode, body)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the herd pile up behind the gate
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("herd of %d cost %d upstream requests, want 1", n, calls)
	}
	// Every non-leader either rode the fill (coalesced) or arrived after
	// it finished (hit); nobody paid a second hop.
	if got := rt.ctr.edgeCoalesced.Value() + rt.ctr.edgeHits.Value(); got != n-1 {
		t.Fatalf("coalesced+hits = %d, want %d", got, n-1)
	}
}

// TestEdgeCacheRouteGuard: the replication stream, live gauges, streamed
// responses, and oversized query strings bypass the cache entirely —
// every request reaches the backend even with the cache on and the
// responses stamped cacheable.
func TestEdgeCacheRouteGuard(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls[r.URL.Path]++
		mu.Unlock()
		w.Header().Set(server.HeaderAppliedSeq, "1")
		_, _ = w.Write([]byte("ok"))
	}))
	t.Cleanup(backend.Close)

	_, rts := newRouter(t, Options{Topology: singleShard(backend.URL), EdgeCache: true})

	long := make([]byte, maxEdgeKeyQuery+1)
	for i := range long {
		long[i] = 'z'
	}
	uncacheable := []string{
		"/cities/ville/wal",
		"/cities/ville/metrics",
		"/cities/ville/healthz",
		"/cities/ville/groups/1?q=" + string(long),
	}
	for _, path := range uncacheable {
		for i := 0; i < 2; i++ {
			resp, err := http.Get(rts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			drainBody(resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %d", path, resp.StatusCode)
			}
			if resp.Header.Get(HeaderEdge) != "" {
				t.Fatalf("GET %s served from the edge cache", path)
			}
		}
	}
	// Control: a cacheable route collapses to one upstream request.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(rts.URL + "/cities/ville/groups/1")
		if err != nil {
			t.Fatal(err)
		}
		drainBody(resp)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls["/cities/ville/wal"] != 2 || calls["/cities/ville/metrics"] != 2 || calls["/cities/ville/healthz"] != 2 {
		t.Fatalf("guarded routes were cached: %v", calls)
	}
	// The query-guarded variant shares the path with the control: 2
	// guarded requests plus exactly 1 control fill.
	if calls["/cities/ville/groups/1"] != 3 {
		t.Fatalf("query-guarded requests were cached (or control was not): %v", calls)
	}
}

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
