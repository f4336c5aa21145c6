package router

import (
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"grouptravel/internal/server"
)

// The split-brain chaos test: partition a primary away from the router,
// let the failover lease expire, and verify the full epoch story — the
// freshest follower is auto-promoted, the healed old primary is fenced
// before it can accept a single post-epoch write, and it rejoins as a
// follower of the new primary converging to byte-equal state.

// partitionProxy fronts a backend with a switchable partition: while
// cut, every request answers 503 without touching the backend — the
// router sees a dead node, the node itself keeps running (and keeps
// believing it is primary), which is exactly the split-brain setup.
func partitionProxy(t *testing.T, backend *httptest.Server) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	bu, err := url.Parse(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(bu)
	var cut atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cut.Load() {
			http.Error(w, "partitioned", http.StatusServiceUnavailable)
			return
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	return proxy, &cut
}

func TestAutoFailoverFencesDeposedPrimary(t *testing.T) {
	cities := rtTestCities(t)
	key := cityKeyOf(cities[0])
	aDir := t.TempDir()

	// Primary A behind the partitionable proxy — the proxy URL is where
	// the fleet reaches it.
	a, err := server.NewMultiCity(server.Options{Cities: cities, SnapshotDir: aDir})
	if err != nil {
		t.Fatal(err)
	}
	ats := httptest.NewServer(a.Handler())
	proxy, cut := partitionProxy(t, ats)

	// Follower B, advertising its own URL (what the fencing hint and the
	// router's epoch-owner match resolve to after promotion).
	bts := httptest.NewServer(nil)
	b, err := server.NewMultiCity(server.Options{
		Cities: cities, SnapshotDir: t.TempDir(),
		Follow: proxy.URL, FollowPoll: -1, Advertise: bts.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	bts.Config.Handler = b.Handler()
	t.Cleanup(bts.Close)
	t.Cleanup(b.Close)

	rt, rts := newRouter(t, Options{
		Topology: singleShard(proxy.URL, bts.URL),
		Failover: 10 * time.Millisecond,
	})
	rt.Poll()

	// A pre-partition write lands on A and replicates to B.
	var g1 createdGroup
	hdr := doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(cities[0]), nil, http.StatusCreated, &g1)
	if got := hdr.Get(HeaderBackend); got != proxy.URL {
		t.Fatalf("pre-partition write served by %q, want primary %q", got, proxy.URL)
	}
	syncAll(t, b)
	aHeadBefore := cityHeads(t, proxy.URL)[key]
	if aHeadBefore == 0 {
		t.Fatal("primary head is 0 after a write")
	}

	// Partition. The first poll starts the lease clock; after the lease,
	// the next poll promotes B.
	cut.Store(true)
	rt.Poll()
	if n := rt.ctr.autoPromotions.Value(); n != 0 {
		t.Fatalf("promoted before the lease expired (%d)", n)
	}
	time.Sleep(20 * time.Millisecond)
	rt.Poll()
	if n := rt.ctr.autoPromotions.Value(); n != 1 {
		t.Fatalf("autoPromotions = %d, want 1", n)
	}
	if role := b.Role(); role != "promoted" {
		t.Fatalf("B role = %q, want promoted", role)
	}
	if term, owner := b.Epoch(); term != 1 || owner != bts.URL {
		t.Fatalf("B epoch = %d/%q, want 1/%q", term, owner, bts.URL)
	}

	// Post-epoch writes route to B without a manual topology change.
	var g2 createdGroup
	hdr = doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(cities[0]), nil, http.StatusCreated, &g2)
	if got := hdr.Get(HeaderBackend); got != bts.URL {
		t.Fatalf("post-failover write served by %q, want %q", got, bts.URL)
	}

	// Heal. The very next poll relays term 1 at A, fencing it before any
	// client write can reach it through the fleet.
	cut.Store(false)
	rt.Poll()
	if role := a.Role(); role != "fenced" {
		t.Fatalf("healed old primary role = %q, want fenced", role)
	}

	// The deposed primary rejects every post-epoch write, pointing at B.
	rh, err2 := tryDoJSON("POST", proxy.URL+"/cities/"+key+"/groups", groupBody(cities[0]), nil, http.StatusForbidden, nil)
	if err2 != nil {
		t.Fatal(err2)
	}
	if got := rh.Get(HeaderPrimary); got != bts.URL {
		t.Fatalf("fenced 403 hint = %q, want %q", got, bts.URL)
	}
	// And it applied nothing while deposed: its head never moved.
	if h := cityHeads(t, proxy.URL)[key]; h != aHeadBefore {
		t.Fatalf("deposed primary's head moved %d -> %d (unreplicated writes!)", aHeadBefore, h)
	}

	// Writes routed through the router still land on B (A is fenced, not
	// resurrected as primary).
	doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(cities[0]), nil, http.StatusCreated, nil)

	// Rejoin: restart A's state directory as a follower of B. It must
	// catch up past the failover and converge to B's exact state.
	ats.Close()
	a.Close()
	a2, err := server.NewMultiCity(server.Options{
		Cities: cities, SnapshotDir: aDir,
		Follow: bts.URL, FollowPoll: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a2.Close)
	a2ts := httptest.NewServer(a2.Handler())
	t.Cleanup(a2ts.Close)
	if role := a2.Role(); role != "follower" {
		t.Fatalf("rejoined role = %q, want follower", role)
	}
	syncAll(t, a2)

	for _, path := range []string{
		"/cities/" + key + "/groups/" + strconv.Itoa(g1.ID),
		"/cities/" + key + "/groups/" + strconv.Itoa(g2.ID),
		"/cities",
	} {
		var want, got any
		doJSON(t, "GET", bts.URL+path, nil, nil, http.StatusOK, &want)
		doJSON(t, "GET", a2ts.URL+path, nil, nil, http.StatusOK, &got)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s diverges after rejoin:\nnew primary: %+v\nrejoined:    %+v", path, want, got)
		}
	}
}

// cityHeads reads a node's per-city applied heads off its /cities.
func cityHeads(t *testing.T, base string) map[string]int64 {
	t.Helper()
	var rows []nodeCityRow
	doJSON(t, "GET", base+"/cities", nil, nil, http.StatusOK, &rows)
	heads := make(map[string]int64, len(rows))
	for _, r := range rows {
		heads[r.Key] = r.AppliedSeq
	}
	return heads
}

// TestRouterTopologyReload: swapping a shard's node set online (same
// shard name, new backend) must route subsequent traffic to the new
// node — no restart, in-flight state (edge cache, counters) intact.
func TestRouterTopologyReload(t *testing.T) {
	cities := rtTestCities(t)
	key := cityKeyOf(cities[0])
	_, p1ts := newPrimary(t)
	_, p2ts := newPrimary(t)

	rt, rts := newRouter(t, Options{Topology: singleShard(p1ts.URL)})
	rt.Poll()

	hdr := doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(cities[0]), nil, http.StatusCreated, nil)
	if got := hdr.Get(HeaderBackend); got != p1ts.URL {
		t.Fatalf("pre-reload write served by %q, want %q", got, p1ts.URL)
	}

	if err := rt.Reload(singleShard(p2ts.URL)); err != nil {
		t.Fatal(err)
	}
	rt.Poll()

	hdr = doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(cities[0]), nil, http.StatusCreated, nil)
	if got := hdr.Get(HeaderBackend); got != p2ts.URL {
		t.Fatalf("post-reload write served by %q, want %q", got, p2ts.URL)
	}

	// An invalid topology is rejected and the live one keeps serving.
	if err := rt.Reload(&Topology{}); err == nil {
		t.Fatal("empty topology accepted")
	}
	doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(cities[0]), nil, http.StatusCreated, nil)
}
