package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"grouptravel/internal/dataset"
	"grouptravel/internal/poi"
	"grouptravel/internal/server"
)

// The router is tested against real internal/server backends over real
// HTTP — primaries, log-shipping followers (driven manually so lag is
// deterministic), and the router in front — the same stack production
// runs, shrunk to httptest listeners.

var (
	rtOnce   sync.Once
	rtCities []*dataset.City
)

// rtTestCities generates the shared city fixtures once.
func rtTestCities(t testing.TB) []*dataset.City {
	t.Helper()
	rtOnce.Do(func() {
		for i, name := range []string{"Rhodes", "Smyrna"} {
			c, err := dataset.Generate(dataset.TestSpec(name, int64(90+i)))
			if err != nil {
				panic(err)
			}
			rtCities = append(rtCities, c)
		}
	})
	return rtCities
}

func cityKeyOf(c *dataset.City) string { return strings.ToLower(c.Name) }

// newPrimary boots a primary backend over the shared cities.
func newPrimary(t testing.TB) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.NewMultiCity(server.Options{Cities: rtTestCities(t), SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newFollower boots a manually-synced follower of the given primary.
func newFollower(t testing.TB, primaryURL string) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.NewMultiCity(server.Options{
		Cities: rtTestCities(t), SnapshotDir: t.TempDir(),
		Follow: primaryURL, FollowPoll: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// syncAll drains every city on a follower.
func syncAll(t testing.TB, f *server.Server) {
	t.Helper()
	if err := f.Follower().CatchUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// newRouter builds a manually-polled router over one shard per node set.
func newRouter(t testing.TB, opts Options) (*Router, *httptest.Server) {
	t.Helper()
	if opts.PollInterval == 0 {
		opts.PollInterval = -1 // tests poll deterministically
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func singleShard(nodes ...string) *Topology {
	return &Topology{Shards: []Shard{{Name: "s1", Nodes: nodes}}}
}

// groupBody builds a 3-member group-create body for a city's schema.
func groupBody(c *dataset.City) map[string]any {
	var members []map[string][]float64
	for m := 0; m < 3; m++ {
		member := map[string][]float64{}
		for _, cat := range poi.Categories {
			dim := c.Schema.Dim(cat)
			v := make([]float64, dim)
			for j := range v {
				v[j] = float64((j + m) % 6)
			}
			member[cat.String()] = v
		}
		members = append(members, member)
	}
	return map[string]any{"members": members}
}

// doJSON sends one request with optional headers, asserting the status
// and decoding the body; it returns the response headers.
func doJSON(t testing.TB, method, url string, body any, hdr map[string]string, wantStatus int, out any) http.Header {
	t.Helper()
	h, err := tryDoJSON(method, url, body, hdr, wantStatus, out)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func tryDoJSON(method, url string, body any, hdr map[string]string, wantStatus int, out any) (http.Header, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != wantStatus {
		return resp.Header, fmt.Errorf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.Header, fmt.Errorf("decode %s: %w", url, err)
		}
	}
	return resp.Header, nil
}

// cookieValue extracts the gt-session value a routed mutation response
// set ("" when absent).
func cookieValue(hdr http.Header) string {
	for _, ck := range (&http.Response{Header: hdr}).Cookies() {
		if ck.Name == SessionCookie {
			return ck.Value
		}
	}
	return ""
}

// sessionCookieOf is cookieValue for the test goroutine: a missing
// cookie fails the test.
func sessionCookieOf(t testing.TB, hdr http.Header) string {
	t.Helper()
	v := cookieValue(hdr)
	if v == "" {
		t.Fatalf("no %s cookie in %v", SessionCookie, hdr)
	}
	return v
}

// cookieCarrier is the request headers of a client replaying its
// gt-session cookie — the browser-shaped read-your-writes carrier.
func cookieCarrier(value string) map[string]string {
	return map[string]string{"Cookie": SessionCookie + "=" + value}
}

// minSeqCarrier is the request headers of a client echoing a commit
// token back as an explicit X-GT-Min-Seq floor.
func minSeqCarrier(seq int64) map[string]string {
	return map[string]string{HeaderMinSeq: fmt.Sprint(seq)}
}

type createdGroup struct {
	ID   int   `json:"id"`
	Size int   `json:"size"`
	Seq  int64 `json:"seq"`
}

// TestMutationRetriedAtPrimaryOn403: the router's primary view is stale
// (nothing polled, first listed node is a follower) — the follower's 403
// must be converted into a transparent retry at the node its
// X-GT-Primary hint names, and the client sees only the 201.
func TestMutationRetriedAtPrimaryOn403(t *testing.T) {
	_, pts := newPrimary(t)
	_, fts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)

	// Follower listed first and never polled: the router's first guess at
	// the primary is wrong by construction.
	rt, rts := newRouter(t, Options{Topology: singleShard(fts.URL, pts.URL)})

	var g createdGroup
	hdr := doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusCreated, &g)
	if g.Seq <= 0 {
		t.Fatalf("mutation response carries no commit token: %+v", g)
	}
	if got := hdr.Get(HeaderSeq); got == "" {
		t.Fatal("X-GT-Seq missing from routed mutation response")
	}
	if got := hdr.Get(HeaderBackend); got != pts.URL {
		t.Fatalf("mutation served by %q, want primary %q", got, pts.URL)
	}
	if n := rt.ctr.mutationRetries403.Value(); n != 1 {
		t.Fatalf("mutationRetries403 = %d, want 1", n)
	}
}

// TestDenied403RelayedWithHintIntact: when the hinted primary is down,
// the follower's 403 must reach the client unmodified — X-GT-Primary
// header included — so the client can act on the hint itself.
func TestDenied403RelayedWithHintIntact(t *testing.T) {
	_, pts := newPrimary(t)
	_, fts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)

	_, rts := newRouter(t, Options{Topology: singleShard(fts.URL, pts.URL)})
	pts.Close() // the primary dies before the mutation arrives

	hdr, err := tryDoJSON("POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusForbidden, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := hdr.Get(HeaderPrimary); got != pts.URL {
		t.Fatalf("relayed 403 lost its X-GT-Primary hint: %q, want %q", got, pts.URL)
	}
}

// TestRefusedWriteRelays503: the primary's log is closed, so it refuses
// the write with a 503 and installs nothing; the follower the router
// tries next answers 403, pointing back at that primary. The client gets
// the 503 — not a 403 sending it to the node that just refused — and,
// since nothing committed, no gt-session cookie, while the city's edge
// commit floor stays where the last real commit put it.
func TestRefusedWriteRelays503(t *testing.T) {
	psrv, pts := newPrimary(t)
	_, fts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)
	rt, rts := newRouter(t, Options{Topology: singleShard(pts.URL, fts.URL), EdgeCache: true})
	rt.Poll()

	var g createdGroup
	doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusCreated, &g)
	psrv.Close() // closes every loaded city's log: the next append fails
	hdr := doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusServiceUnavailable, nil)
	if v := cookieValue(hdr); v != "" {
		t.Fatalf("refused write set %s=%q", SessionCookie, v)
	}
	if hdr.Get(HeaderSeq) != "" || hdr.Get(HeaderBackend) != pts.URL {
		t.Fatalf("relayed refusal: X-GT-Seq %q from %q, want none from the primary %q",
			hdr.Get(HeaderSeq), hdr.Get(HeaderBackend), pts.URL)
	}
	if f := rt.edge.floor(key); f != g.Seq {
		t.Fatalf("commit floor after the refused write = %d, want %d", f, g.Seq)
	}
}

// TestSessionPinningRoutesAroundLag is the read-your-writes core: with a
// lagging follower, a read-back replaying the write's gt-session cookie
// goes to the primary; once the follower catches up (and the health feed
// sees it), the same cookie's reads move to the follower. A token-less
// read meanwhile gets follower fan-out — including its honest 404 for an
// entity the follower has not applied yet.
func TestSessionPinningRoutesAroundLag(t *testing.T) {
	_, pts := newPrimary(t)
	fsrv, fts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)

	rt, rts := newRouter(t, Options{Topology: singleShard(pts.URL, fts.URL), ShedLag: -1})
	rt.Poll() // discover roles while both are empty

	var g createdGroup
	hdr := doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusCreated, &g)
	sid := cookieCarrier(sessionCookieOf(t, hdr))

	// The follower has not synced: a pinned read must be redirected to
	// the primary and see the write.
	var got createdGroup
	hdr = doJSON(t, "GET", fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, key, g.ID), nil, sid, http.StatusOK, &got)
	if got.Size != 3 {
		t.Fatalf("pinned read-back = %+v", got)
	}
	if backend := hdr.Get(HeaderBackend); backend != pts.URL {
		t.Fatalf("pinned read served by %q while follower lags, want primary %q", backend, pts.URL)
	}

	// A token-less read of the same id fans out to the follower and gets
	// the honest 404 — eventual consistency is the token-less contract.
	rt.Poll() // follower is healthy, role known, still at seq 0
	hdr, err := tryDoJSON("GET", fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, key, g.ID), nil, nil, http.StatusNotFound, nil)
	if err != nil {
		t.Fatal(err)
	}
	if backend := hdr.Get(HeaderBackend); backend != fts.URL {
		t.Fatalf("token-less read served by %q, want follower %q", backend, fts.URL)
	}

	// Follower catches up, the feed notices, and the pinned cookie's
	// reads move off the primary.
	syncAll(t, fsrv)
	rt.Poll()
	hdr = doJSON(t, "GET", fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, key, g.ID), nil, sid, http.StatusOK, &got)
	if backend := hdr.Get(HeaderBackend); backend != fts.URL {
		t.Fatalf("caught-up pinned read served by %q, want follower %q", backend, fts.URL)
	}
	if n := rt.ctr.readsPinned.Value(); n < 2 {
		t.Fatalf("readsPinned = %d, want >= 2", n)
	}
	if rt.ctr.readsPrimary.Value() == 0 || rt.ctr.readsFollower.Value() == 0 {
		t.Fatalf("counters did not see both roles: primary=%d follower=%d",
			rt.ctr.readsPrimary.Value(), rt.ctr.readsFollower.Value())
	}
}

// TestLagShedding: a follower lagging beyond ShedLag is shed from
// token-less reads — they go to the primary instead of a deeply stale
// replica.
func TestLagShedding(t *testing.T) {
	_, pts := newPrimary(t)
	_, fts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)

	rt, rts := newRouter(t, Options{Topology: singleShard(pts.URL, fts.URL), ShedLag: 1})
	rt.Poll()

	// Two un-synced mutations: the follower now lags by 2 > ShedLag 1.
	var g createdGroup
	doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusCreated, &g)
	doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusCreated, nil)
	rt.Poll()

	hdr := doJSON(t, "GET", fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, key, g.ID), nil, nil, http.StatusOK, nil)
	if backend := hdr.Get(HeaderBackend); backend != pts.URL {
		t.Fatalf("token-less read served by shed follower %q", backend)
	}
	if rt.ctr.followersShed.Value() == 0 {
		t.Fatal("followersShed counter never moved")
	}
}

// TestReadFailoverOnDeadFollower: a follower dying between health polls
// costs a failover, not an error — the read lands on the next candidate.
func TestReadFailoverOnDeadFollower(t *testing.T) {
	_, pts := newPrimary(t)
	fsrv, fts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)

	rt, rts := newRouter(t, Options{Topology: singleShard(pts.URL, fts.URL), ShedLag: -1})
	var g createdGroup
	doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusCreated, &g)
	syncAll(t, fsrv)
	rt.Poll()

	// The follower dies right after a healthy poll: the router still
	// believes in it.
	fts.Close()
	hdr := doJSON(t, "GET", fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, key, g.ID), nil, nil, http.StatusOK, nil)
	if backend := hdr.Get(HeaderBackend); backend != pts.URL {
		t.Fatalf("read after follower death served by %q, want primary fallback", backend)
	}
	if rt.ctr.readFailovers.Value() == 0 {
		t.Fatal("readFailovers counter never moved")
	}
}

// TestMutationNotRetriedAfterAmbiguousFailure: a mutation whose
// connection dies mid-flight (after the request may have reached the
// backend) must NOT be re-sent anywhere — the backend may have
// committed, and a silent double-apply is worse than a 502. Only dial
// failures (the request provably never left) may fail over.
func TestMutationNotRetriedAfterAmbiguousFailure(t *testing.T) {
	// First node accepts the connection, then kills it mid-request.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(broken.Close)
	// Second node counts what reaches it; anything > 0 is a double-send.
	var reached int32
	counter := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		reached++
		w.WriteHeader(http.StatusCreated)
	}))
	t.Cleanup(counter.Close)

	_, rts := newRouter(t, Options{Topology: singleShard(broken.URL, counter.URL)})
	if _, err := tryDoJSON("POST", rts.URL+"/cities/ville/groups", map[string]any{}, nil, http.StatusBadGateway, nil); err != nil {
		t.Fatal(err)
	}
	if reached != 0 {
		t.Fatalf("ambiguous mutation failure was retried: second node saw %d requests", reached)
	}
}

// TestMutationFailsOverToPromotedNode: the primary dies and a follower
// late in the node list is promoted, all between health polls. The
// mutation must walk past the corpse AND past an unpromoted follower
// (whose 403 hints at the dead primary) to reach the promoted node —
// the shard has a writable node, so the client must not see the 403.
func TestMutationFailsOverToPromotedNode(t *testing.T) {
	_, pts := newPrimary(t)
	_, f1ts := newFollower(t, pts.URL)
	f2srv, f2ts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)

	rt, rts := newRouter(t, Options{Topology: singleShard(pts.URL, f1ts.URL, f2ts.URL)})
	rt.Poll() // stale view: pts primary, f1/f2 followers

	if err := f2srv.Promote(); err != nil {
		t.Fatal(err)
	}
	pts.Close()

	var g createdGroup
	hdr := doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusCreated, &g)
	if backend := hdr.Get(HeaderBackend); backend != f2ts.URL {
		t.Fatalf("mutation served by %q, want promoted node %q", backend, f2ts.URL)
	}
	if rt.ctr.mutationFailovers.Value() == 0 {
		t.Fatal("mutationFailovers never moved despite the dead primary")
	}
}

// TestCitiesAggregation: the router's GET /cities merges each shard's
// rows, keeps only the keys the ring routes to that shard, and reports
// every key exactly once with its shard annotation.
func TestCitiesAggregation(t *testing.T) {
	// Two single-node shards over the same city set: both backends *can*
	// serve every city, the ring decides who *does*.
	_, ts1 := newPrimary(t)
	_, ts2 := newPrimary(t)
	topo := &Topology{Shards: []Shard{
		{Name: "s1", Nodes: []string{ts1.URL}},
		{Name: "s2", Nodes: []string{ts2.URL}},
	}}
	rt, rts := newRouter(t, Options{Topology: topo})
	rt.Poll()

	var rows []routedCity
	doJSON(t, "GET", rts.URL+"/cities", nil, nil, http.StatusOK, &rows)
	if len(rows) != len(rtTestCities(t)) {
		t.Fatalf("aggregated %d rows, want %d: %+v", len(rows), len(rtTestCities(t)), rows)
	}
	seen := map[string]bool{}
	for _, row := range rows {
		if seen[row.Key] {
			t.Fatalf("key %q listed twice", row.Key)
		}
		seen[row.Key] = true
		if want := rt.Ring().Shard(row.Key); row.Shard != want {
			t.Fatalf("key %q annotated shard %q, ring says %q", row.Key, row.Shard, want)
		}
	}
}

// TestWireHeadersMatchServer pins the cross-tier protocol: the router
// deliberately redeclares the commit-token headers (importing the whole
// serving stack for three strings would couple the tiers), so this test
// is what keeps the two declarations from drifting apart silently.
func TestWireHeadersMatchServer(t *testing.T) {
	if HeaderSeq != server.HeaderSeq || HeaderCity != server.HeaderCity || HeaderPrimary != server.HeaderPrimary {
		t.Fatalf("router wire headers drifted from internal/server: %q/%q/%q vs %q/%q/%q",
			HeaderSeq, HeaderCity, HeaderPrimary, server.HeaderSeq, server.HeaderCity, server.HeaderPrimary)
	}
	if HeaderAppliedSeq != server.HeaderAppliedSeq {
		t.Fatalf("applied-seq header drifted: router %q vs server %q", HeaderAppliedSeq, server.HeaderAppliedSeq)
	}
}

// TestPinnedReadNeverServedStale: when the primary becomes unreachable,
// a pinned read whose floor no follower reaches must FAIL — an honest
// 502/503 — never silently serve pre-write state from a lagging replica.
// Two shapes of the hazard:
//
//  1. The discovered primary dies: discovery keeps preferring the
//     stale-but-writable view over a known follower, so the pinned read
//     exhausts its candidates against the corpse and 502s.
//  2. Discovery's only possible guess IS a known follower (follower-only
//     shard): a pinned read whose floor it cannot prove drops it from
//     the candidate list entirely and 503s.
func TestPinnedReadNeverServedStale(t *testing.T) {
	_, pts := newPrimary(t)
	_, f1ts := newFollower(t, pts.URL)
	_, f2ts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)

	// Shape 1: primary identified, then dead.
	rt1, rts1 := newRouter(t, Options{Topology: singleShard(f1ts.URL, pts.URL), ShedLag: -1})
	rt1.Poll()
	var g createdGroup
	hdr := doJSON(t, "POST", rts1.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusCreated, &g)
	sid := cookieCarrier(sessionCookieOf(t, hdr))
	pts.Close()
	rt1.Poll()
	if _, err := tryDoJSON("GET", fmt.Sprintf("%s/cities/%s/groups/%d", rts1.URL, key, g.ID), nil, sid, http.StatusBadGateway, nil); err != nil {
		t.Fatal(err)
	}

	// Shape 2: a shard of only followers — the fallback guess is a node
	// known to be a follower, which provably cannot satisfy the floor.
	rt2, rts2 := newRouter(t, Options{Topology: singleShard(f2ts.URL), ShedLag: -1})
	rt2.Poll()
	if _, err := tryDoJSON("GET", fmt.Sprintf("%s/cities/%s/groups/%d", rts2.URL, key, g.ID), nil, minSeqCarrier(99), http.StatusServiceUnavailable, nil); err != nil {
		t.Fatal(err)
	}
	// The same shard still serves token-less reads from the follower.
	hdr, err := tryDoJSON("GET", rts2.URL+"/cities/"+key, nil, nil, http.StatusOK, nil)
	if err != nil {
		t.Fatal(err)
	}
	if backend := hdr.Get(HeaderBackend); backend != f2ts.URL {
		t.Fatalf("token-less read served by %q, want follower %q", backend, f2ts.URL)
	}
}

// TestReadYourWritesAcrossTwoRouters is the fleet case: a client writes
// through router A and reads back through router B, which never saw the
// write and polled the shard before it committed. The floor travels with
// the request — the gt-session cookie A set, or the commit token echoed
// as X-GT-Min-Seq — so B pins the read past the lagging follower (and
// past its own warm-but-stale edge view) exactly as A would have.
func TestReadYourWritesAcrossTwoRouters(t *testing.T) {
	_, pts := newPrimary(t)
	_, fts := newFollower(t, pts.URL) // never synced: lags every write
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)

	rtA, rtsA := newRouter(t, Options{Topology: singleShard(fts.URL, pts.URL), ShedLag: -1})
	rtB, rtsB := newRouter(t, Options{Topology: singleShard(fts.URL, pts.URL), ShedLag: -1, EdgeCache: true})
	rtA.Poll()

	carriers := []struct {
		name  string
		carry func(hdr http.Header, g createdGroup) map[string]string
	}{
		{"cookie", func(hdr http.Header, _ createdGroup) map[string]string {
			return cookieCarrier(sessionCookieOf(t, hdr))
		}},
		{"min-seq", func(_ http.Header, g createdGroup) map[string]string {
			return minSeqCarrier(g.Seq)
		}},
	}
	for i, c := range carriers {
		rtB.Poll() // B's view predates the write
		var g createdGroup
		hdr := doJSON(t, "POST", rtsA.URL+"/cities/"+key+"/groups", groupBody(city), nil, http.StatusCreated, &g)
		url := fmt.Sprintf("%s/cities/%s/groups/%d", rtsB.URL, key, g.ID)

		// Control: without a floor, B serves the lagging follower's 404 —
		// the pre-write state a floor-less read-back would observe.
		if _, err := tryDoJSON("GET", url, nil, nil, http.StatusNotFound, nil); err != nil {
			t.Fatalf("%s: token-less control: %v", c.name, err)
		}
		var got createdGroup
		hdr, err := tryDoJSON("GET", url, nil, c.carry(hdr, g), http.StatusOK, &got)
		if err != nil {
			t.Fatalf("%s: read-back through router B observed pre-write state: %v", c.name, err)
		}
		if got.Size != 3 || hdr.Get(HeaderBackend) != pts.URL {
			t.Fatalf("%s: read-back %+v served by %q, want the group from primary %q", c.name, got, hdr.Get(HeaderBackend), pts.URL)
		}
		if n := rtB.ctr.readsPinned.Value(); n != int64(i+1) {
			t.Fatalf("%s: router B readsPinned = %d, want %d", c.name, n, i+1)
		}
	}
}

// TestTopologyValidation covers the file-format guard rails.
func TestTopologyValidation(t *testing.T) {
	bad := []Topology{
		{},
		{Shards: []Shard{{Name: "", Nodes: []string{"http://a"}}}},
		{Shards: []Shard{{Name: "a", Nodes: nil}}},
		{Shards: []Shard{{Name: "a", Nodes: []string{"http://a"}}, {Name: "a", Nodes: []string{"http://b"}}}},
		{Shards: []Shard{{Name: "a", Nodes: []string{"http://a", "http://a/"}}}},
	}
	for i, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Fatalf("bad topology %d accepted", i)
		}
	}
	good := Topology{Shards: []Shard{{Name: "a", Nodes: []string{"http://a/"}}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Shards[0].Nodes[0] != "http://a" {
		t.Fatalf("node URL not normalized: %q", good.Shards[0].Nodes[0])
	}
}
