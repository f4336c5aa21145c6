package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grouptravel/internal/dataset"
	"grouptravel/internal/store"
)

// The replication correctness harness: a primary and an in-process
// follower, driven over HTTP exactly like production, with the follower's
// tailers under manual control (FollowPoll < 0) so every test can
// interleave syncs, kills, compactions and corruption deterministically —
// and still run the whole thing under -race via `make race`.

// replicationPair builds a primary over the shared multi-city data
// directory and a follower replicating from it. Both servers are handed
// the same *dataset.City objects, so POI and schema pointers coincide and
// reflect.DeepEqual between their states is exact (the same trick
// TestCrashEquivalence uses).
func replicationPair(t *testing.T, primaryOpts, followerOpts Options) (primary *Server, pts *httptest.Server, follower *Server, fts *httptest.Server) {
	t.Helper()
	multiCityDataDir(t) // ensure mcCities exist
	primaryOpts.Cities = mcCities
	p, err := NewMultiCity(primaryOpts)
	if err != nil {
		t.Fatal(err)
	}
	pts = httptest.NewServer(p.Handler())
	t.Cleanup(pts.Close)
	f, fts := followerFor(t, pts.URL, followerOpts)
	return p, pts, f, fts
}

// followerFor builds (or restarts) a follower against a primary URL.
func followerFor(t *testing.T, primaryURL string, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.Cities = mcCities
	opts.Follow = primaryURL
	if opts.FollowPoll == 0 {
		opts.FollowPoll = -1 // manual syncs unless a test wants tailers
	}
	f, err := NewMultiCity(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	fts := httptest.NewServer(f.Handler())
	t.Cleanup(fts.Close)
	return f, fts
}

// mutator drives one city's randomized workload over HTTP: group
// creations, package builds (half of them weighted), all four
// customization ops, and refine rebuilds, with the ids it has created so
// far as the op targets.
type mutator struct {
	ts   *httptest.Server
	city *dataset.City
	key  string
	rng  *rand.Rand

	groups   []int
	packages []int
}

func (m *mutator) base() string { return m.ts.URL + "/cities/" + m.key }

func (m *mutator) step(t testing.TB) {
	switch k := m.rng.Intn(10); {
	case k < 2 || len(m.groups) == 0: // create a group
		gid, err := mcCreateGroup(m.ts, m.city, m.key)
		if err != nil {
			t.Error(err)
			return
		}
		m.groups = append(m.groups, gid)
	case k < 5 || len(m.packages) == 0: // build a package, weighted or not
		gid := m.groups[m.rng.Intn(len(m.groups))]
		var pkg packageResponse
		if err := tryJSON(m.ts, "POST", m.base()+"/packages", createPackageRequest{
			GroupID: gid, Consensus: []string{"pairwise", "avg", "leastmisery"}[m.rng.Intn(3)], K: 2 + m.rng.Intn(2),
			Weights: [][]float64{nil, {2, 0, 1}}[m.rng.Intn(2)],
		}, 201, &pkg); err != nil {
			t.Error(err)
			return
		}
		m.packages = append(m.packages, pkg.ID)
	case k < 9: // customization op
		pid := m.packages[m.rng.Intn(len(m.packages))]
		var cur packageResponse
		if err := tryJSON(m.ts, "GET", fmt.Sprintf("%s/packages/%d", m.base(), pid), nil, 200, &cur); err != nil {
			t.Error(err)
			return
		}
		ci := m.rng.Intn(len(cur.Days))
		op := opRequest{Member: m.rng.Intn(3), CI: ci}
		switch m.rng.Intn(4) {
		case 0:
			op.Op = "remove"
			if len(cur.Days[ci].Items) == 0 {
				return
			}
			op.POI = cur.Days[ci].Items[m.rng.Intn(len(cur.Days[ci].Items))].ID
		case 1:
			op.Op = "add"
			op.POI = m.city.POIs.All()[m.rng.Intn(m.city.POIs.Len())].ID
		case 2:
			op.Op = "replace"
			if len(cur.Days[ci].Items) == 0 {
				return
			}
			op.POI = cur.Days[ci].Items[m.rng.Intn(len(cur.Days[ci].Items))].ID
		case 3:
			op.Op = "generate"
			bounds := m.city.POIs.Bounds()
			op.Rect = &bounds
		}
		// Ops can legitimately fail (422: removing from a 1-item CI, adding
		// a duplicate); anything else is a test failure.
		url := fmt.Sprintf("%s/packages/%d/ops", m.base(), pid)
		if err := tryJSON(m.ts, "POST", url, op, 200, nil); err != nil && !strings.Contains(err.Error(), "status 422") {
			t.Error(err)
		}
	default: // refine with rebuild
		pid := m.packages[m.rng.Intn(len(m.packages))]
		var ref refineResponse
		if err := tryJSON(m.ts, "POST", fmt.Sprintf("%s/packages/%d/refine", m.base(), pid), refineRequest{
			Strategy: []string{"batch", "individual"}[m.rng.Intn(2)], Rebuild: true,
		}, 200, &ref); err != nil {
			t.Error(err)
			return
		}
		if ref.NewPackage != nil {
			m.packages = append(m.packages, ref.NewPackage.ID)
		}
	}
}

// assertConverged deep-equals the follower's full state against the
// primary's for every city — groups, id allocator, packages, and each
// package's customization op log.
func assertConverged(t *testing.T, primary, follower *Server, keys []string) {
	t.Helper()
	for _, key := range keys {
		want := captureState(t, primary, key)
		got := captureState(t, follower, key)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: follower state differs from primary:\nprimary: %+v\nfollower: %+v", key, want, got)
		}
	}
}

// TestReplicationConvergence is the acceptance test: a randomized,
// concurrent mutation workload across several cities on the primary,
// with the follower tailing mid-workload, must leave the follower — after
// catch-up — deep-equal to the primary in every city.
func TestReplicationConvergence(t *testing.T) {
	p, pts, f, _ := replicationPair(t,
		Options{SnapshotDir: t.TempDir()},
		Options{SnapshotDir: t.TempDir()})

	// Tail concurrently with the workload: shipping must never depend on
	// the log being quiescent.
	done := make(chan struct{})
	var tailers sync.WaitGroup
	for _, key := range mcKeys {
		tailers.Add(1)
		go func(key string) {
			defer tailers.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = f.Follower().Sync(key) // transient rotation races retry next round
					time.Sleep(time.Millisecond)
				}
			}
		}(key)
	}

	var wg sync.WaitGroup
	for ci, key := range mcKeys {
		wg.Add(1)
		go func(ci int, key string) {
			defer wg.Done()
			m := &mutator{ts: pts, city: mcCities[ci], key: key, rng: rand.New(rand.NewSource(int64(1000 + ci)))}
			for i := 0; i < 12; i++ {
				m.step(t)
			}
		}(ci, key)
	}
	wg.Wait()
	close(done)
	tailers.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if err := f.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, p, f, mcKeys)

	// Lag reports clean convergence on every city.
	for _, key := range mcKeys {
		lag, ok := f.Follower().Lag(key)
		if !ok || lag.Err != "" {
			t.Fatalf("%s lag after catch-up: %+v", key, lag)
		}
		if head := primaryHead(t, p, key); lag.AppliedSeq == 0 || lag.AppliedSeq != head {
			t.Fatalf("%s applied %d vs primary %d", key, lag.AppliedSeq, head)
		}
	}
}

// TestFollowerRestartEqualsReplication pins "replay equals replication":
// the state a follower builds by applying shipped frames must be exactly
// the state its own restart rebuilds from its own directory — both run
// every record through applyRecord — and both must equal the primary's.
// The workload runs every record kind in every city; the follower
// compacts alpha itself and the primary compacts beta while the follower
// lags, forcing a snapshot handoff; gamma stays log-only. The restart
// then recovers a snapshot plus log suffix, a handoff snapshot plus log
// suffix, and a bare log.
func TestFollowerRestartEqualsReplication(t *testing.T) {
	followerDir := t.TempDir()
	p, pts, f, _ := replicationPair(t,
		Options{SnapshotDir: t.TempDir()},
		Options{SnapshotDir: followerDir})
	muts := make([]*mutator, len(mcKeys))
	for i, key := range mcKeys {
		muts[i] = &mutator{ts: pts, city: mcCities[i], key: key, rng: rand.New(rand.NewSource(int64(500 + i)))}
	}
	round := func(steps int) {
		for _, m := range muts {
			for i := 0; i < steps; i++ {
				m.step(t)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	round(6)
	if err := f.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}
	compactCity(t, f, "alpha")
	round(6)
	compactCity(t, p, "beta")
	round(4)
	if err := f.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}
	if lag, _ := f.Follower().Lag("beta"); lag.SnapshotHandoffs == 0 {
		t.Fatalf("beta took no snapshot handoff: %+v", lag)
	}
	assertConverged(t, p, f, mcKeys)
	before := make(map[string]*store.ServerState, len(mcKeys))
	for _, key := range mcKeys {
		before[key] = captureState(t, f, key)
	}

	// Restart from the follower's own directory with no catch-up: every
	// city's state comes from its snapshot and log alone.
	f.Close()
	f2, _ := followerFor(t, pts.URL, Options{SnapshotDir: followerDir})
	assertConverged(t, p, f2, mcKeys)
	for _, key := range mcKeys {
		if got := captureState(t, f2, key); !reflect.DeepEqual(before[key], got) {
			t.Fatalf("%s: restarted follower differs from its state before the restart:\nbefore: %+v\nafter:  %+v",
				key, before[key], got)
		}
		c, err := f2.Registry().Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if h := c.State.health(); h.WAL == nil || h.WAL.ReplayTruncated != "" || h.PersistErr != "" {
			t.Fatalf("%s: restart recovery was not clean: %+v", key, h)
		}
	}
}

// TestFollowerReadsAndRejectsWrites: the follower serves the replicated
// read surface and 403s every mutation with a pointer at the primary.
func TestFollowerReadsAndRejectsWrites(t *testing.T) {
	p, pts, f, fts := replicationPair(t,
		Options{SnapshotDir: t.TempDir()},
		Options{SnapshotDir: t.TempDir()})
	gid, err := mcCreateGroup(pts, mcCities[0], "alpha")
	if err != nil {
		t.Fatal(err)
	}
	var pkg packageResponse
	if err := tryJSON(pts, "POST", pts.URL+"/cities/alpha/packages", createPackageRequest{
		GroupID: gid, Consensus: "pairwise", K: 2,
	}, 201, &pkg); err != nil {
		t.Fatal(err)
	}
	if err := f.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}

	// Reads serve the replicated copy.
	var group groupResponse
	if err := tryJSON(fts, "GET", fmt.Sprintf("%s/cities/alpha/groups/%d", fts.URL, gid), nil, 200, &group); err != nil {
		t.Fatal(err)
	}
	var read packageResponse
	if err := tryJSON(fts, "GET", fmt.Sprintf("%s/cities/alpha/packages/%d", fts.URL, pkg.ID), nil, 200, &read); err != nil {
		t.Fatal(err)
	}
	if pkgFingerprint(t, read) != pkgFingerprint(t, pkg) {
		t.Fatal("follower serves a different package than the primary built")
	}

	// Mutations are refused with the primary's address.
	resp, err := http.Post(fts.URL+"/cities/alpha/groups", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden || !strings.Contains(string(body), pts.URL) {
		t.Fatalf("follower mutation: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-GT-Primary"); got != pts.URL {
		t.Fatalf("X-GT-Primary = %q", got)
	}

	// The follower's healthz reports its role and per-city replication.
	var health healthResponse
	if err := tryJSON(fts, "GET", fts.URL+"/healthz", nil, 200, &health); err != nil {
		t.Fatal(err)
	}
	if health.Role != "follower" || health.Primary != pts.URL {
		t.Fatalf("health role=%q primary=%q", health.Role, health.Primary)
	}
	ch := health.Cities["alpha"]
	if ch.Replication == nil || ch.Replication.AppliedSeq == 0 || ch.Replication.AppliedSeq != primaryHead(t, p, "alpha") {
		t.Fatalf("replication health: %+v", ch.Replication)
	}
}

// TestFollowerKilledMidStreamResumes is the resume chaos test: a follower
// dies mid-replication; a fresh process over the same state directory
// must resume from its last durable sequence — no gap, no double-apply —
// and converge without ever needing a snapshot handoff.
func TestFollowerKilledMidStreamResumes(t *testing.T) {
	followerDir := t.TempDir()
	p, pts, f1, _ := replicationPair(t,
		Options{SnapshotDir: t.TempDir()},
		Options{SnapshotDir: followerDir})

	m := &mutator{ts: pts, city: mcCities[0], key: "alpha", rng: rand.New(rand.NewSource(7))}
	for i := 0; i < 8; i++ {
		m.step(t)
	}
	if err := f1.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}
	lag1, _ := f1.Follower().Lag("alpha")
	if lag1.AppliedSeq == 0 {
		t.Fatal("follower applied nothing before the kill")
	}
	// "Kill": f1 gets no shutdown beyond stopping its tailers; its state
	// lives only in followerDir now.
	f1.Close()

	// The primary keeps mutating while the follower is down.
	for i := 0; i < 6; i++ {
		m.step(t)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Restart: a fresh follower over the same directory.
	f2, _ := followerFor(t, pts.URL, Options{SnapshotDir: followerDir})
	if err := f2.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, p, f2, []string{"alpha"})

	lag2, _ := f2.Follower().Lag("alpha")
	if lag2.SnapshotHandoffs != 0 {
		t.Fatalf("resume took a snapshot handoff: %+v", lag2)
	}
	if lag2.AppliedSeq <= lag1.AppliedSeq {
		t.Fatalf("no progress after restart: %d -> %d", lag1.AppliedSeq, lag2.AppliedSeq)
	}
}

// TestCompactionForcesSnapshotHandoff is the compaction chaos test: the
// primary compacts while the follower lags, so the records the follower
// needs exist only in the snapshot — replication must take the handoff
// path and still converge exactly.
func TestCompactionForcesSnapshotHandoff(t *testing.T) {
	p, pts, f, _ := replicationPair(t,
		Options{SnapshotDir: t.TempDir()},
		Options{SnapshotDir: t.TempDir()})

	m := &mutator{ts: pts, city: mcCities[1], key: "beta", rng: rand.New(rand.NewSource(11))}
	for i := 0; i < 5; i++ {
		m.step(t)
	}
	// Partial sync: the follower applies the current log mid-tail.
	if err := f.Follower().Sync("beta"); err != nil {
		t.Fatal(err)
	}
	before, _ := f.Follower().Lag("beta")
	if before.AppliedSeq == 0 {
		t.Fatal("mid-tail sync applied nothing")
	}

	// More mutations, then a compaction: the log resets, and everything
	// the follower has not applied yet moves into the snapshot.
	for i := 0; i < 5; i++ {
		m.step(t)
	}
	if t.Failed() {
		t.FailNow()
	}
	compactCity(t, p, "beta")

	if err := f.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, p, f, []string{"beta"})
	after, _ := f.Follower().Lag("beta")
	if after.SnapshotHandoffs == 0 {
		t.Fatalf("compaction did not force the handoff path: %+v", after)
	}

	// The follower keeps replicating normally past the handoff.
	for i := 0; i < 3; i++ {
		m.step(t)
	}
	if t.Failed() {
		t.FailNow()
	}
	if err := f.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, p, f, []string{"beta"})
}

// TestPromotion: a lagging follower is promoted; it must start serving
// writes, its log must continue from the replicated sequence, and a
// restart of the promoted node must recover everything — replicated and
// post-promotion state alike.
func TestPromotion(t *testing.T) {
	followerDir := t.TempDir()
	_, pts, f, fts := replicationPair(t,
		Options{SnapshotDir: t.TempDir()},
		Options{SnapshotDir: followerDir})

	gid, err := mcCreateGroup(pts, mcCities[0], "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}
	// Make the follower lag: mutations it will never see (the primary
	// "fails" now from the follower's point of view).
	var lost packageResponse
	if err := tryJSON(pts, "POST", pts.URL+"/cities/alpha/packages", createPackageRequest{
		GroupID: gid, Consensus: "pairwise", K: 2,
	}, 201, &lost); err != nil {
		t.Fatal(err)
	}

	// /promote on a primary is refused; on the follower it flips the role.
	if err := tryJSON(pts, "POST", pts.URL+"/promote", nil, 409, nil); err != nil {
		t.Fatal(err)
	}
	if err := tryJSON(fts, "POST", fts.URL+"/promote", nil, 200, nil); err != nil {
		t.Fatal(err)
	}
	var health healthResponse
	if err := tryJSON(fts, "GET", fts.URL+"/healthz", nil, 200, &health); err != nil {
		t.Fatal(err)
	}
	if health.Role != "promoted" {
		t.Fatalf("role after promote = %q", health.Role)
	}

	// The promoted node serves writes: a package build against the
	// replicated group, and a customization op on it.
	var pkg packageResponse
	if err := tryJSON(fts, "POST", fts.URL+"/cities/alpha/packages", createPackageRequest{
		GroupID: gid, Consensus: "avg", K: 2,
	}, 201, &pkg); err != nil {
		t.Fatalf("promoted node refused a write: %v", err)
	}
	// Allocation continues from the *replicated* id space. The primary's
	// unreplicated package is gone — promotion of a lagging follower loses
	// exactly the un-shipped suffix, and the promoted node is free to
	// reuse its ids (from its history they were never allocated).
	if pkg.ID <= gid {
		t.Fatalf("promoted node allocated id %d inside the replicated space (group %d)", pkg.ID, gid)
	}
	if pkg.ID != lost.ID {
		t.Fatalf("promoted node skipped the unreplicated id %d (got %d) — where did it learn it?", lost.ID, pkg.ID)
	}
	if err := tryJSON(fts, "POST", fmt.Sprintf("%s/cities/alpha/packages/%d/ops", fts.URL, pkg.ID),
		opRequest{Member: 0, Op: "remove", CI: 0, POI: pkg.Days[0].Items[0].ID}, 200, nil); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, f, "alpha")

	// Restart the promoted node as an ordinary primary over its own state
	// directory: the sealed log must recover cleanly — replicated history
	// and post-promotion writes in one unbroken sequence.
	multiCityDataDir(t)
	r, err := NewMultiCity(Options{Cities: mcCities, SnapshotDir: followerDir})
	if err != nil {
		t.Fatal(err)
	}
	got := captureState(t, r, "alpha")
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("promoted node's restart lost state:\nwant %+v\ngot  %+v", want, got)
	}
	c, err := r.Registry().Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	h := c.State.health()
	if h.WAL == nil || h.WAL.ReplayTruncated != "" {
		t.Fatalf("promoted node's log did not recover cleanly: %+v", h.WAL)
	}

	// Late syncs on the promoted node must not resurrect replication.
	if err := f.Follower().Sync("alpha"); err == nil {
		t.Fatal("promoted follower still replicating")
	}
}

// TestFollowerStreamsCityPrimaryHadNotLoaded: a restarted primary has
// loaded nothing, yet a streaming follower's first request for a city
// must get a live push stream — the request loads the city from its
// on-disk state, exactly as the follower's own tailer does on its side —
// so later commits ship on the commit wakeup, not on a reconnect.
func TestFollowerStreamsCityPrimaryHadNotLoaded(t *testing.T) {
	snapDir := t.TempDir()
	multiCityDataDir(t)
	p1, err := NewMultiCity(Options{Cities: mcCities, SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(p1.Handler())
	if _, err := mcCreateGroup(ts1, mcCities[0], "alpha"); err != nil {
		t.Fatal(err)
	}
	diskHead := primaryHead(t, p1, "alpha")
	ts1.Close()

	// A fresh primary over the same state: alpha exists on disk only.
	p2, err := NewMultiCity(Options{Cities: mcCities, SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(p2.Handler())
	t.Cleanup(ts2.Close)
	if _, ok := p2.Registry().Resident("alpha"); ok {
		t.Fatal("restarted primary loaded alpha before any request")
	}

	// An hour-paced follower: nothing but a held-open push stream can ship
	// a commit before the deadlines below.
	f, _ := followerFor(t, ts2.URL, Options{SnapshotDir: t.TempDir(), FollowPoll: time.Hour})
	deadline := time.Now().Add(5 * time.Second)
	for p2.metrics.streams.open.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no push stream opened on the restarted primary")
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitApplied(t, f, "alpha", diskHead, 5*time.Second)

	// The listing reports the head the city recovered from disk.
	var cities []citySummary
	if err := tryJSON(ts2, "GET", ts2.URL+"/cities", nil, 200, &cities); err != nil {
		t.Fatal(err)
	}
	for _, c := range cities {
		if c.Key == "alpha" && (!c.Loaded || c.AppliedSeq != diskHead) {
			t.Fatalf("/cities alpha = %+v, want loaded at on-disk head %d", c, diskHead)
		}
	}

	// A new commit reaches the follower over the open stream.
	if _, err := mcCreateGroup(ts2, mcCities[0], "alpha"); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, "alpha", primaryHead(t, p2, "alpha"), 5*time.Second)

	// Ahead-of-head detection still answers 409.
	resp, err := http.Get(ts2.URL + "/cities/alpha/wal?from=99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("ahead check: %d", resp.StatusCode)
	}
	assertConverged(t, p2, f, []string{"alpha"})
}

// --- push streaming ---

// waitApplied polls a follower's lag until the city's applied sequence
// reaches want, returning how long it took.
func waitApplied(t *testing.T, f *Server, key string, want int64, within time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(within)
	for {
		if l, ok := f.Follower().Lag(key); ok && l.AppliedSeq >= want {
			return time.Since(start)
		}
		if time.Now().After(deadline) {
			l, _ := f.Follower().Lag(key)
			t.Fatalf("%s: applied seq never reached %d within %v (lag %+v)", key, want, within, l)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// primaryHead reads a city's committed head off the primary.
func primaryHead(t *testing.T, p *Server, key string) int64 {
	t.Helper()
	c, err := p.Registry().Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return c.State.appliedSeq()
}

// TestPushStreamingAppliesOnCommitWakeup pins the push-replication
// guarantee: steady-state replica apply is driven by commit wakeups, not
// the poll interval. The follower's interval is an hour — if any
// poll-paced sleep sat on the caught-up hot path, nothing would
// replicate before the deadlines below.
func TestPushStreamingAppliesOnCommitWakeup(t *testing.T) {
	p, pts, f, _ := replicationPair(t,
		Options{SnapshotDir: t.TempDir()},
		Options{SnapshotDir: t.TempDir(), FollowPoll: time.Hour})

	m := &mutator{ts: pts, city: mcCities[0], key: "alpha", rng: rand.New(rand.NewSource(21))}
	for i := 0; i < 5; i++ {
		m.step(t)
	}
	if t.Failed() {
		t.FailNow()
	}
	waitApplied(t, f, "alpha", primaryHead(t, p, "alpha"), 10*time.Second)

	// Steady state: each commit must land on the follower promptly — five
	// orders of magnitude inside the poll interval.
	for i := 0; i < 3; i++ {
		m.step(t)
		if t.Failed() {
			t.FailNow()
		}
		took := waitApplied(t, f, "alpha", primaryHead(t, p, "alpha"), 10*time.Second)
		if took > 5*time.Second {
			t.Fatalf("commit %d took %v to replicate — the wakeup path is not engaged", i, took)
		}
	}
	assertConverged(t, p, f, []string{"alpha"})
}

// TestPushStreamHeldOpenThroughMiddleware pins the transport contract
// the push design rests on: a /wal response through the REAL handler
// stack (telemetry middleware included) stays open and flushes —
// heartbeats arrive while the connection lives, and a commit's frame is
// pushed down the same response without a reconnect. This is exactly
// what silently broke when a middleware wrapper hid http.Flusher: every
// "stream" became a buffered one-shot, the convergence tests still
// passed, and the follower degenerated into a hot reconnect loop.
func TestPushStreamHeldOpenThroughMiddleware(t *testing.T) {
	multiCityDataDir(t)
	p, err := NewMultiCity(Options{Cities: mcCities, SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	pts := httptest.NewServer(p.Handler())
	t.Cleanup(pts.Close)

	m := &mutator{ts: pts, city: mcCities[0], key: "alpha", rng: rand.New(rand.NewSource(29))}
	m.step(t)
	if t.Failed() {
		t.FailNow()
	}

	resp, err := http.Get(pts.URL + "/cities/alpha/wal?from=0&hb=150ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.ContentLength >= 0 {
		t.Fatalf("push stream answered with Content-Length %d — a buffered one-shot, not a held stream", resp.ContentLength)
	}
	watchdog := time.AfterFunc(10*time.Second, func() { resp.Body.Close() })
	defer watchdog.Stop()

	var magic [8]byte
	if _, err := io.ReadFull(resp.Body, magic[:]); err != nil {
		t.Fatal(err)
	}
	readFrame := func() (n, sum uint32) {
		t.Helper()
		var hdr [8]byte
		if _, err := io.ReadFull(resp.Body, hdr[:]); err != nil {
			t.Fatalf("stream ended instead of staying open: %v", err)
		}
		n = binary.LittleEndian.Uint32(hdr[0:4])
		sum = binary.LittleEndian.Uint32(hdr[4:8])
		if n > 0 {
			if _, err := io.ReadFull(resp.Body, make([]byte, n)); err != nil {
				t.Fatalf("torn frame payload: %v", err)
			}
		}
		return n, sum
	}
	// Drain the initial batch until a heartbeat (zero length, zero CRC)
	// proves the response is being flushed while held open.
	for {
		if n, sum := readFrame(); n == 0 && sum == 0 {
			break
		}
	}
	// A commit now must be pushed down this same response.
	m.step(t)
	if t.Failed() {
		t.FailNow()
	}
	for {
		if n, sum := readFrame(); n != 0 || sum != 0 {
			return // the commit's frame arrived mid-stream
		}
	}
}

// TestPushStreamKillMidStreamResumes: the kill chaos test on the
// streaming path. A streaming follower dies mid-replication; a fresh
// process over the same state directory must reconnect its streams from
// the last durable sequence and converge without a snapshot handoff.
func TestPushStreamKillMidStreamResumes(t *testing.T) {
	followerDir := t.TempDir()
	p, pts, f1, _ := replicationPair(t,
		Options{SnapshotDir: t.TempDir()},
		Options{SnapshotDir: followerDir, FollowPoll: 20 * time.Millisecond})

	m := &mutator{ts: pts, city: mcCities[0], key: "alpha", rng: rand.New(rand.NewSource(23))}
	for i := 0; i < 8; i++ {
		m.step(t)
	}
	if t.Failed() {
		t.FailNow()
	}
	waitApplied(t, f1, "alpha", primaryHead(t, p, "alpha"), 10*time.Second)
	lag1, _ := f1.Follower().Lag("alpha")
	// "Kill": the streams cut mid-flight; state survives only on disk.
	f1.Close()

	for i := 0; i < 6; i++ {
		m.step(t)
	}
	if t.Failed() {
		t.FailNow()
	}

	f2, _ := followerFor(t, pts.URL, Options{SnapshotDir: followerDir, FollowPoll: 20 * time.Millisecond})
	waitApplied(t, f2, "alpha", primaryHead(t, p, "alpha"), 10*time.Second)
	assertConverged(t, p, f2, []string{"alpha"})
	lag2, _ := f2.Follower().Lag("alpha")
	if lag2.SnapshotHandoffs != 0 {
		t.Fatalf("streaming resume took a snapshot handoff: %+v", lag2)
	}
	if lag2.AppliedSeq <= lag1.AppliedSeq {
		t.Fatalf("no progress after restart: %d -> %d", lag1.AppliedSeq, lag2.AppliedSeq)
	}
}

// TestPushStreamCompactionHandoff: the compaction chaos test on the
// streaming path. A follower resuming behind the compaction horizon gets
// the snapshot handoff in its first stream response; a compaction landing
// mid-stream ends the stream cleanly and the reconnect keeps delivering.
func TestPushStreamCompactionHandoff(t *testing.T) {
	multiCityDataDir(t)
	p, err := NewMultiCity(Options{Cities: mcCities, SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(p.Handler())
	t.Cleanup(pts.Close)

	m := &mutator{ts: pts, city: mcCities[1], key: "beta", rng: rand.New(rand.NewSource(25))}
	for i := 0; i < 8; i++ {
		m.step(t)
	}
	if t.Failed() {
		t.FailNow()
	}
	compactCity(t, p, "beta")

	// A fresh streaming follower resumes from 0 — behind the horizon.
	f, _ := followerFor(t, pts.URL, Options{SnapshotDir: t.TempDir(), FollowPoll: 20 * time.Millisecond})
	waitApplied(t, f, "beta", primaryHead(t, p, "beta"), 10*time.Second)
	assertConverged(t, p, f, []string{"beta"})
	lag, _ := f.Follower().Lag("beta")
	if lag.SnapshotHandoffs == 0 {
		t.Fatalf("handoff not taken on the streaming path: %+v", lag)
	}

	// Mid-stream compaction: the log rotates under the open stream.
	for i := 0; i < 4; i++ {
		m.step(t)
	}
	if t.Failed() {
		t.FailNow()
	}
	compactCity(t, p, "beta")
	for i := 0; i < 3; i++ {
		m.step(t)
	}
	if t.Failed() {
		t.FailNow()
	}
	waitApplied(t, f, "beta", primaryHead(t, p, "beta"), 10*time.Second)
	assertConverged(t, p, f, []string{"beta"})
}

// TestPushStreamWireCorruption: the torn-wire chaos test. A
// chunk-relaying proxy flips one byte inside the city's stream; the CRC
// catches it, the intact prefix applies, and the reconnect re-fetches the
// poisoned frame — converging with a recorded retry and a cleared error.
func TestPushStreamWireCorruption(t *testing.T) {
	multiCityDataDir(t)
	p, err := NewMultiCity(Options{Cities: mcCities, SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(p.Handler())
	t.Cleanup(pts.Close)

	m := &mutator{ts: pts, city: mcCities[2], key: "gamma", rng: rand.New(rand.NewSource(27))}
	for i := 0; i < 8; i++ {
		m.step(t)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The proxy relays chunk-by-chunk with flushes (streams pass through
	// live) and corrupts one byte of gamma's stream once past the magic.
	// The upstream request carries the inbound request's context, so a
	// stream ends upstream as soon as its follower hangs up, and Close
	// does not wait out the held-open streams.
	var corrupted atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, pts.URL+r.URL.String(), nil)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		fl, _ := w.(http.Flusher)
		target := strings.Contains(r.URL.Path, "/gamma/") && strings.Contains(r.URL.Path, "/wal")
		buf := make([]byte, 4096)
		total := 0
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				chunk := buf[:n]
				total += n
				if target && total > 64 && corrupted.CompareAndSwap(false, true) {
					chunk[n-1] ^= 0x20
				}
				if _, werr := w.Write(chunk); werr != nil {
					return
				}
				if fl != nil {
					fl.Flush()
				}
			}
			if rerr != nil {
				return
			}
		}
	}))
	t.Cleanup(proxy.Close)

	f, _ := followerFor(t, proxy.URL, Options{SnapshotDir: t.TempDir(), FollowPoll: 20 * time.Millisecond})
	waitApplied(t, f, "gamma", primaryHead(t, p, "gamma"), 15*time.Second)
	assertConverged(t, p, f, []string{"gamma"})
	if !corrupted.Load() {
		t.Fatal("proxy never corrupted the stream")
	}
	lag, _ := f.Follower().Lag("gamma")
	if lag.WireRetries == 0 || lag.Err != "" {
		t.Fatalf("wire retry not recorded, or error not cleared: %+v", lag)
	}
}
