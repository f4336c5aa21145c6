package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"grouptravel/internal/dataset"
	"grouptravel/internal/store"
)

// captureState collects a city's full in-memory serving state through the
// same collector compaction uses. Memoized consensus profiles are not part
// of it: they are a derivable cache, rebuilt on demand.
func captureState(t *testing.T, s *Server, key string) *store.ServerState {
	t.Helper()
	c, err := s.Registry().Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return c.State.collectState()
}

// TestCrashEquivalence is the WAL acceptance test: run every mutation
// kind, kill the server mid-log (records appended, no compaction ever),
// restart over the same directories, and the recovered city must be
// deep-equal to the in-memory state at the last appended record — groups,
// the id allocator, every package, and every package's customization op
// log (which /refine reads).
func TestCrashEquivalence(t *testing.T) {
	city, err := dataset.Generate(dataset.TestSpec("CrashCity", 91))
	if err != nil {
		t.Fatal(err)
	}
	snapDir := t.TempDir()
	// The same *dataset.City backs both servers, so recovered POI and
	// schema pointers must be identical, making reflect.DeepEqual exact.
	opts := Options{Cities: []*dataset.City{city}, SnapshotDir: snapDir}
	s1, err := NewMultiCity(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	defer ts.Close()
	const key = "crashcity"
	base := ts.URL + "/cities/" + key

	// One of everything the WAL logs: groupCreate, packageBuild, all four
	// customOp kinds, and a refine rebuild.
	greq := createGroupRequest{}
	for i := 0; i < 3; i++ {
		greq.Members = append(greq.Members, mcRatings(city, i))
	}
	var group groupResponse
	if err := tryJSON(ts, "POST", base+"/groups", greq, 201, &group); err != nil {
		t.Fatal(err)
	}
	var pkg packageResponse
	if err := tryJSON(ts, "POST", base+"/packages", createPackageRequest{
		GroupID: group.ID, Consensus: "pairwise", K: 3,
	}, 201, &pkg); err != nil {
		t.Fatal(err)
	}
	victim := pkg.Days[0].Items[0].ID
	bounds := city.POIs.Bounds()
	for i, op := range []opRequest{
		{Member: 0, Op: "remove", CI: 0, POI: victim},
		{Member: 1, Op: "add", CI: 0, POI: victim},
		{Member: 2, Op: "replace", CI: 1, POI: pkg.Days[1].Items[0].ID},
		{Member: 0, Op: "generate", Rect: &bounds},
	} {
		if err := tryJSON(ts, "POST", fmt.Sprintf("%s/packages/%d/ops", base, pkg.ID), op, 200, nil); err != nil {
			t.Fatalf("op %d (%s): %v", i, op.Op, err)
		}
	}
	var ref refineResponse
	if err := tryJSON(ts, "POST", fmt.Sprintf("%s/packages/%d/refine", base, pkg.ID), refineRequest{
		Strategy: "individual", Rebuild: true, K: 2,
	}, 200, &ref); err != nil {
		t.Fatal(err)
	}
	if ref.Operations != 4 || ref.NewPackage == nil {
		t.Fatalf("refine saw %+v", ref)
	}

	want := captureState(t, s1, key)

	// The whole history must still be log-only: no compaction ran, so the
	// restart below exercises pure WAL replay, not a snapshot read.
	if _, err := os.Stat(filepath.Join(snapDir, key+".state.json")); !os.IsNotExist(err) {
		t.Fatalf("compaction ran mid-test (err=%v); crash test needs a log-only history", err)
	}

	// "Crash": s1 gets no shutdown, no compaction — a fresh
	// server simply opens the same directories.
	s2, err := NewMultiCity(opts)
	if err != nil {
		t.Fatal(err)
	}
	got := captureState(t, s2, key)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered state differs from pre-crash state:\nwant: %+v\ngot:  %+v", want, got)
	}

	// And the recovery was clean: every record replayed, nothing cut.
	c, err := s2.Registry().Get(key)
	if err != nil {
		t.Fatal(err)
	}
	h := c.State.health()
	if h.WAL == nil || h.WAL.ReplayTruncated != "" || h.WAL.Replayed != 7 {
		t.Fatalf("replay health = %+v, want 7 clean records", h.WAL)
	}

	// The op log is live, not just equal: refining on the restarted
	// server still sees all four pre-crash ops.
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var ref2 refineResponse
	if err := tryJSON(ts2, "POST", fmt.Sprintf("%s/cities/%s/packages/%d/refine", ts2.URL, key, pkg.ID),
		refineRequest{Strategy: "batch"}, 200, &ref2); err != nil {
		t.Fatal(err)
	}
	if ref2.Operations != 4 {
		t.Fatalf("restarted refine saw %d ops, want 4", ref2.Operations)
	}
}

// TestPreloadCities: -preload-cities warms cities at boot through the
// registry's singleflight path and reports their load latency.
func TestPreloadCities(t *testing.T) {
	s, _ := multiCityServerOpts(t, Options{
		SnapshotDir:   t.TempDir(),
		PreloadCities: []string{"alpha", "gamma"},
	})
	reg := s.Registry()
	_, alpha := reg.Resident("alpha")
	_, gamma := reg.Resident("gamma")
	if !alpha || !gamma {
		t.Fatalf("preloaded cities not resident: %+v", reg.Stats())
	}
	if _, beta := reg.Resident("beta"); beta {
		t.Fatal("beta loaded without being preloaded or requested")
	}
	st := reg.Stats()
	if st.Loads != 2 {
		t.Fatalf("preload ran %d load pipelines, want 2", st.Loads)
	}
	for _, c := range st.Cities {
		if c.LoadMillis <= 0 {
			t.Fatalf("city %s has no load latency: %+v", c.Key, c)
		}
	}
	// A preload key outside the served set is a config error, caught at
	// construction.
	if _, err := NewMultiCity(Options{
		DataDir:       multiCityDataDir(t),
		SnapshotDir:   t.TempDir(),
		PreloadCities: []string{"atlantis"},
	}); err == nil || !strings.Contains(err.Error(), "atlantis") {
		t.Fatalf("unknown preload city: err = %v", err)
	}
}

// primaryOver boots a primary over the shared cities with its state in
// dir, as a restarting node does.
func primaryOver(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	multiCityDataDir(t) // ensure mcCities exist
	s, err := NewMultiCity(Options{Cities: mcCities, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// copyStateDir copies a state directory's files into a fresh directory.
func copyStateDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// assertRecovers restarts a node from dir as it stands and checks that it
// recovers want cleanly, replaying the given number of log records, and
// that a follower streaming from it converges to it, by
// TestFollowerRestartEqualsReplication's comparison.
func assertRecovers(t *testing.T, dir, key string, want *store.ServerState, replayed int) {
	t.Helper()
	r, rts := primaryOver(t, dir)
	if got := captureState(t, r, key); !reflect.DeepEqual(want, got) {
		t.Fatalf("restart recovered a different state:\nwant: %+v\ngot:  %+v", want, got)
	}
	c, err := r.Registry().Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if h := c.State.health(); h.WAL.ReplayTruncated != "" || h.PersistErr != "" || h.WAL.Replayed != replayed {
		t.Fatalf("restart recovery %+v (error %q), want %d records replayed cleanly", h.WAL, h.PersistErr, replayed)
	}
	f, _ := followerFor(t, rts.URL, Options{SnapshotDir: t.TempDir()})
	if err := f.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, r, f, mcKeys)
}

// walBytes frames payloads into a log file's bytes.
func walBytes(frames []store.WALFrame) []byte {
	out := []byte("GTWALv1\n")
	for _, fr := range frames {
		out = append(out, store.EncodeFrame(fr.Payload)...)
	}
	return out
}

// TestCompactionCrashStates builds, through the store API, each state a
// compaction can stop in, and restarts a node from the directory as it
// stands: the snapshot not yet written (the old snapshot plus the whole
// log), the snapshot landed but the log not trimmed, the trim's temp file
// left unrenamed, and the trim renamed. Records land both before the mark
// and between the mark and the trim. Each restart recovers the
// acknowledged state exactly — every customOp applied once, so no
// package's op log doubles — and a follower streaming from the restarted
// node converges to it.
func TestCompactionCrashStates(t *testing.T) {
	const key = "alpha"
	dir := t.TempDir()
	p, pts := primaryOver(t, dir)
	m := &mutator{ts: pts, city: mcCities[0], key: key, rng: rand.New(rand.NewSource(27))}
	steps := func(n int) {
		for i := 0; i < n; i++ {
			m.step(t)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	steps(10)
	compactCity(t, p, key) // the old snapshot
	c, err := p.Registry().Get(key)
	if err != nil {
		t.Fatal(err)
	}
	oldSeq := c.State.appliedSeq()
	steps(12)
	// The compaction under test collects and marks; then records land
	// while its snapshot is written.
	st := c.State.collectState()
	mark := c.State.wal.Mark()
	st.WALSeq = mark.Seq
	steps(8)
	want, head := captureState(t, p, key), c.State.appliedSeq()
	if mark.Seq == oldSeq || head == mark.Seq {
		t.Fatalf("no records between the snapshots (%d, %d) or after the mark (head %d)", oldSeq, mark.Seq, head)
	}

	notWritten := copyStateDir(t, dir)
	if _, err := store.WriteSnapshot(dir, key, st); err != nil {
		t.Fatal(err)
	}
	notTrimmed := copyStateDir(t, dir)
	tempLeft := copyStateDir(t, dir)
	frames, _, err := store.ReadWALFramesAt(store.WALPath(dir, key), 0)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := walBytes(framesAfter(frames, mark.Seq))
	if err := os.WriteFile(filepath.Join(tempLeft, key+".wal.1.tmp"), trimmed, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := c.State.wal.Trim(mark); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(store.WALPath(dir, key)); err != nil || !bytes.Equal(got, trimmed) {
		t.Fatalf("the trim wrote something else than the records after the mark (err %v)", err)
	}
	p.Close()

	for _, tc := range []struct {
		name     string
		dir      string
		replayed int64
	}{
		{"snapshotNotWritten", notWritten, head - oldSeq},
		{"logNotTrimmed", notTrimmed, head - mark.Seq},
		{"trimTempLeft", tempLeft, head - mark.Seq},
		{"trimRenamed", dir, head - mark.Seq},
	} {
		t.Run(tc.name, func(t *testing.T) { assertRecovers(t, tc.dir, key, want, int(tc.replayed)) })
	}
}

// TestLegacySegmentRestart: a city whose directory holds an earlier
// version's interrupted compaction — its old snapshot, the log sealed as
// <key>.wal.pending and a fresh log continuing it — restarts to the state
// written before the layout was made, and leaves no segment. The layout
// is the city's log split at a record boundary, which is what Rotate did.
func TestLegacySegmentRestart(t *testing.T) {
	const key = "alpha"
	dir := t.TempDir()
	p, pts := primaryOver(t, dir)
	m := &mutator{ts: pts, city: mcCities[0], key: key, rng: rand.New(rand.NewSource(43))}
	for i := 0; i < 26; i++ {
		if i == 10 {
			compactCity(t, p, key)
		}
		m.step(t)
	}
	if t.Failed() {
		t.FailNow()
	}
	want := captureState(t, p, key)
	p.Close()

	path := store.WALPath(dir, key)
	frames, _, err := store.ReadWALFramesAt(path, 0)
	if err != nil || len(frames) < 2 {
		t.Fatalf("log holds %d records (err %v), want two or more to split", len(frames), err)
	}
	half := len(frames) / 2
	if err := os.WriteFile(store.PendingWALPath(dir, key), walBytes(frames[:half]), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, walBytes(frames[half:]), 0o644); err != nil {
		t.Fatal(err)
	}
	assertRecovers(t, dir, key, want, len(frames))
	if _, err := os.Stat(store.PendingWALPath(dir, key)); !os.IsNotExist(err) {
		t.Fatalf("segment left behind (err %v)", err)
	}
}
