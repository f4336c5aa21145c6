package server

import (
	"fmt"
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
