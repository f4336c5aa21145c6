package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"grouptravel/internal/dataset"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/rng"
	"grouptravel/internal/store"
)

// testTimeout bounds waits on replication catch-up.
func testTimeout() time.Duration { return 5 * time.Second }

// Three small cities, generated once and written as a data directory that
// every multi-city test mounts.
var (
	mcOnce   sync.Once
	mcCities []*dataset.City
	mcDir    string
)

var mcNames = []string{"Alpha", "Beta", "Gamma"}
var mcKeys = []string{"alpha", "beta", "gamma"}

func multiCityDataDir(t *testing.T) string {
	t.Helper()
	mcOnce.Do(func() {
		dir, err := os.MkdirTemp("", "grouptravel-cities-*")
		if err != nil {
			panic(err)
		}
		for i, name := range mcNames {
			c, err := dataset.Generate(dataset.TestSpec(name, int64(71+i)))
			if err != nil {
				panic(err)
			}
			mcCities = append(mcCities, c)
			f, err := os.Create(filepath.Join(dir, mcKeys[i]+".json"))
			if err != nil {
				panic(err)
			}
			if err := c.SaveJSON(f); err != nil {
				panic(err)
			}
			f.Close()
		}
		mcDir = dir
	})
	return mcDir
}

// mcRatings builds a ratings map over a specific city's schema.
func mcRatings(c *dataset.City, shift int) map[string][]float64 {
	out := map[string][]float64{}
	for _, cat := range poi.Categories {
		dim := c.Schema.Dim(cat)
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64((j + shift) % 6)
		}
		out[cat.String()] = v
	}
	return out
}

func multiCityServer(t *testing.T, snapDir string) (*Server, *httptest.Server) {
	t.Helper()
	return multiCityServerOpts(t, Options{SnapshotDir: snapDir})
}

// multiCityServerOpts mounts the shared data directory with caller-chosen
// persistence options.
func multiCityServerOpts(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.DataDir = multiCityDataDir(t)
	s, err := NewMultiCity(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// compactCity forces a synchronous compaction of one city — tests use it
// where the asynchronous threshold trigger would race the assertion. It
// waits out a running compaction, as a snapshot handoff does: two
// compactions must not interleave their marks and trims.
func compactCity(t *testing.T, s *Server, key string) {
	t.Helper()
	c, err := s.Registry().Get(key)
	if err != nil {
		t.Fatal(err)
	}
	for !c.State.compacting.CompareAndSwap(false, true) {
		time.Sleep(time.Millisecond)
	}
	defer c.State.compacting.Store(false)
	if err := c.State.compact(); err != nil {
		t.Fatal(err)
	}
}

// mcCreateGroup registers a 3-member group in a city and returns its id.
func mcCreateGroup(ts *httptest.Server, city *dataset.City, key string) (int, error) {
	req := createGroupRequest{}
	for i := 0; i < 3; i++ {
		req.Members = append(req.Members, mcRatings(city, i))
	}
	var resp groupResponse
	if err := tryJSON(ts, "POST", ts.URL+"/cities/"+key+"/groups", req, 201, &resp); err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// TestMultiCityConcurrentBuilds is the acceptance scenario: a server over a
// data directory of three cities serves package builds for all of them
// concurrently (run under -race via `make race`), each city loading
// under the racing requests that first touch it.
func TestMultiCityConcurrentBuilds(t *testing.T) {
	s, ts := multiCityServer(t, t.TempDir())
	const perCity = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(mcKeys)*perCity)
	for ci, key := range mcKeys {
		for g := 0; g < perCity; g++ {
			wg.Add(1)
			go func(ci int, key string) {
				defer wg.Done()
				gid, err := mcCreateGroup(ts, mcCities[ci], key)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", key, err)
					return
				}
				var pkg packageResponse
				if err := tryJSON(ts, "POST", ts.URL+"/cities/"+key+"/packages", createPackageRequest{
					GroupID: gid, Consensus: "pairwise", K: 2,
				}, 201, &pkg); err != nil {
					errs <- fmt.Errorf("%s: %w", key, err)
					return
				}
				if pkg.City != mcCities[ci].Name || !pkg.Valid {
					errs <- fmt.Errorf("%s: package = %+v", key, pkg)
					return
				}
				var read packageResponse
				if err := tryJSON(ts, "GET", fmt.Sprintf("%s/cities/%s/packages/%d", ts.URL, key, pkg.ID), nil, 200, &read); err != nil {
					errs <- fmt.Errorf("%s: %w", key, err)
				}
			}(ci, key)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every city loaded exactly once, however many requests raced it.
	if st := s.Registry().Stats(); st.Loaded != len(mcKeys) || st.Loads != int64(len(mcKeys)) {
		t.Fatalf("registry stats after builds: %+v", st)
	}
}

// TestMultiCityRestartPersistence is the durability half of the acceptance
// scenario: groups and packages — including one mutated by a
// customization op — survive a server restart byte-for-byte, in every
// city, because each mutation was logged through the store.
func TestMultiCityRestartPersistence(t *testing.T) {
	snapDir := t.TempDir()
	_, ts := multiCityServer(t, snapDir)

	type cityFacts struct {
		gid, pid int
		group    groupResponse
		pkg      packageResponse
	}
	facts := map[string]*cityFacts{}
	for ci, key := range mcKeys {
		gid, err := mcCreateGroup(ts, mcCities[ci], key)
		if err != nil {
			t.Fatal(err)
		}
		var pkg packageResponse
		if err := tryJSON(ts, "POST", ts.URL+"/cities/"+key+"/packages", createPackageRequest{
			GroupID: gid, Consensus: "pairwise", K: 2,
		}, 201, &pkg); err != nil {
			t.Fatal(err)
		}
		facts[key] = &cityFacts{gid: gid, pid: pkg.ID}
	}
	// Mutate one package through an op so the snapshot is not just the
	// freshly built state.
	alpha := facts["alpha"]
	var cur packageResponse
	if err := tryJSON(ts, "GET", fmt.Sprintf("%s/cities/alpha/packages/%d", ts.URL, alpha.pid), nil, 200, &cur); err != nil {
		t.Fatal(err)
	}
	if err := tryJSON(ts, "POST", fmt.Sprintf("%s/cities/alpha/packages/%d/ops", ts.URL, alpha.pid),
		opRequest{Member: 0, Op: "remove", CI: 0, POI: cur.Days[0].Items[0].ID}, 200, nil); err != nil {
		t.Fatal(err)
	}
	// Record the pre-restart ground truth.
	for _, key := range mcKeys {
		f := facts[key]
		if err := tryJSON(ts, "GET", fmt.Sprintf("%s/cities/%s/groups/%d", ts.URL, key, f.gid), nil, 200, &f.group); err != nil {
			t.Fatal(err)
		}
		if err := tryJSON(ts, "GET", fmt.Sprintf("%s/cities/%s/packages/%d", ts.URL, key, f.pid), nil, 200, &f.pkg); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": a brand-new server over the same data + snapshot dirs.
	_, ts2 := multiCityServer(t, snapDir)
	for _, key := range mcKeys {
		f := facts[key]
		var group groupResponse
		if err := tryJSON(ts2, "GET", fmt.Sprintf("%s/cities/%s/groups/%d", ts2.URL, key, f.gid), nil, 200, &group); err != nil {
			t.Fatalf("%s group lost in restart: %v", key, err)
		}
		if group != f.group {
			t.Fatalf("%s group changed in restart: %+v -> %+v", key, f.group, group)
		}
		var pkg packageResponse
		if err := tryJSON(ts2, "GET", fmt.Sprintf("%s/cities/%s/packages/%d", ts2.URL, key, f.pid), nil, 200, &pkg); err != nil {
			t.Fatalf("%s package lost in restart: %v", key, err)
		}
		if pkgFingerprint(t, pkg) != pkgFingerprint(t, f.pkg) {
			t.Fatalf("%s package changed in restart:\n%s\nvs\n%s", key, pkgFingerprint(t, pkg), pkgFingerprint(t, f.pkg))
		}
	}
	// The customization log survived too: refining alpha's package after
	// the restart still sees the pre-restart remove op.
	var ref refineResponse
	if err := tryJSON(ts2, "POST", fmt.Sprintf("%s/cities/alpha/packages/%d/refine", ts2.URL, alpha.pid),
		refineRequest{Strategy: "batch"}, 200, &ref); err != nil {
		t.Fatal(err)
	}
	if ref.Operations != 1 {
		t.Fatalf("restarted refine saw %d ops, want 1", ref.Operations)
	}
	// New mutations keep allocating past the restored id space.
	gid, err := mcCreateGroup(ts2, mcCities[0], "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if gid <= alpha.pid {
		t.Fatalf("restarted id allocation collided: new group id %d", gid)
	}
}

// TestEmptyDataDirWithPreloadedCity: an empty -data-dir is valid as long
// as preloaded cities make the server servable.
func TestEmptyDataDirWithPreloadedCity(t *testing.T) {
	multiCityDataDir(t) // ensure mcCities exist
	s, err := NewMultiCity(Options{DataDir: t.TempDir(), Cities: []*dataset.City{mcCities[0]}, SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if keys := s.Registry().Keys(); len(keys) != 1 || keys[0] != "alpha" {
		t.Fatalf("keys = %v", keys)
	}
	// Fully empty configuration still fails.
	if _, err := NewMultiCity(Options{DataDir: t.TempDir(), SnapshotDir: t.TempDir()}); err == nil {
		t.Fatal("empty data dir with no preloaded cities accepted")
	}
	// So does any server, primary or follower, with nowhere to keep its
	// write-ahead log.
	for _, opts := range []Options{
		{Cities: []*dataset.City{mcCities[0]}},
		{Cities: []*dataset.City{mcCities[0]}, Follow: "http://primary.invalid", FollowPoll: -1},
	} {
		if _, err := NewMultiCity(opts); err == nil || !strings.Contains(err.Error(), "SnapshotDir") {
			t.Fatalf("server without a snapshot dir (follow %q): err = %v", opts.Follow, err)
		}
	}
}

// copyDataset writes the shared data directory's dataset for key into dir.
func copyDataset(t *testing.T, dir, key string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(multiCityDataDir(t), key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSharedDataAndSnapshotDirServesOnlyDatasets: a data directory that
// doubles as the snapshot directory holds the store's files beside the
// datasets — an epoch, a log, a snapshot — and none of them is a city,
// before or after a restart.
func TestSharedDataAndSnapshotDirServesOnlyDatasets(t *testing.T) {
	dir := t.TempDir()
	copyDataset(t, dir, "alpha")
	const self = "http://alpha-node:8080"
	if err := store.WriteEpoch(dir, "alpha", store.Epoch{Epoch: 1, Primary: self}); err != nil {
		t.Fatal(err)
	}
	boot := func() *Server {
		t.Helper()
		s, err := NewMultiCity(Options{DataDir: dir, SnapshotDir: dir, Advertise: self})
		if err != nil {
			t.Fatal(err)
		}
		if keys := s.Registry().Keys(); !slices.Equal(keys, []string{"alpha"}) {
			t.Fatalf("keys = %v, want [alpha]", keys)
		}
		return s
	}
	s := boot()
	ts := httptest.NewServer(s.Handler())
	if _, err := mcCreateGroup(ts, mcCities[0], "alpha"); err != nil {
		t.Fatal(err)
	}
	compactCity(t, s, "alpha")
	if _, err := mcCreateGroup(ts, mcCities[0], "alpha"); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	s.Close()
	for _, name := range []string{"alpha.epoch.json", "alpha.state.json", "alpha.wal"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s not written: %v", name, err)
		}
	}
	boot().Close()
}

// TestFailedPreloadClosesLoadedLogs: construction that fails in Preload
// hands its caller no Server to Close, so it must release the log of
// every city that did load.
func TestFailedPreloadClosesLoadedLogs(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count open files")
	}
	data, snap := t.TempDir(), t.TempDir()
	copyDataset(t, data, "alpha")
	if err := os.WriteFile(filepath.Join(data, "broken.json"), []byte("not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewMultiCity(Options{DataDir: data, SnapshotDir: snap, PreloadCities: []string{"alpha", "broken"}})
	if err == nil {
		t.Fatal("preloading a broken dataset succeeded")
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && filepath.Dir(target) == snap && strings.HasSuffix(target, ".wal") {
			t.Errorf("failed construction left %s open", target)
		}
	}
}

// TestCorruptSnapshotSurfacesOnHealth: a tampered compaction snapshot must
// not brick the city — it starts empty and the error lands on /healthz.
// The write-ahead log is quarantined along with the snapshot: it is a
// suffix over that exact base and cannot replay without it.
func TestCorruptSnapshotSurfacesOnHealth(t *testing.T) {
	snapDir := t.TempDir()
	s, ts := multiCityServer(t, snapDir)
	gid, err := mcCreateGroup(ts, mcCities[0], "alpha")
	if err != nil {
		t.Fatal(err)
	}
	var pkg packageResponse
	if err := tryJSON(ts, "POST", ts.URL+"/cities/alpha/packages", createPackageRequest{
		GroupID: gid, Consensus: "pairwise", K: 2,
	}, 201, &pkg); err != nil {
		t.Fatal(err)
	}
	// Compact deterministically (threshold compaction is asynchronous) so
	// the snapshot file — the tamper target — exists.
	compactCity(t, s, "alpha")
	// Tamper: an unknown consensus method in the persisted package (the
	// snapshot is written compact, without indentation).
	path := filepath.Join(snapDir, "alpha.state.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `"method":"pairwise"`, `"method":"bogus"`, 1)
	if tampered == string(raw) {
		t.Fatal("tamper target not found in snapshot")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	// Restart: the city serves (empty) instead of failing, and healthz
	// reports the ignored state.
	_, ts2 := multiCityServer(t, snapDir)
	if err := tryJSON(ts2, "GET", fmt.Sprintf("%s/cities/alpha/groups/%d", ts2.URL, gid), nil, 404, nil); err != nil {
		t.Fatal(err)
	}
	var health healthResponse
	if err := tryJSON(ts2, "GET", ts2.URL+"/healthz", nil, 200, &health); err != nil {
		t.Fatal(err)
	}
	ch, ok := health.Cities["alpha"]
	if !ok || !strings.Contains(ch.PersistErr, "bogus") {
		t.Fatalf("persistence error not surfaced: %+v", health.Cities)
	}
	// Both files were quarantined, not left to be overwritten by the next
	// compaction: the committed state stays recoverable. (A fresh, empty
	// log is opened at the wal path afterwards — only the snapshot path
	// must stay vacant until the next compaction.)
	for _, p := range []string{path, filepath.Join(snapDir, "alpha.wal")} {
		if _, err := os.Stat(p + ".corrupt"); err != nil {
			t.Fatalf("%s not quarantined: %v", p, err)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("tampered snapshot still in place (err=%v)", err)
	}
}

// TestUnknownConsensusInLogCutsReplay: a log record naming a consensus
// this server does not know is an inapplicable record like any other.
// Replay cuts the log there, serves the prefix and reports the cut on
// /healthz; nothing is quarantined. (A snapshot naming one still
// quarantines the city: TestCorruptSnapshotSurfacesOnHealth.)
func TestUnknownConsensusInLogCutsReplay(t *testing.T) {
	snapDir := t.TempDir()
	_, ts := multiCityServer(t, snapDir)
	gid, err := mcCreateGroup(ts, mcCities[0], "alpha")
	if err != nil {
		t.Fatal(err)
	}
	var pkg packageResponse
	if err := tryJSON(ts, "POST", ts.URL+"/cities/alpha/packages", createPackageRequest{
		GroupID: gid, Consensus: "pairwise", K: 2,
	}, 201, &pkg); err != nil {
		t.Fatal(err)
	}
	// Rename the package record's consensus and re-frame it, so the log
	// stays well-formed and only the record's meaning is bad.
	walPath := store.WALPath(snapDir, "alpha")
	frames, _, err := store.ReadWALFramesAt(walPath, 0)
	if err != nil || len(frames) != 2 {
		t.Fatalf("log holds %d frames (err %v), want group + package", len(frames), err)
	}
	bogus := bytes.Replace(frames[1].Payload, []byte(`"method":"pairwise"`), []byte(`"method":"bogus"`), 1)
	if bytes.Equal(bogus, frames[1].Payload) {
		t.Fatal("tamper target not found in the package record")
	}
	out := []byte("GTWALv1\n")
	out = append(out, store.EncodeFrame(frames[0].Payload)...)
	out = append(out, store.EncodeFrame(bogus)...)
	if err := os.WriteFile(walPath, out, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := multiCityServer(t, snapDir)
	if err := tryJSON(ts2, "GET", fmt.Sprintf("%s/cities/alpha/groups/%d", ts2.URL, gid), nil, 200, nil); err != nil {
		t.Fatalf("prefix before the cut not served: %v", err)
	}
	if err := tryJSON(ts2, "GET", fmt.Sprintf("%s/cities/alpha/packages/%d", ts2.URL, pkg.ID), nil, 404, nil); err != nil {
		t.Fatal(err)
	}
	var health healthResponse
	if err := tryJSON(ts2, "GET", ts2.URL+"/healthz", nil, 200, &health); err != nil {
		t.Fatal(err)
	}
	ch := health.Cities["alpha"]
	if ch.WAL == nil || ch.WAL.Replayed != 1 || !strings.Contains(ch.WAL.ReplayTruncated, "bogus") {
		t.Fatalf("cut not reported: %+v", ch.WAL)
	}
	if ch.PersistErr != "" {
		t.Fatalf("an inapplicable log record quarantined the city: %q", ch.PersistErr)
	}
	if _, err := os.Stat(walPath + ".corrupt"); !os.IsNotExist(err) {
		t.Fatalf("log quarantined (err=%v)", err)
	}
}

// TestCityMetricsMatchHealth: /metrics serves each loaded city's
// cluster-cache misses and load time, the values /healthz reports, and 0
// for a city not loaded.
func TestCityMetricsMatchHealth(t *testing.T) {
	_, ts := multiCityServer(t, t.TempDir())
	gid, err := mcCreateGroup(ts, mcCities[0], "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := tryJSON(ts, "POST", ts.URL+"/cities/alpha/packages", createPackageRequest{
		GroupID: gid, Consensus: "pairwise", K: 2,
	}, 201, nil); err != nil {
		t.Fatal(err)
	}
	var health healthResponse
	if err := tryJSON(ts, "GET", ts.URL+"/healthz", nil, 200, &health); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metric := func(name, city string) float64 {
		t.Helper()
		prefix := name + `{city="` + city + `"} `
		for _, line := range strings.Split(string(scrape), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("/metrics has no %s", prefix)
		return 0
	}
	misses := metric("gt_cluster_cache_misses_total", "alpha")
	if want := float64(health.Cities["alpha"].Cache.Misses); misses < 1 || misses != want {
		t.Fatalf("cluster-cache misses: /metrics %v, /healthz %v", misses, want)
	}
	var loadMillis float64
	for _, c := range health.Registry.Cities {
		if c.Key == "alpha" {
			loadMillis = c.LoadMillis
		}
	}
	if got := metric("gt_city_load_seconds", "alpha"); loadMillis <= 0 || math.Abs(got*1000-loadMillis) > 1e-9*loadMillis {
		t.Fatalf("load time: /metrics %vs, /healthz %vms", got, loadMillis)
	}
	if metric("gt_cluster_cache_misses_total", "beta") != 0 || metric("gt_city_load_seconds", "beta") != 0 {
		t.Fatal("a city not loaded reports nonzero")
	}
}

// TestTornWALTailSurfacesOnHealth: a crash can tear the last record of a
// city's log. Recovery must serve the surviving prefix — never fail the
// city — truncate the tail in place, and report the cut on /healthz.
func TestTornWALTailSurfacesOnHealth(t *testing.T) {
	snapDir := t.TempDir()
	_, ts := multiCityServer(t, snapDir)
	gid, err := mcCreateGroup(ts, mcCities[0], "alpha")
	if err != nil {
		t.Fatal(err)
	}
	var pkg packageResponse
	if err := tryJSON(ts, "POST", ts.URL+"/cities/alpha/packages", createPackageRequest{
		GroupID: gid, Consensus: "pairwise", K: 2,
	}, 201, &pkg); err != nil {
		t.Fatal(err)
	}
	// No compaction ran (default thresholds): the log holds both records
	// and no snapshot exists. Tear the tail of the last record.
	walPath := filepath.Join(snapDir, "alpha.wal")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-9); err != nil {
		t.Fatal(err)
	}

	// Restart: the group (record 1) survives; the package (torn record 2)
	// is gone; the cut is on /healthz; nothing is fatal.
	_, ts2 := multiCityServer(t, snapDir)
	var group groupResponse
	if err := tryJSON(ts2, "GET", fmt.Sprintf("%s/cities/alpha/groups/%d", ts2.URL, gid), nil, 200, &group); err != nil {
		t.Fatalf("surviving prefix not served: %v", err)
	}
	if err := tryJSON(ts2, "GET", fmt.Sprintf("%s/cities/alpha/packages/%d", ts2.URL, pkg.ID), nil, 404, nil); err != nil {
		t.Fatal(err)
	}
	var health healthResponse
	if err := tryJSON(ts2, "GET", ts2.URL+"/healthz", nil, 200, &health); err != nil {
		t.Fatal(err)
	}
	ch := health.Cities["alpha"]
	if ch.WAL == nil || ch.WAL.ReplayTruncated == "" || ch.WAL.Replayed != 1 {
		t.Fatalf("torn tail not surfaced: %+v", ch.WAL)
	}
	if ch.PersistErr != "" {
		t.Fatalf("torn tail must not be a persistence error (city is consistent): %q", ch.PersistErr)
	}
	// The repaired log accepts new mutations, and they survive another
	// restart together with the surviving prefix.
	gid2, err := mcCreateGroup(ts2, mcCities[0], "alpha")
	if err != nil {
		t.Fatal(err)
	}
	_, ts3 := multiCityServer(t, snapDir)
	for _, id := range []int{gid, gid2} {
		if err := tryJSON(ts3, "GET", fmt.Sprintf("%s/cities/alpha/groups/%d", ts3.URL, id), nil, 200, nil); err != nil {
			t.Fatalf("group %d lost after repair+restart: %v", id, err)
		}
	}
}

// TestCloseClosesLoadedCityLogs: Close releases the log of every loaded
// city, so a later append fails with "wal closed", and it loads no city
// that was not loaded. A second Close is a no-op.
func TestCloseClosesLoadedCityLogs(t *testing.T) {
	s, ts := multiCityServer(t, t.TempDir())
	loaded := mcKeys[:2]
	for i, key := range loaded {
		if _, err := mcCreateGroup(ts, mcCities[i], key); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s.Close()
	for i, key := range loaded {
		c, ok := s.Registry().Resident(key)
		if !ok {
			t.Fatalf("%s: no longer resident after Close", key)
		}
		g, err := profile.GenerateUniformGroup(mcCities[i].Schema, 2, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.State.wal.Append(store.Record{Kind: store.RecordGroupCreate, ID: 99, Group: g})
		if err == nil || !strings.Contains(err.Error(), "wal closed") {
			t.Fatalf("%s: append after Close = %v, want wal closed", key, err)
		}
	}
	if _, ok := s.Registry().Resident(mcKeys[2]); ok {
		t.Fatalf("Close loaded %s", mcKeys[2])
	}
}
