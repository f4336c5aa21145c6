package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"grouptravel/internal/consensus"
	"grouptravel/internal/dataset"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
)

var (
	srvOnce sync.Once
	srvCity *dataset.City
)

// srvKey is the registry key of the shared test city.
const srvKey = "servercity"

// cityBase is the test city's route prefix on a test server.
func cityBase(ts *httptest.Server) string { return ts.URL + "/cities/" + srvKey }

// testServer boots the shared test city over a fresh state directory, so
// mutations allocate real WAL sequences.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return cityServer(t, t.TempDir())
}

// cityServer boots the shared test city over the state directory dir.
// Servers over one directory share the city's POI pointers, so their
// states compare exactly with reflect.DeepEqual.
func cityServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srvOnce.Do(func() {
		c, err := dataset.Generate(dataset.TestSpec("ServerCity", 91))
		if err != nil {
			panic(err)
		}
		srvCity = c
	})
	s, err := NewMultiCity(Options{Cities: []*dataset.City{srvCity}, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
}

// ratings builds a valid ratings map over the test city's schema.
func ratings(t *testing.T, shift int) map[string][]float64 {
	t.Helper()
	out := map[string][]float64{}
	for _, c := range poi.Categories {
		dim := srvCity.Schema.Dim(c)
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64((j + shift) % 6)
		}
		out[c.String()] = v
	}
	return out
}

func createGroup(t *testing.T, ts *httptest.Server, members int) int {
	t.Helper()
	req := createGroupRequest{}
	for i := 0; i < members; i++ {
		req.Members = append(req.Members, ratings(t, i))
	}
	var resp groupResponse
	doJSON(t, "POST", cityBase(ts)+"/groups", req, http.StatusCreated, &resp)
	if resp.Size != members {
		t.Fatalf("group size = %d", resp.Size)
	}
	return resp.ID
}

func createPackage(t *testing.T, ts *httptest.Server, groupID int) packageResponse {
	t.Helper()
	var resp packageResponse
	doJSON(t, "POST", cityBase(ts)+"/packages", createPackageRequest{
		GroupID: groupID, Consensus: "pairwise", K: 3,
	}, http.StatusCreated, &resp)
	return resp
}

func TestHealthAndCity(t *testing.T) {
	_, ts := testServer(t)
	var health healthResponse
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" {
		t.Fatalf("health = %+v", health)
	}
	if health.Registry.Known != 1 {
		t.Fatalf("registry stats = %+v", health.Registry)
	}
	var city cityResponse
	doJSON(t, "GET", cityBase(ts), nil, http.StatusOK, &city)
	if city.Name != "ServerCity" || city.Key != srvKey {
		t.Fatalf("city = %q (key %q)", city.Name, city.Key)
	}
	if city.Counts["attr"] == 0 || len(city.Schema["rest"]) == 0 {
		t.Fatalf("city response incomplete: %+v", city)
	}
	doJSON(t, "GET", ts.URL+"/cities/atlantis", nil, http.StatusNotFound, nil)
	// GET /cities lists the only city as loaded.
	var cities []citySummary
	doJSON(t, "GET", ts.URL+"/cities", nil, http.StatusOK, &cities)
	if len(cities) != 1 || cities[0].Key != srvKey || !cities[0].Loaded {
		t.Fatalf("cities = %+v", cities)
	}
	// After a build, the health report carries engine cache metrics.
	gid := createGroup(t, ts, 2)
	createPackage(t, ts, gid)
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health)
	ch, ok := health.Cities["servercity"]
	if !ok {
		t.Fatalf("loaded city missing from health: %+v", health)
	}
	if ch.Cache.Misses < 1 || ch.Cache.Cap != 64 || ch.Groups < 1 || ch.Packages < 1 {
		t.Fatalf("city health = %+v", ch)
	}
}

// TestRemovedSurfacesStayRemoved: every resource has one address, under
// /cities/{city}; the single-city /api tree, the default-city report, the
// WAL sync mode and the persistence flag (every server persists) are gone
// from the wire.
func TestRemovedSurfacesStayRemoved(t *testing.T) {
	_, ts := testServer(t)
	for _, r := range []struct {
		method, path string
		body         any
	}{
		{"GET", "/healthz", nil},
		{"GET", "/city", nil},
		{"POST", "/groups", groupRequest(t)},
	} {
		doJSON(t, r.method, ts.URL+"/api"+r.path, r.body, http.StatusNotFound, nil)
	}

	var health map[string]json.RawMessage
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health)
	for _, key := range []string{"city", "defaultCity", "walSync", "persistence"} {
		if _, ok := health[key]; ok {
			t.Errorf("/healthz still has %q", key)
		}
	}
	var cities []map[string]json.RawMessage
	doJSON(t, "GET", ts.URL+"/cities", nil, http.StatusOK, &cities)
	if len(cities) != 1 {
		t.Fatalf("/cities = %v", cities)
	}
	if _, ok := cities[0]["default"]; ok {
		t.Errorf("/cities row still has \"default\": %v", cities[0])
	}
}

func TestPOIQueries(t *testing.T) {
	_, ts := testServer(t)
	var pois []poiResponse
	doJSON(t, "GET", cityBase(ts)+"/pois?cat=rest&k=5", nil, http.StatusOK, &pois)
	if len(pois) != 5 {
		t.Fatalf("got %d POIs", len(pois))
	}
	for _, p := range pois {
		if p.Cat != "rest" {
			t.Fatalf("category filter violated: %+v", p)
		}
	}
	// Nearest query.
	doJSON(t, "GET", cityBase(ts)+"/pois?near=48.8566,2.3522&k=3", nil, http.StatusOK, &pois)
	if len(pois) != 3 {
		t.Fatalf("nearest returned %d", len(pois))
	}
	// Bad inputs.
	doJSON(t, "GET", cityBase(ts)+"/pois?cat=volcano", nil, http.StatusBadRequest, nil)
	doJSON(t, "GET", cityBase(ts)+"/pois?near=oops", nil, http.StatusBadRequest, nil)
	doJSON(t, "GET", cityBase(ts)+"/pois?k=-1", nil, http.StatusBadRequest, nil)
}

func TestGroupLifecycle(t *testing.T) {
	_, ts := testServer(t)
	id := createGroup(t, ts, 3)
	var got groupResponse
	doJSON(t, "GET", fmt.Sprintf("%s/groups/%d", cityBase(ts), id), nil, http.StatusOK, &got)
	if got.ID != id || got.Size != 3 {
		t.Fatalf("group = %+v", got)
	}
	if got.Uniformity < 0 || got.Uniformity > 1 {
		t.Fatalf("uniformity = %v", got.Uniformity)
	}
	doJSON(t, "GET", cityBase(ts)+"/groups/999", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", cityBase(ts)+"/groups/abc", nil, http.StatusNotFound, nil)
	// Empty group rejected.
	doJSON(t, "POST", cityBase(ts)+"/groups", createGroupRequest{}, http.StatusBadRequest, nil)
	// Bad ratings rejected.
	doJSON(t, "POST", cityBase(ts)+"/groups", createGroupRequest{
		Members: []map[string][]float64{{"rest": {9, 9}}},
	}, http.StatusBadRequest, nil)
}

func TestPackageLifecycle(t *testing.T) {
	_, ts := testServer(t)
	gid := createGroup(t, ts, 3)
	pkg := createPackage(t, ts, gid)
	if len(pkg.Days) != 3 || !pkg.Valid {
		t.Fatalf("package = %+v", pkg)
	}
	// Every day satisfies the default query: 6 items.
	for _, d := range pkg.Days {
		if len(d.Items) != 6 {
			t.Fatalf("day has %d items", len(d.Items))
		}
	}
	// GET with routes: walking distances appear and days reorder to start
	// at the accommodation.
	var routed packageResponse
	doJSON(t, "GET", fmt.Sprintf("%s/packages/%d?routes=1", cityBase(ts), pkg.ID), nil, http.StatusOK, &routed)
	for _, d := range routed.Days {
		if d.WalkKm <= 0 {
			t.Fatalf("routed day missing walk distance: %+v", d)
		}
		if d.Items[0].Cat != "acco" {
			t.Fatalf("routed day does not start at accommodation: %+v", d.Items[0])
		}
	}
	// Unknown group and bad consensus.
	doJSON(t, "POST", cityBase(ts)+"/packages", createPackageRequest{GroupID: 999}, http.StatusNotFound, nil)
	doJSON(t, "POST", cityBase(ts)+"/packages", createPackageRequest{GroupID: gid, Consensus: "nope"}, http.StatusBadRequest, nil)
	doJSON(t, "POST", cityBase(ts)+"/packages", createPackageRequest{GroupID: gid, K: 5000}, http.StatusBadRequest, nil)
	doJSON(t, "GET", cityBase(ts)+"/packages/424242", nil, http.StatusNotFound, nil)
}

func TestCustomizationOps(t *testing.T) {
	_, ts := testServer(t)
	gid := createGroup(t, ts, 3)
	pkg := createPackage(t, ts, gid)
	url := fmt.Sprintf("%s/packages/%d/ops", cityBase(ts), pkg.ID)

	// REMOVE the first item of day 1.
	target := pkg.Days[0].Items[0].ID
	var op opResponse
	doJSON(t, "POST", url, opRequest{Member: 0, Op: "remove", CI: 0, POI: target}, http.StatusOK, &op)
	if !op.Applied {
		t.Fatal("remove not applied")
	}
	// Removing again fails cleanly.
	doJSON(t, "POST", url, opRequest{Member: 0, Op: "remove", CI: 0, POI: target}, http.StatusUnprocessableEntity, nil)

	// REPLACE returns the recommendation.
	target2 := pkg.Days[0].Items[1].ID
	doJSON(t, "POST", url, opRequest{Member: 1, Op: "replace", CI: 0, POI: target2}, http.StatusOK, &op)
	if op.Replacement == nil || op.Replacement.Cat != pkg.Days[0].Items[1].Cat {
		t.Fatalf("replace response = %+v", op)
	}

	// ADD a nearby restaurant found via the POI API.
	var cands []poiResponse
	doJSON(t, "GET", fmt.Sprintf("%s/pois?cat=rest&near=%f,%f&k=8", cityBase(ts),
		pkg.Days[0].Centroid.Lat, pkg.Days[0].Centroid.Lon), nil, http.StatusOK, &cands)
	added := false
	for _, c := range cands {
		var addResp opResponse
		var buf bytes.Buffer
		_ = json.NewEncoder(&buf).Encode(opRequest{Member: 2, Op: "add", CI: 0, POI: c.ID})
		resp, err := http.Post(url, "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		_ = json.NewDecoder(resp.Body).Decode(&addResp)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && addResp.Applied {
			added = true
			break
		}
	}
	if !added {
		t.Fatal("no candidate could be added")
	}

	// GENERATE with a rectangle over the city.
	var city cityResponse
	doJSON(t, "GET", cityBase(ts), nil, http.StatusOK, &city)
	rect := map[string]float64{
		"Lat":    city.Bounds["lat"] - city.Bounds["height"]*0.25,
		"Lon":    city.Bounds["lon"] + city.Bounds["width"]*0.25,
		"Width":  city.Bounds["width"] * 0.5,
		"Height": city.Bounds["height"] * 0.5,
	}
	body := map[string]any{"member": 0, "op": "generate", "rect": rect}
	doJSON(t, "POST", url, body, http.StatusOK, &op)
	if op.NewCI == nil || len(op.NewCI.Items) == 0 {
		t.Fatalf("generate response = %+v", op)
	}

	// Bad ops.
	doJSON(t, "POST", url, opRequest{Member: 0, Op: "fly", CI: 0, POI: 1}, http.StatusBadRequest, nil)
	doJSON(t, "POST", url, opRequest{Member: 99, Op: "remove", CI: 0, POI: 1}, http.StatusBadRequest, nil)
	doJSON(t, "POST", url, opRequest{Member: 0, Op: "generate"}, http.StatusBadRequest, nil)
}

func TestRefineEndpoint(t *testing.T) {
	_, ts := testServer(t)
	gid := createGroup(t, ts, 3)
	pkg := createPackage(t, ts, gid)
	opsURL := fmt.Sprintf("%s/packages/%d/ops", cityBase(ts), pkg.ID)
	doJSON(t, "POST", opsURL, opRequest{Member: 0, Op: "remove", CI: 0, POI: pkg.Days[0].Items[0].ID}, http.StatusOK, nil)

	refineURL := fmt.Sprintf("%s/packages/%d/refine", cityBase(ts), pkg.ID)
	var ref refineResponse
	doJSON(t, "POST", refineURL, refineRequest{Strategy: "batch", Rebuild: true}, http.StatusOK, &ref)
	if ref.Operations != 1 || ref.NewPackage == nil {
		t.Fatalf("refine = %+v", ref)
	}
	if !ref.NewPackage.Valid || len(ref.NewPackage.Days) != len(pkg.Days) {
		t.Fatalf("rebuilt package = %+v", ref.NewPackage)
	}
	// Individual strategy without rebuild (fresh decode target: JSON
	// decoding does not reset absent fields).
	var ref2 refineResponse
	doJSON(t, "POST", refineURL, refineRequest{Strategy: "individual"}, http.StatusOK, &ref2)
	if ref2.Strategy != "individual" || ref2.NewPackage != nil {
		t.Fatalf("refine = %+v", ref2)
	}
	doJSON(t, "POST", refineURL, refineRequest{Strategy: "quantum"}, http.StatusBadRequest, nil)
	// Rebuild k is bounded like package creation.
	doJSON(t, "POST", refineURL, refineRequest{Strategy: "batch", Rebuild: true, K: 10000}, http.StatusBadRequest, nil)
}

func TestConcurrentRequests(t *testing.T) {
	// The server must survive concurrent package builds and reads (the
	// shared engine is concurrency-safe; builds run outside the registry
	// lock and proceed in parallel).
	_, ts := testServer(t)
	gid := createGroup(t, ts, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			_ = json.NewEncoder(&buf).Encode(createPackageRequest{GroupID: gid, K: 2})
			resp, err := http.Post(cityBase(ts)+"/packages", "application/json", &buf)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWeightedPackage builds over HTTP with every consensus name the
// server accepts and checks the profile each package was built from:
// weighted builds use GroupProfileWeighted (zero weights drop members),
// unweighted builds use GroupProfile through the group's memo, and an
// invalid weight vector is a 400 that registers no package and logs no
// WAL record.
func TestWeightedPackage(t *testing.T) {
	srv, ts := testServer(t)
	key := srvKey
	c, err := srv.Registry().Get(key)
	if err != nil {
		t.Fatal(err)
	}
	cs := c.State
	gid := createGroup(t, ts, 4)
	gs, err := cs.lookupGroup(gid)
	if err != nil {
		t.Fatal(err)
	}
	build := func(name string, weights []float64) *profile.Profile {
		t.Helper()
		var resp packageResponse
		doJSON(t, "POST", cityBase(ts)+"/packages", createPackageRequest{
			GroupID: gid, Consensus: name, K: 2, Weights: weights,
		}, http.StatusCreated, &resp)
		if !resp.Valid {
			t.Fatalf("%s: package invalid", name)
		}
		ps, _, err := cs.packageByID(strconv.Itoa(resp.ID))
		if err != nil {
			t.Fatal(err)
		}
		ps.mu.Lock()
		defer ps.mu.Unlock()
		return ps.session.Package().Group
	}

	weights := []float64{3, 0, 1, 0}
	names := []string{"avg", "leastmisery", "pairwise", "variance", "mostpleasure", "avgnomisery"}
	for _, name := range names {
		method, _, err := methodByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := consensus.GroupProfileWeighted(gs.group, method, weights)
		if err != nil {
			t.Fatal(err)
		}
		if got := build(name, weights); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: weighted package profile differs from GroupProfileWeighted", name)
		}
		want, err = consensus.GroupProfile(gs.group, method)
		if err != nil {
			t.Fatal(err)
		}
		first := build(name, nil)
		if !reflect.DeepEqual(first, want) {
			t.Fatalf("%s: unweighted package profile differs from GroupProfile", name)
		}
		if second := build(name, nil); second != first {
			t.Fatalf("%s: second unweighted build did not reuse the memoized profile", name)
		}
	}

	packages := func() int {
		cs.mu.RLock()
		defer cs.mu.RUnlock()
		return len(cs.packages)
	}
	bad := map[string][]float64{
		"wrong count": {1},
		"negative":    {1, -1, 1, 1},
		"all zero":    {0, 0, 0, 0},
		"overflowing": {1e308, 1e308, 1, 1},
	}
	for _, name := range names {
		for what, w := range bad {
			n, head := packages(), primaryHead(t, srv, key)
			doJSON(t, "POST", cityBase(ts)+"/packages", createPackageRequest{
				GroupID: gid, Consensus: name, K: 2, Weights: w,
			}, http.StatusBadRequest, nil)
			if packages() != n || primaryHead(t, srv, key) != head {
				t.Fatalf("%s, %s weights: rejected build registered a package or logged a record", name, what)
			}
		}
	}
}
