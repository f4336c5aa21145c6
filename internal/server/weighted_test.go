package server

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"grouptravel/internal/consensus"
	"grouptravel/internal/core"
	"grouptravel/internal/dataset"
	"grouptravel/internal/interact"
	"grouptravel/internal/profile"
)

// TestWeightedRefineIndividual: a weighted package keeps its weights
// through individual refinement. A member with weight 0 and a weighted
// member both customize; the individual rebuild must equal an engine
// build from GroupProfileWeighted over the refined members — the
// zero-weight member's ops refine that member's own profile, but it
// still counts for nothing in the group's. The refined package inherits
// the weights, and they survive a restart through WAL replay and through
// a snapshot, and reach a follower.
func TestWeightedRefineIndividual(t *testing.T) {
	snapDir := t.TempDir()
	primary, pts, follower, _ := replicationPair(t, Options{SnapshotDir: snapDir}, Options{SnapshotDir: t.TempDir()})
	key, city := mcKeys[0], mcCities[0]
	base := pts.URL + "/cities/" + key
	weights := []float64{2, 0, 1}

	gid, err := mcCreateGroup(pts, city, key)
	if err != nil {
		t.Fatal(err)
	}
	var pkg packageResponse
	if err := tryJSON(pts, "POST", base+"/packages", createPackageRequest{
		GroupID: gid, Consensus: "avg", K: 3, Weights: weights,
	}, 201, &pkg); err != nil {
		t.Fatal(err)
	}
	for _, op := range []opRequest{
		{Member: 1, Op: "remove", CI: 0, POI: pkg.Days[0].Items[0].ID},
		{Member: 2, Op: "replace", CI: 1, POI: pkg.Days[1].Items[0].ID},
	} {
		if err := tryJSON(pts, "POST", fmt.Sprintf("%s/packages/%d/ops", base, pkg.ID), op, 200, nil); err != nil {
			t.Fatal(err)
		}
	}

	pkgState := func(s *Server, id int) *packageState {
		t.Helper()
		c, err := s.Registry().Get(key)
		if err != nil {
			t.Fatal(err)
		}
		ps, _, err := c.State.packageByID(strconv.Itoa(id))
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	// The expected rebuild, computed beside the server from the same
	// members, ops and query.
	c, err := primary.Registry().Get(key)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := c.State.lookupGroup(gid)
	if err != nil {
		t.Fatal(err)
	}
	ps := pkgState(primary, pkg.ID)
	ps.mu.Lock()
	ops := append([]interact.Op(nil), ps.session.Log()...)
	q := ps.session.Package().Query
	ps.mu.Unlock()
	members, unweighted, err := interact.RefineIndividual(gs.group, consensus.AveragePref, ops)
	if err != nil {
		t.Fatal(err)
	}
	want, err := consensus.GroupProfileWeighted(members, consensus.AveragePref, weights)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want, unweighted) {
		t.Fatal("fixture cannot tell weighted from unweighted aggregation")
	}
	wantTP, err := c.State.engine.Build(want, q, core.DefaultParams(3))
	if err != nil {
		t.Fatal(err)
	}

	// refine rebuilds individually on s and returns the new package's
	// profile, checking the package inherited the weights.
	refine := func(s *Server, url string) *profile.Profile {
		t.Helper()
		var ref refineResponse
		if err := tryJSON(nil, "POST", fmt.Sprintf("%s/cities/%s/packages/%d/refine", url, key, pkg.ID),
			refineRequest{Strategy: "individual", Rebuild: true, K: 3}, 200, &ref); err != nil {
			t.Fatal(err)
		}
		nps := pkgState(s, ref.NewPackage.ID)
		if !slices.Equal(nps.weights, weights) {
			t.Fatalf("refined package weights %v, want %v", nps.weights, weights)
		}
		nps.mu.Lock()
		defer nps.mu.Unlock()
		return nps.session.Package().Group
	}
	var ref refineResponse
	if err := tryJSON(pts, "POST", fmt.Sprintf("%s/packages/%d/refine", base, pkg.ID),
		refineRequest{Strategy: "individual", Rebuild: true, K: 3}, 200, &ref); err != nil {
		t.Fatal(err)
	}
	refined := pkgState(primary, ref.NewPackage.ID)
	refined.mu.Lock()
	got := refined.session.Package()
	refined.mu.Unlock()
	if !reflect.DeepEqual(got, wantTP) {
		t.Fatal("individual rebuild of a weighted package differs from a build over GroupProfileWeighted of the refined members")
	}
	if !slices.Equal(refined.weights, weights) {
		t.Fatalf("refined package weights %v, want %v", refined.weights, weights)
	}

	// Replication: the follower holds both packages' weights.
	if err := follower.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{pkg.ID, ref.NewPackage.ID} {
		if w := pkgState(follower, id).weights; !slices.Equal(w, weights) {
			t.Fatalf("follower package %d weights %v, want %v", id, w, weights)
		}
	}

	// Restart through WAL replay, then through a snapshot: the refine
	// still aggregates with the weights.
	restart := func() (*Server, string) {
		t.Helper()
		s, err := NewMultiCity(Options{Cities: []*dataset.City{city}, SnapshotDir: snapDir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts.URL
	}
	replayed, rurl := restart()
	if !reflect.DeepEqual(refine(replayed, rurl), want) {
		t.Fatal("after WAL replay, individual refinement ignores the package's weights")
	}
	compactCity(t, replayed, key)
	snapshotted, surl := restart()
	if !reflect.DeepEqual(refine(snapshotted, surl), want) {
		t.Fatal("after a snapshot load, individual refinement ignores the package's weights")
	}
}
