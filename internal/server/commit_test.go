package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"testing"

	"grouptravel/internal/dataset"
)

// mutationCase is one city mutation route with a body that succeeds when
// the cases run in order.
type mutationCase struct {
	name   string
	path   string // below /cities/{city}
	body   any
	status int // the status it answers when it succeeds
}

// cityMutations lists every city mutation route over group gid and its
// built package pkg: group create, build, each of the four §3.3 ops, and
// refine without and with rebuild.
func cityMutations(city *dataset.City, gid int, pkg packageResponse) []mutationCase {
	greq := createGroupRequest{}
	for i := 0; i < 3; i++ {
		greq.Members = append(greq.Members, mcRatings(city, i))
	}
	victim := pkg.Days[0].Items[0].ID
	bounds := city.POIs.Bounds()
	ops := fmt.Sprintf("/packages/%d/ops", pkg.ID)
	refine := fmt.Sprintf("/packages/%d/refine", pkg.ID)
	return []mutationCase{
		{"group", "/groups", greq, http.StatusCreated},
		{"build", "/packages", createPackageRequest{GroupID: gid, K: 2}, http.StatusCreated},
		{"remove", ops, opRequest{Member: 0, Op: "remove", CI: 0, POI: victim}, http.StatusOK},
		{"add", ops, opRequest{Member: 1, Op: "add", CI: 0, POI: victim}, http.StatusOK},
		{"replace", ops, opRequest{Member: 2, Op: "replace", CI: 1, POI: pkg.Days[1].Items[0].ID}, http.StatusOK},
		{"generate", ops, opRequest{Member: 0, Op: "generate", Rect: &bounds}, http.StatusOK},
		{"refine", refine, refineRequest{Strategy: "batch"}, http.StatusOK},
		{"refine+rebuild", refine, refineRequest{Strategy: "individual", Rebuild: true, K: 2}, http.StatusOK},
	}
}

// postMutation sends one JSON mutation and returns its status, headers
// and body.
func postMutation(t *testing.T, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// seedPackage creates a group and a two-day package for it in the shared
// test city.
func seedPackage(t *testing.T, base string) (int, packageResponse) {
	t.Helper()
	var g groupResponse
	doJSON(t, "POST", base+"/groups", groupRequest(t), http.StatusCreated, &g)
	var pkg packageResponse
	doJSON(t, "POST", base+"/packages", createPackageRequest{GroupID: g.ID, K: 2}, http.StatusCreated, &pkg)
	return g.ID, pkg
}

// TestEveryMutationCarriesItsCommitToken: a 2xx mutation either names the
// log record it committed — X-GT-City and X-GT-Seq equal to the log's new
// head, one past the old — or leaves the head where it was. Only a refine
// without rebuild commits nothing, so only it answers without a token: a
// router can trust a token-less 2xx to have changed no state.
func TestEveryMutationCarriesItsCommitToken(t *testing.T) {
	s, ts := testServer(t)
	gid, pkg := seedPackage(t, cityBase(ts))
	c, err := s.Registry().Get(srvKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cityMutations(srvCity, gid, pkg) {
		before := c.State.wal.LastSeq()
		status, hdr, body := postMutation(t, cityBase(ts)+m.path, m.body)
		if status != m.status {
			t.Fatalf("%s: status %d, want %d: %s", m.name, status, m.status, body)
		}
		head := c.State.wal.LastSeq()
		tok := hdr.Get(HeaderSeq)
		switch {
		case tok != "" && (tok != strconv.FormatInt(head, 10) || head != before+1 || hdr.Get(HeaderCity) != srvKey):
			t.Fatalf("%s: token %s/%s, log head %d -> %d", m.name, hdr.Get(HeaderCity), tok, before, head)
		case tok == "" && head != before:
			t.Fatalf("%s: committed seq %d without a token", m.name, head)
		case (tok == "") != (m.name == "refine"):
			t.Fatalf("%s: token %q; only a refine without rebuild commits nothing", m.name, tok)
		}
	}
}

// TestWALFailureAnswers503: on a city whose log is closed, each mutation
// kind — group create, build, an op, a refine with rebuild — answers 503
// without a commit token and installs nothing; /healthz names the
// failure, and a restart recovers exactly the state from before the
// failed writes. The ids the refused creates reserved are burned: the
// allocator stays past them until the process ends.
func TestWALFailureAnswers503(t *testing.T) {
	dir := t.TempDir()
	s, ts := cityServer(t, dir)
	gid, pkg := seedPackage(t, cityBase(ts))
	before := captureState(t, s, srvKey)
	c, err := s.Registry().Get(srvKey)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.State.wal.Close()

	refused := map[string]bool{"group": true, "build": true, "remove": true, "refine+rebuild": true}
	for _, m := range cityMutations(srvCity, gid, pkg) {
		if !refused[m.name] {
			continue
		}
		status, hdr, body := postMutation(t, cityBase(ts)+m.path, m.body)
		if status != http.StatusServiceUnavailable || hdr.Get(HeaderSeq) != "" || hdr.Get(HeaderCity) != "" {
			t.Fatalf("%s on a closed log: status %d, token %s/%s, want 503 without a token: %s",
				m.name, status, hdr.Get(HeaderCity), hdr.Get(HeaderSeq), body)
		}
	}
	after := captureState(t, s, srvKey)
	if after.NextID != before.NextID+3 {
		t.Fatalf("allocator at %d after three refused creates, want %d", after.NextID, before.NextID+3)
	}
	after.NextID = before.NextID
	if !reflect.DeepEqual(before, after) {
		t.Fatal("a refused write changed the serving state")
	}
	var health healthResponse
	if err := tryJSON(ts, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health); err != nil {
		t.Fatal(err)
	}
	if health.Cities[srvKey].PersistErr == "" {
		t.Fatalf("the append failure is not on /healthz: %+v", health.Cities)
	}

	s2, _ := cityServer(t, dir)
	if got := captureState(t, s2, srvKey); !reflect.DeepEqual(before, got) {
		t.Fatalf("restart recovered a different state:\nwant: %+v\ngot:  %+v", before, got)
	}
}

// TestAcknowledgedWriteSurvivesRestart is a write on a closed log followed
// by a plain restart of the same node. Every id a 2xx named before the
// restart still answers 200 after it, and the next write is not handed an
// id a 2xx already named.
func TestAcknowledgedWriteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, ts := cityServer(t, dir)
	named := map[int]bool{}
	create := func(base string) {
		t.Helper()
		status, _, body := postMutation(t, base+"/groups", groupRequest(t))
		if status/100 != 2 {
			return
		}
		var g groupResponse
		if err := json.Unmarshal(body, &g); err != nil {
			t.Fatal(err)
		}
		if named[g.ID] {
			t.Fatalf("group id %d handed out twice", g.ID)
		}
		named[g.ID] = true
	}
	create(cityBase(ts))
	c, err := s.Registry().Get(srvKey)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.State.wal.Close()
	create(cityBase(ts))

	_, ts2 := cityServer(t, dir)
	for id := range named {
		if err := tryJSON(ts2, "GET", fmt.Sprintf("%s/groups/%d", cityBase(ts2), id), nil, http.StatusOK, nil); err != nil {
			t.Fatalf("group %d was acknowledged before the restart: %v", id, err)
		}
	}
	n := len(named)
	create(cityBase(ts2))
	if len(named) != n+1 {
		t.Fatal("the first write after the restart failed")
	}
}
