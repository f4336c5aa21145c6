package server

import (
	"fmt"
	"net/http"
	"testing"
)

// groupRequest builds a valid 3-member group-create body.
func groupRequest(t *testing.T) map[string]any {
	t.Helper()
	var members []map[string][]float64
	for m := 0; m < 3; m++ {
		members = append(members, ratings(t, m))
	}
	return map[string]any{"members": members}
}

// TestAppliedSeqStampedOnCityGETs pins the freshness-validation header:
// every city-scoped GET carries X-GT-Applied-Seq naming the city's
// applied WAL position, and the stamp
// advances with each committed mutation. Any client (a router's edge
// cache in particular) can therefore validate what state a cached body
// reflects without a second round trip.
func TestAppliedSeqStampedOnCityGETs(t *testing.T) {
	_, ts := testServer(t)
	key := srvKey

	getHdr := func(path string, wantStatus int) http.Header {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		return resp.Header
	}

	// Before any mutation the sequence space is empty: no stamp.
	if got := getHdr("/cities/"+key, http.StatusOK).Get(HeaderAppliedSeq); got != "" {
		t.Fatalf("pre-mutation GET stamped X-GT-Applied-Seq = %q, want none", got)
	}

	var g struct {
		ID  int   `json:"id"`
		Seq int64 `json:"seq"`
	}
	doJSON(t, "POST", ts.URL+"/cities/"+key+"/groups", groupRequest(t), http.StatusCreated, &g)
	if g.Seq != 1 {
		t.Fatalf("first mutation committed at seq %d, want 1", g.Seq)
	}

	// Repeated reads carry the same stamp.
	for i, path := range []string{
		"/cities/" + key,
		"/cities/" + key,
		"/cities/" + key + "/pois?k=3",
		fmt.Sprintf("/cities/%s/groups/%d", key, g.ID),
	} {
		if got := getHdr(path, http.StatusOK).Get(HeaderAppliedSeq); got != "1" {
			t.Fatalf("GET %d %s: X-GT-Applied-Seq = %q, want \"1\"", i, path, got)
		}
	}

	// Even a 404 carries the stamp: the *absence* of an entity is state
	// at a sequence too.
	if got := getHdr("/cities/"+key+"/groups/999", http.StatusNotFound).Get(HeaderAppliedSeq); got != "1" {
		t.Fatalf("404 GET: X-GT-Applied-Seq = %q, want \"1\"", got)
	}

	// A second commit advances the stamp.
	doJSON(t, "POST", ts.URL+"/cities/"+key+"/groups", groupRequest(t), http.StatusCreated, &g)
	if got := getHdr("/cities/"+key, http.StatusOK).Get(HeaderAppliedSeq); got != "2" {
		t.Fatalf("post-second-mutation GET: X-GT-Applied-Seq = %q, want \"2\"", got)
	}
}
