package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

// Read freshness. A reader can never observe state older than the last
// acknowledged mutation: a hammering concurrent reader pool must never
// let a just-acknowledged op read back stale (run under `make race`), and
// a follower applying shipped frames must serve them on its next read
// exactly like a primary serves its own commits.

// getBody fetches url and returns the raw bytes, demanding status 200
// and a Content-Length header that matches the body (writeJSON always
// knows its length up front).
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("GET %s: Content-Length %d, body %d bytes", url, resp.ContentLength, len(body))
	}
	return body
}

// itemCount totals the POIs across a package's days.
func itemCount(p packageResponse) int {
	n := 0
	for _, d := range p.Days {
		n += len(d.Items)
	}
	return n
}

// TestReadAfterWriteNeverStale alternates remove/add ops on one package
// while a pool of concurrent readers hammers the same read URL, and after
// every acknowledged op demands the next read reflect it. Under -race
// (`make race`) this is also the read path's data-race proof against
// concurrent session mutations.
func TestReadAfterWriteNeverStale(t *testing.T) {
	_, ts := testServer(t)
	gid := createGroup(t, ts, 3)
	pkg := createPackage(t, ts, gid)
	pkgURL := fmt.Sprintf("%s/packages/%d", cityBase(ts), pkg.ID)
	opsURL := pkgURL + "/ops"
	victim := pkg.Days[0].Items[0].ID
	base := itemCount(pkg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(pkgURL)
				if err != nil {
					return // server shutting down
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	for i := 0; i < 24; i++ {
		op, want := "remove", base-1
		if i%2 == 1 {
			op, want = "add", base
		}
		doJSON(t, "POST", opsURL, opRequest{Member: 0, Op: op, CI: 0, POI: victim}, http.StatusOK, nil)
		var cur packageResponse
		doJSON(t, "GET", pkgURL, nil, http.StatusOK, &cur)
		if got := itemCount(cur); got != want {
			t.Fatalf("op %d (%s): read %d items immediately after the ack, want %d — a stale read", i, op, got, want)
		}
	}
	close(stop)
	wg.Wait()
}

// TestFollowerReadReflectsAppliedFrames: a follower serves a replicated
// package, then applies a further shipped frame — the next read on the
// follower must reflect it, exactly as a read on the primary reflects a
// local commit.
func TestFollowerReadReflectsAppliedFrames(t *testing.T) {
	_, pts, f, fts := replicationPair(t,
		Options{SnapshotDir: t.TempDir()},
		Options{SnapshotDir: t.TempDir()})

	city, key := mcCities[0], mcKeys[0]
	gid, err := mcCreateGroup(pts, city, key)
	if err != nil {
		t.Fatal(err)
	}
	var pkg packageResponse
	if err := tryJSON(pts, "POST", pts.URL+"/cities/"+key+"/packages", createPackageRequest{
		GroupID: gid, Consensus: "pairwise", K: 2,
	}, http.StatusCreated, &pkg); err != nil {
		t.Fatal(err)
	}
	if err := f.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}

	pkgPath := fmt.Sprintf("/cities/%s/packages/%d", key, pkg.ID)
	var before packageResponse
	if err := tryJSON(fts, "GET", fts.URL+pkgPath, nil, http.StatusOK, &before); err != nil {
		t.Fatal(err)
	}
	if itemCount(before) != itemCount(pkg) {
		t.Fatalf("follower read %d items of the replicated package, want %d", itemCount(before), itemCount(pkg))
	}

	victim := pkg.Days[0].Items[0].ID
	if err := tryJSON(pts, "POST", pts.URL+pkgPath+"/ops", opRequest{
		Member: 0, Op: "remove", CI: 0, POI: victim,
	}, http.StatusOK, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Follower().CatchUp(testTimeout()); err != nil {
		t.Fatal(err)
	}

	var got packageResponse
	if err := json.Unmarshal(getBody(t, fts.URL+pkgPath), &got); err != nil {
		t.Fatal(err)
	}
	if want := itemCount(pkg) - 1; itemCount(got) != want {
		t.Fatalf("follower read %d items after applying the remove, want %d", itemCount(got), want)
	}
}
