package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// pkgFingerprint is everything a package build decides, minus the
// registry-assigned id.
func pkgFingerprint(t *testing.T, p packageResponse) string {
	t.Helper()
	p.ID = 0
	p.Seq = 0 // the commit token is per-mutation, not package content
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestConcurrentPackageBuildsMatchSequential hammers the group/package
// endpoints from many goroutines and asserts every response is identical
// to the sequential run of the same request on a fresh server. Under
// -race this also certifies the lock-sharded handler paths.
func TestConcurrentPackageBuildsMatchSequential(t *testing.T) {
	// Sequential ground truth.
	_, seqTS := testServer(t)
	seqGID := createGroup(t, seqTS, 4)
	type workload struct {
		consensus string
		k         int
		weights   []float64
	}
	workloads := []workload{
		{"pairwise", 2, nil}, {"avg", 2, nil}, {"leastmisery", 3, nil}, {"variance", 3, nil},
		{"pairwise", 2, []float64{2, 0, 1, 1}}, {"avg", 3, []float64{1, 3, 0, 1}},
	}
	want := make([]string, len(workloads))
	for i, wl := range workloads {
		var resp packageResponse
		doJSON(t, "POST", cityBase(seqTS)+"/packages", createPackageRequest{
			GroupID: seqGID, Consensus: wl.consensus, K: wl.k, Weights: wl.weights,
		}, 201, &resp)
		want[i] = pkgFingerprint(t, resp)
	}

	// Concurrent run on a fresh server over the same city.
	_, ts := testServer(t)
	gid := createGroup(t, ts, 4)
	const goroutines = 8
	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(workloads))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for off := 0; off < len(workloads); off++ {
					i := (g + off) % len(workloads)
					wl := workloads[i]
					var resp packageResponse
					if err := tryJSON(ts, "POST", cityBase(ts)+"/packages", createPackageRequest{
						GroupID: gid, Consensus: wl.consensus, K: wl.k, Weights: wl.weights,
					}, 201, &resp); err != nil {
						errs <- err
						return
					}
					if got := pkgFingerprint(t, resp); got != want[i] {
						errs <- fmt.Errorf("workload %d: concurrent response differs from sequential:\n%s\nvs\n%s", i, got, want[i])
						return
					}
					// Re-read the package concurrently with other builds.
					var read packageResponse
					if err := tryJSON(ts, "GET", fmt.Sprintf("%s/packages/%d", cityBase(ts), resp.ID), nil, 200, &read); err != nil {
						errs <- err
						return
					}
					if got := pkgFingerprint(t, read); got != want[i] {
						errs <- fmt.Errorf("workload %d: GET differs from POST response", i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentOpsAndRefine exercises the per-package locks: each
// goroutine owns one package and customizes + refines it while the others
// do the same. Mutations on distinct packages must proceed independently.
func TestConcurrentOpsAndRefine(t *testing.T) {
	_, ts := testServer(t)
	gid := createGroup(t, ts, 3)
	const goroutines = 8
	ids := make([]int, goroutines)
	firstItems := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		pkg := createPackage(t, ts, gid)
		ids[g] = pkg.ID
		firstItems[g] = pkg.Days[0].Items[0].ID
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opsURL := fmt.Sprintf("%s/packages/%d/ops", cityBase(ts), ids[g])
			if err := tryJSON(ts, "POST", opsURL, opRequest{Member: 0, Op: "remove", CI: 0, POI: firstItems[g]}, 200, nil); err != nil {
				errs <- fmt.Errorf("package %d remove: %w", ids[g], err)
				return
			}
			refineURL := fmt.Sprintf("%s/packages/%d/refine", cityBase(ts), ids[g])
			var ref refineResponse
			if err := tryJSON(ts, "POST", refineURL, refineRequest{Strategy: "batch", Rebuild: true}, 200, &ref); err != nil {
				errs <- fmt.Errorf("package %d refine: %w", ids[g], err)
				return
			}
			if ref.Operations != 1 || ref.NewPackage == nil {
				errs <- fmt.Errorf("package %d refine = %+v", ids[g], ref)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// tryJSON is doJSON returning errors instead of failing the test, for use
// on non-test goroutines (t.Fatal must only run on the test goroutine).
func tryJSON(_ *httptest.Server, method, url string, body any, wantStatus int, out any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
	}
	return nil
}
