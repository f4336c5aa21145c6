package server

import (
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"grouptravel/internal/dataset"
	"grouptravel/internal/store"
)

// FuzzCityRecovery writes arbitrary bytes as a city's write-ahead log and
// loads the city the way a restarting server does. Recovery applies every
// record through applyRecord, the function replication applies shipped
// frames through, so this fuzzes what records mean, not just how they are
// framed. Loading must never panic and never fail — corruption is
// reported on /healthz, not returned — and the repair must be a fixpoint:
// a second load of the repaired files recovers the same state with
// nothing truncated.
func FuzzCityRecovery(f *testing.F) {
	city, err := dataset.Generate(dataset.TestSpec("FuzzRecovery", 93))
	if err != nil {
		f.Fatal(err)
	}
	const key = "fuzzrecovery"
	opts := func(dir string) Options {
		return Options{Cities: []*dataset.City{city}, SnapshotDir: dir}
	}

	// Seeds: a real log holding one record of every kind — a group, a
	// package, each of the four ops and a refine rebuild — plus torn,
	// bit-flipped, headerless and trivial variants of it.
	seedDir := f.TempDir()
	s, err := NewMultiCity(opts(seedDir))
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	base := ts.URL + "/cities/" + key
	gid, err := mcCreateGroup(ts, city, key)
	if err != nil {
		f.Fatal(err)
	}
	var pkg packageResponse
	if err := tryJSON(ts, "POST", base+"/packages", createPackageRequest{GroupID: gid, K: 2}, 201, &pkg); err != nil {
		f.Fatal(err)
	}
	victim := pkg.Days[0].Items[0].ID
	bounds := city.POIs.Bounds()
	for _, op := range []opRequest{
		{Member: 0, Op: "remove", POI: victim},
		{Member: 1, Op: "add", POI: victim},
		{Member: 2, Op: "replace", CI: 1, POI: pkg.Days[1].Items[0].ID},
		{Member: 0, Op: "generate", Rect: &bounds},
	} {
		if err := tryJSON(ts, "POST", fmt.Sprintf("%s/packages/%d/ops", base, pkg.ID), op, 200, nil); err != nil {
			f.Fatal(err)
		}
	}
	if err := tryJSON(ts, "POST", fmt.Sprintf("%s/packages/%d/refine", base, pkg.ID),
		refineRequest{Strategy: "individual", Rebuild: true, K: 2}, 200, nil); err != nil {
		f.Fatal(err)
	}
	ts.Close()
	s.Close()
	good, err := os.ReadFile(store.WALPath(seedDir, key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-7]) // torn tail
	f.Add(good[:len(good)/2]) // torn mid-stream
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add([]byte("GTWALv1\n")) // bare header
	f.Add([]byte("not a log")) // bad header
	f.Add([]byte{})            // empty file

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(store.WALPath(dir, key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		load := func() (*store.ServerState, *walHealth) {
			s, err := NewMultiCity(opts(dir))
			if err != nil {
				t.Fatal(err)
			}
			c, err := s.Registry().Get(key)
			if err != nil {
				t.Fatalf("a damaged log failed the load: %v", err)
			}
			defer s.Close()
			return captureState(t, s, key), c.State.health().WAL
		}
		st1, h1 := load()
		st2, h2 := load()
		if h2.ReplayTruncated != "" || h2.Replayed != h1.Replayed {
			t.Fatalf("repair not a fixpoint: first %+v, second %+v", h1, h2)
		}
		if !reflect.DeepEqual(st1, st2) {
			t.Fatalf("repaired log recovers a different state:\nfirst:  %+v\nsecond: %+v", st1, st2)
		}
	})
}
