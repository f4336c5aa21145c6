package store

import (
	"os"
	"strings"
	"testing"

	"grouptravel/internal/dataset"
	"grouptravel/internal/poi"
)

// FuzzLoadProfile feeds arbitrary bytes to the profile loader: persisted
// files may be hand-edited or corrupted, and the loader must fail cleanly
// (error, never panic) and never return an out-of-range profile.
func FuzzLoadProfile(f *testing.F) {
	seeds := []string{
		`{"version":1,"acco":[0.5,0],"trans":[1,0],"rest":[0.2,0.8],"attr":[0,1]}`,
		`{"version":999}`,
		`{"acco":[2]}`,
		`{]`,
		``,
		`null`,
		`{"version":1,"acco":[1e308,0],"trans":[0,0],"rest":[0,0],"attr":[0,0]}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schema := poi.NewSchema([]string{"a", "b"}, []string{"c", "d"}, []string{"e", "f"}, []string{"g", "h"})
	f.Fuzz(func(t *testing.T, s string) {
		p, err := LoadProfile(strings.NewReader(s), schema)
		if err != nil {
			return // clean failure is the contract
		}
		for _, c := range poi.Categories {
			if !p.Vector(c).InUnitRange() {
				t.Fatalf("loader accepted out-of-range profile from %q", s)
			}
			if len(p.Vector(c)) != schema.Dim(c) {
				t.Fatalf("loader accepted wrong-dimension profile from %q", s)
			}
		}
	})
}

// FuzzLoadServerState feeds arbitrary bytes to the full-state snapshot
// loader. Snapshots live on disk across restarts, the prime target for
// corruption — the loader must fail cleanly (error, never panic) and
// anything it does accept must satisfy the registry invariants a restarted
// server relies on. The seeds include a full snapshot from each writer the
// loader must read: the compact streamed one SaveServerState writes, and
// the indented one with memoized profiles earlier versions wrote.
func FuzzLoadServerState(f *testing.F) {
	city := city(f)
	seeds := []string{
		`{"version":1,"city":"StoreCity","nextId":1,"groups":[],"packages":[]}`,
		`{"version":1,"city":"StoreCity","nextId":0,"groups":[{"id":1}]}`,
		`{"version":1,"city":"Atlantis","nextId":1}`,
		`{"version":99}`,
		`{"version":1,"city":"StoreCity","nextId":3,"groups":[{"id":1},{"id":1}]}`,
		`{"version":1,"city":"StoreCity","nextId":3,"packages":[{"id":1,"groupId":9,
		  "package":{"version":1,"city":"StoreCity","query":{"Acco":1,"Trans":0,"Rest":0,"Attr":0,"Budget":0},"cis":[]}}]}`,
		`{"version":1,"city":"StoreCity","nextId":2,"groups":[{"id":-1}]}`,
		`{]`,
		``,
		`null`,
		stateJSON(f, buildState(f)),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	indented, err := os.ReadFile("testdata/snapshot_indented_profiles.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(indented))
	f.Fuzz(func(t *testing.T, s string) {
		st, err := LoadServerState(strings.NewReader(s), city)
		if err != nil {
			return // clean failure is the contract
		}
		seen := map[int]bool{}
		sizes := map[int]int{}
		for _, gr := range st.Groups {
			if gr.ID < 1 || gr.ID >= st.NextID || seen[gr.ID] || gr.Group == nil {
				t.Fatalf("loader accepted invalid group record %+v from %q", gr, s)
			}
			seen[gr.ID] = true
			sizes[gr.ID] = gr.Group.Size()
		}
		for _, pr := range st.Packages {
			size, ok := sizes[pr.GroupID]
			if pr.ID < 1 || pr.ID >= st.NextID || seen[pr.ID] || pr.Package == nil || !ok ||
				len(pr.Weights) > 0 && len(pr.Weights) != size {
				t.Fatalf("loader accepted invalid package record from %q", s)
			}
			seen[pr.ID] = true
		}
	})
}

// FuzzReplayWAL feeds arbitrary bytes to the write-ahead-log replayer.
// Log files sit on disk across crashes — torn tails and bit rot are their
// expected failure modes, not edge cases — so the replayer must never
// panic, must pass on exactly the surviving prefix, and its in-place
// repair must be a fixpoint: replaying the repaired file again decodes the
// same records with nothing further truncated. (What the records do to a
// city's state is the server's; FuzzCityRecovery fuzzes that.)
func FuzzReplayWAL(f *testing.F) {
	city, err := dataset.Generate(dataset.TestSpec("FuzzWALCity", 84))
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: a real record stream (group + package + ops + refine), plus
	// torn, bit-flipped, headerless and trivial variants of it.
	seedDir := f.TempDir()
	fx := makeWALFixture(f)
	writeWAL(f, seedDir, "seed", fx.records)
	good, err := os.ReadFile(WALPath(seedDir, "seed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-7])  // torn tail
	f.Add(good[:len(good)/2])  // torn mid-stream
	f.Add(good[:walHeaderLen]) // header only
	f.Add([]byte{})            // missing/empty file
	f.Add([]byte("GTWALv1\n")) // bare header
	f.Add([]byte("not a log")) // bad header
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := WALPath(dir, "fuzz")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Fuzz seeds were written against the fixture's city; replay here
		// runs against FuzzWALCity, so even "valid" streams exercise the
		// undecodable-record path (unknown POIs, schema mismatches).
		var recs, recs2 []Record
		info, err := ReplayWAL(dir, "fuzz", city, 0, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			t.Fatalf("replay returned I/O error on in-memory data: %v", err)
		}
		if info == nil || len(recs) != info.Records {
			t.Fatalf("replay passed %d records, info %+v", len(recs), info)
		}
		// Repair fixpoint: the truncated (or quarantined) file replays
		// cleanly to the identical record stream.
		info2, err := ReplayWAL(dir, "fuzz", city, 0, func(r Record) error {
			recs2 = append(recs2, r)
			return nil
		})
		if err != nil {
			t.Fatalf("repaired replay errored: %v", err)
		}
		if info2.Truncated != "" || info2.Records != info.Records || info2.LastSeq != info.LastSeq {
			t.Fatalf("repair not a fixpoint: first %+v, second %+v", info, info2)
		}
		if streamJSON(t, recs) != streamJSON(t, recs2) {
			t.Fatal("repaired log replays to a different record stream")
		}
	})
}
