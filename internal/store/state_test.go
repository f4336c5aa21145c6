package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"grouptravel/internal/consensus"
	"grouptravel/internal/core"
	"grouptravel/internal/interact"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/query"
	"grouptravel/internal/rng"
	"grouptravel/internal/vec"
)

// buildState assembles a realistic full server state over the shared test
// city: two groups and two built packages, one of them weighted and
// customized.
func buildState(t testing.TB) *ServerState {
	t.Helper()
	c := city(t)
	e, err := core.NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := profile.GenerateUniformGroup(c.Schema, 3, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := profile.GenerateUniformGroup(c.Schema, 5, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	gp, err := consensus.GroupProfile(g1, consensus.PairwiseDis)
	if err != nil {
		t.Fatal(err)
	}
	tp1, err := e.Build(gp, query.Default(), core.DefaultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	tp2, err := e.Build(nil, query.MustNew(1, 0, 1, 2, 8), core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	// Package 3 carries a customization log (a remove + an add), the way a
	// served session would after /ops.
	ops := []interact.Op{
		{Kind: interact.OpRemove, Member: 0, CIIndex: 0, Removed: []*poi.POI{tp1.CIs[0].Items[0]}},
		{Kind: interact.OpAdd, Member: 2, CIIndex: 1, Added: []*poi.POI{tp1.CIs[1].Items[0]}},
	}
	return &ServerState{
		City:   c.Name,
		NextID: 5,
		Groups: []GroupRecord{
			{ID: 1, Group: g1},
			{ID: 2, Group: g2},
		},
		Packages: []PackageRecord{
			{ID: 3, GroupID: 1, Method: "pairwise", Weights: []float64{1, 0, 2}, Package: tp1, Ops: ops},
			{ID: 4, GroupID: 2, Method: "avg", Package: tp2},
		},
	}
}

// TestServerStateRoundTrip: everything a snapshot carries loads back —
// ids, group members, packages with their weights and op logs — and the
// memoized consensus profiles are not written. A snapshot that still
// carries them, as older writers' do, loads with the key ignored.
func TestServerStateRoundTrip(t *testing.T) {
	c := city(t)
	st := buildState(t)
	var buf bytes.Buffer
	if err := SaveServerState(&buf, st); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if strings.Contains(doc, `"profiles"`) {
		t.Fatal("snapshot persists memoized consensus profiles")
	}
	got, err := LoadServerState(strings.NewReader(doc), c)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := consensus.GroupProfile(st.Groups[0].Group, consensus.PairwiseDis)
	if err != nil {
		t.Fatal(err)
	}
	memo, err := json.Marshal(map[string]profileJSON{"pairwise": profileToJSON(gp)})
	if err != nil {
		t.Fatal(err)
	}
	withMemo := strings.Replace(doc, `{"id":1,"group":`, `{"id":1,"profiles":`+string(memo)+`,"group":`, 1)
	if withMemo == doc {
		t.Fatal("no group record to add profiles to")
	}
	if _, err := LoadServerState(strings.NewReader(withMemo), c); err != nil {
		t.Fatalf("snapshot carrying profiles rejected: %v", err)
	}
	if got.City != st.City || got.NextID != st.NextID {
		t.Fatalf("identity lost: %+v", got)
	}
	if len(got.Groups) != 2 || len(got.Packages) != 2 {
		t.Fatalf("counts: %d groups, %d packages", len(got.Groups), len(got.Packages))
	}
	for i, gr := range got.Groups {
		want := st.Groups[i]
		if gr.ID != want.ID || gr.Group.Size() != want.Group.Size() {
			t.Fatalf("group %d: %+v", i, gr)
		}
		for m := range want.Group.Members {
			if !vec.Equal(gr.Group.Members[m].Concat(), want.Group.Members[m].Concat(), 1e-12) {
				t.Fatalf("group %d member %d changed", gr.ID, m)
			}
		}
	}
	for i, pr := range got.Packages {
		want := st.Packages[i]
		if pr.ID != want.ID || pr.GroupID != want.GroupID || pr.Method != want.Method || !slices.Equal(pr.Weights, want.Weights) {
			t.Fatalf("package record %d: %+v", i, pr)
		}
		if len(pr.Package.CIs) != len(want.Package.CIs) || !pr.Package.Valid() {
			t.Fatalf("package %d CIs changed or invalid", pr.ID)
		}
		for j := range want.Package.CIs {
			if pr.Package.CIs[j].Centroid != want.Package.CIs[j].Centroid {
				t.Fatalf("package %d CI %d centroid changed", pr.ID, j)
			}
			for k := range want.Package.CIs[j].Items {
				if pr.Package.CIs[j].Items[k].ID != want.Package.CIs[j].Items[k].ID {
					t.Fatalf("package %d CI %d item %d changed", pr.ID, j, k)
				}
			}
		}
		if len(pr.Ops) != len(want.Ops) {
			t.Fatalf("package %d op log: %d -> %d ops", pr.ID, len(want.Ops), len(pr.Ops))
		}
		for j, op := range want.Ops {
			got := pr.Ops[j]
			if got.Kind != op.Kind || got.Member != op.Member || got.CIIndex != op.CIIndex ||
				len(got.Added) != len(op.Added) || len(got.Removed) != len(op.Removed) {
				t.Fatalf("package %d op %d changed: %+v -> %+v", pr.ID, j, op, got)
			}
			for k := range op.Added {
				if got.Added[k].ID != op.Added[k].ID {
					t.Fatalf("package %d op %d added POI changed", pr.ID, j)
				}
			}
			for k := range op.Removed {
				if got.Removed[k].ID != op.Removed[k].ID {
					t.Fatalf("package %d op %d removed POI changed", pr.ID, j)
				}
			}
		}
	}
}

func TestServerStateRejectsCorruption(t *testing.T) {
	c := city(t)
	st := buildState(t)
	var buf bytes.Buffer
	if err := SaveServerState(&buf, st); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	// Targets are in the compact form SaveServerState writes.
	cases := map[string]string{
		"truncated":       good[:len(good)/2],
		"garbage":         "{]",
		"future version":  strings.Replace(good, `"version":1`, `"version":99`, 1),
		"wrong city":      strings.Replace(good, `"city":"StoreCity"`, `"city":"Atlantis"`, 1),
		"duplicate id":    strings.Replace(good, `"id":2`, `"id":1`, 1),
		"id above nextId": strings.Replace(good, `"id":4`, `"id":99`, 1),
		"dangling group":  strings.Replace(good, `"groupId":2`, `"groupId":77`, 1),
		"unknown poi":     strings.Replace(good, `"items":[`, `"items":[999999,`, 1),
		"negative id":     strings.Replace(good, `"id":3`, `"id":-3`, 1),
		"zero nextId":     strings.Replace(good, `"nextId":5`, `"nextId":0`, 1),
		"unknown op kind": strings.Replace(good, `"kind":"REMOVE"`, `"kind":"EXPLODE"`, 1),
		"op unknown poi":  strings.Replace(good, `"removed":[`, `"removed":[999999,`, 1),
		"op bad member":   strings.Replace(good, `"member":2`, `"member":7`, 1),
		"weight count":    strings.Replace(good, `"weights":[1,0,2]`, `"weights":[1,0]`, 1),
	}
	for name, doc := range cases {
		if doc == good {
			t.Fatalf("case %q did not modify the snapshot", name)
		}
		if _, err := LoadServerState(strings.NewReader(doc), c); err == nil {
			t.Fatalf("case %q: corrupt snapshot accepted", name)
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	c := city(t)
	st := buildState(t)
	dir := t.TempDir()

	// First boot: no snapshot yet is not an error.
	if got, err := ReadSnapshot(dir, "storecity", c); err != nil || got != nil {
		t.Fatalf("missing snapshot: got %v, err %v", got, err)
	}
	if _, err := WriteSnapshot(dir, "storecity", st); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(dir, "storecity", c)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.NextID != st.NextID || len(got.Groups) != 2 || len(got.Packages) != 2 {
		t.Fatalf("snapshot round trip: %+v", got)
	}
	// Overwrite is atomic-by-rename: a second write replaces the first.
	st.NextID = 9
	if _, err := WriteSnapshot(dir, "storecity", st); err != nil {
		t.Fatal(err)
	}
	got, err = ReadSnapshot(dir, "storecity", c)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextID != 9 {
		t.Fatalf("overwritten snapshot NextID = %d", got.NextID)
	}
}

// TestLoadIndentedSnapshotWithProfiles: a snapshot written by the earlier
// writer — indented, carrying each group's memoized consensus profiles —
// still loads. testdata/snapshot_indented_profiles.json is such a
// snapshot of two groups (one with a memoized profile) and two packages
// (one customized by a REMOVE and an ADD), taken at WAL sequence 7. The
// loaded state must carry every id, member, CI item and logged op the
// file names, and written again in the compact form it reloads to the
// same state.
func TestLoadIndentedSnapshotWithProfiles(t *testing.T) {
	c := city(t)
	raw, err := os.ReadFile("testdata/snapshot_indented_profiles.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"profiles": {`)) || !bytes.Contains(raw, []byte("\n  \"groups\": [")) {
		t.Fatal("fixture is not an indented snapshot carrying profiles")
	}
	got, err := LoadServerState(bytes.NewReader(raw), c)
	if err != nil {
		t.Fatal(err)
	}
	// The file's content, read independently of the store's own types.
	var doc struct {
		Groups []struct {
			Group struct {
				Members []struct {
					Acco []float64 `json:"acco"`
				} `json:"members"`
			} `json:"group"`
		} `json:"groups"`
		Packages []struct {
			Package struct {
				CIs []struct {
					Items []int `json:"items"`
				} `json:"cis"`
			} `json:"package"`
			Ops []struct {
				Kind           string
				Member, CI     int
				Added, Removed []int
			} `json:"ops"`
		} `json:"packages"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if got.City != "StoreCity" || got.NextID != 5 || got.WALSeq != 7 {
		t.Fatalf("header: city %q nextId %d walSeq %d", got.City, got.NextID, got.WALSeq)
	}
	if len(got.Groups) != 2 || len(got.Packages) != 2 {
		t.Fatalf("%d groups, %d packages; want 2 and 2", len(got.Groups), len(got.Packages))
	}
	for i, want := range []struct{ id, size int }{{1, 3}, {2, 5}} {
		gr := got.Groups[i]
		if gr.ID != want.id || gr.Group.Size() != want.size {
			t.Fatalf("group %d: id %d size %d, want %d and %d", i, gr.ID, gr.Group.Size(), want.id, want.size)
		}
		for m, member := range gr.Group.Members {
			if !slices.Equal(member.Vector(poi.Acco), doc.Groups[i].Group.Members[m].Acco) {
				t.Fatalf("group %d member %d changed on load", gr.ID, m)
			}
		}
	}
	for i, want := range []struct {
		id, group int
		method    string
		ops       int
	}{{3, 1, "pairwise", 2}, {4, 2, "avg", 0}} {
		pr := got.Packages[i]
		if pr.ID != want.id || pr.GroupID != want.group || pr.Method != want.method || pr.Weights != nil || len(pr.Ops) != want.ops {
			t.Fatalf("package %d: %+v", i, pr)
		}
		for j, cj := range doc.Packages[i].Package.CIs {
			var ids []int
			for _, it := range pr.Package.CIs[j].Items {
				ids = append(ids, it.ID)
			}
			if !slices.Equal(ids, cj.Items) {
				t.Fatalf("package %d CI %d items %v, file says %v", pr.ID, j, ids, cj.Items)
			}
		}
		for j, oj := range doc.Packages[i].Ops {
			op := pr.Ops[j]
			if op.Kind.String() != oj.Kind || op.Member != oj.Member || op.CIIndex != oj.CI ||
				!slices.Equal(poiIDs(op.Added), oj.Added) || !slices.Equal(poiIDs(op.Removed), oj.Removed) {
				t.Fatalf("package %d op %d: %+v, file says %+v", pr.ID, j, op, oj)
			}
		}
	}
	compact := stateJSON(t, got)
	if strings.Contains(compact, `"profiles"`) {
		t.Fatal("rewritten snapshot still carries profiles")
	}
	again, err := LoadServerState(strings.NewReader(compact), c)
	if err != nil {
		t.Fatal(err)
	}
	if stateJSON(t, again) != compact {
		t.Fatal("the compact rewrite does not reload to the same state")
	}
}

func poiIDs(pois []*poi.POI) []int {
	var ids []int
	for _, p := range pois {
		ids = append(ids, p.ID)
	}
	return ids
}

// TestIsStateFile: every name the package gives a file in a state
// directory is a state file; datasets beside them are not, whatever the
// city is called.
func TestIsStateFile(t *testing.T) {
	const dir, key = "state", "alpha"
	for _, path := range []string{
		SnapshotPath(dir, key), EpochPath(dir, key), WALPath(dir, key), PendingWALPath(dir, key),
		SnapshotPath(dir, key) + ".corrupt", WALPath(dir, key) + ".corrupt",
		filepath.Join(dir, key+".state.123.tmp"), filepath.Join(dir, key+".epoch.456.tmp"),
	} {
		if !IsStateFile(filepath.Base(path)) {
			t.Errorf("IsStateFile(%q) = false", filepath.Base(path))
		}
	}
	for _, name := range []string{"alpha.json", "state.json", "epoch.json", "wal.json"} {
		if IsStateFile(name) {
			t.Errorf("IsStateFile(%q) = true for a dataset", name)
		}
	}
}
