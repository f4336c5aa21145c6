package store

import (
	"bytes"
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
// city: two groups (one with a memoized consensus profile) and two built
// packages.
func buildState(t *testing.T) *ServerState {
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
			{ID: 1, Group: g1, Profiles: map[string]*profile.Profile{"pairwise": gp}},
			{ID: 2, Group: g2},
		},
		Packages: []PackageRecord{
			{ID: 3, GroupID: 1, Method: "pairwise", Package: tp1, Ops: ops},
			{ID: 4, GroupID: 2, Method: "avg", Package: tp2},
		},
	}
}

func TestServerStateRoundTrip(t *testing.T) {
	c := city(t)
	st := buildState(t)
	var buf bytes.Buffer
	if err := SaveServerState(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadServerState(&buf, c)
	if err != nil {
		t.Fatal(err)
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
		if len(gr.Profiles) != len(want.Profiles) {
			t.Fatalf("group %d memoized profiles: %d -> %d", gr.ID, len(want.Profiles), len(gr.Profiles))
		}
		for name, p := range want.Profiles {
			q, ok := gr.Profiles[name]
			if !ok {
				t.Fatalf("group %d lost consensus profile %q", gr.ID, name)
			}
			for _, cat := range poi.Categories {
				if !vec.Equal(p.Vector(cat), q.Vector(cat), 1e-12) {
					t.Fatalf("group %d profile %q %s changed", gr.ID, name, cat)
				}
			}
		}
	}
	for i, pr := range got.Packages {
		want := st.Packages[i]
		if pr.ID != want.ID || pr.GroupID != want.GroupID || pr.Method != want.Method {
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

	cases := map[string]string{
		"truncated":       good[:len(good)/2],
		"garbage":         "{]",
		"future version":  strings.Replace(good, `"version": 1`, `"version": 99`, 1),
		"wrong city":      strings.Replace(good, `"city": "StoreCity"`, `"city": "Atlantis"`, 1),
		"duplicate id":    strings.Replace(good, `"id": 2`, `"id": 1`, 1),
		"id above nextId": strings.Replace(good, `"id": 4`, `"id": 99`, 1),
		"dangling group":  strings.Replace(good, `"groupId": 2`, `"groupId": 77`, 1),
		"unknown poi":     strings.Replace(good, `"items": [`, `"items": [999999, `, 1),
		"negative id":     strings.Replace(good, `"id": 3`, `"id": -3`, 1),
		"zero nextId":     strings.Replace(good, `"nextId": 5`, `"nextId": 0`, 1),
		"unknown op kind": strings.Replace(good, `"kind": "REMOVE"`, `"kind": "EXPLODE"`, 1),
		"op unknown poi":  strings.Replace(good, `"removed": [`, `"removed": [999999, `, 1),
		"op bad member":   strings.Replace(good, `"member": 2`, `"member": 7`, 1),
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
