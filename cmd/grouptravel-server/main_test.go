package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"grouptravel/internal/daemontest"
	"grouptravel/internal/dataset"
	"grouptravel/internal/poi"
)

// The tests run this test binary again as the daemon.
var daemon = daemontest.Daemon{Env: "GROUPTRAVEL_SERVER_RUN_MAIN"}

func TestMain(m *testing.M) { daemon.Main(m, main) }

// TestFlagSet pins the flag set: -h lists exactly the kept flags.
func TestFlagSet(t *testing.T) {
	want := []string{
		"addr", "advertise", "city", "compact-every", "data-dir", "follow",
		"follow-poll", "log-format", "log-level", "pprof", "preload-cities", "snapshot-dir",
	}
	if names := daemon.Flags(t); !slices.Equal(names, want) {
		t.Fatalf("-h lists %v, want %v", names, want)
	}
}

// TestRemovedFlags: each removed flag fails flag parsing.
func TestRemovedFlags(t *testing.T) {
	// An empty data directory makes a boot fail fast.
	empty := t.TempDir()
	for _, removed := range []string{
		"-default-city=alpha", "-wal-sync=always", "-promote", "-follower-id=x",
		"-cluster-cache-cap=8", "-compact-bytes=1024",
	} {
		daemon.Undefined(t, removed, "-data-dir", empty)
	}
}

// alphaDataDir writes a generated city as alpha.json into a fresh data
// directory.
func alphaDataDir(t *testing.T) (*dataset.City, string) {
	t.Helper()
	city, err := dataset.Generate(dataset.TestSpec("Alpha", 7))
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	f, err := os.Create(filepath.Join(dataDir, "alpha.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := city.SaveJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return city, dataDir
}

// TestRequiresSnapshotDir: every city runs on its write-ahead log, so a
// boot without -snapshot-dir exits non-zero and names the flag.
func TestRequiresSnapshotDir(t *testing.T) {
	_, dataDir := alphaDataDir(t)
	out, code := daemon.Run(t, "-data-dir", dataDir, "-addr", "127.0.0.1:0")
	if code == 0 || !strings.Contains(out, "-snapshot-dir") {
		t.Fatalf("boot without -snapshot-dir: exit %d, want non-zero with output naming -snapshot-dir:\n%s", code, out)
	}
}

// TestServeCity boots the daemon on a generated city and commits one
// mutation through it.
func TestServeCity(t *testing.T) {
	city, dataDir := alphaDataDir(t)
	base := daemon.Start(t, "-data-dir", dataDir, "-snapshot-dir", t.TempDir())

	var members []map[string][]float64
	for m := 0; m < 2; m++ {
		ratings := map[string][]float64{}
		for _, c := range poi.Categories {
			v := make([]float64, city.Schema.Dim(c))
			for j := range v {
				v[j] = float64((j + m) % 6)
			}
			ratings[c.String()] = v
		}
		members = append(members, ratings)
	}
	body, err := json.Marshal(map[string]any{"members": members})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/cities/alpha/groups", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("X-GT-Seq") == "" {
		t.Fatalf("POST /cities/alpha/groups: status %d, X-GT-Seq %q; want 201 with a commit token",
			resp.StatusCode, resp.Header.Get("X-GT-Seq"))
	}
}
