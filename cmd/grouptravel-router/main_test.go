package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"grouptravel/internal/daemontest"
	"grouptravel/internal/dataset"
	"grouptravel/internal/server"
)

// The tests run this test binary again as the daemon.
var daemon = daemontest.Daemon{Env: "GROUPTRAVEL_ROUTER_RUN_MAIN"}

func TestMain(m *testing.M) { daemon.Main(m, main) }

// TestFlagSet pins the flag set: -h lists exactly the kept flags.
func TestFlagSet(t *testing.T) {
	want := []string{
		"addr", "edge-cache", "failover", "log-format", "log-level", "poll", "pprof", "shed-lag", "topology",
	}
	if names := daemon.Flags(t); !slices.Equal(names, want) {
		t.Fatalf("-h lists %v, want %v", names, want)
	}
}

// TestRemovedFlags: each removed flag fails flag parsing.
func TestRemovedFlags(t *testing.T) {
	// Without -topology a boot fails fast.
	for _, removed := range []string{"-topology-reload=1s", "-edge-cache-max=2"} {
		daemon.Undefined(t, removed)
	}
}

// TestRouteToShard boots the router with its edge cache over one
// in-process shard and reads a city through it.
func TestRouteToShard(t *testing.T) {
	city, err := dataset.Generate(dataset.TestSpec("Alpha", 7))
	if err != nil {
		t.Fatal(err)
	}
	shard, err := server.NewMultiCity(server.Options{Cities: []*dataset.City{city}, SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shard.Close)
	ts := httptest.NewServer(shard.Handler())
	t.Cleanup(ts.Close)
	topo := filepath.Join(t.TempDir(), "topology.json")
	if err := os.WriteFile(topo, fmt.Appendf(nil, `{"shards":[{"name":"s1","nodes":[%q]}]}`, ts.URL), 0o644); err != nil {
		t.Fatal(err)
	}
	base := daemon.Start(t, "-topology", topo, "-edge-cache")

	resp, err := http.Get(base + "/cities/alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-GT-Shard") != "s1" {
		t.Fatalf("GET /cities/alpha: status %d, X-GT-Shard %q; want 200 from s1",
			resp.StatusCode, resp.Header.Get("X-GT-Shard"))
	}
}
