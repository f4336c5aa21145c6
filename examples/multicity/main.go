// Multicity walks the multi-city serving subsystem end to end in one
// process: it writes three city datasets into a data directory, starts a
// server with snapshots enabled, registers a group and builds a package in
// every city (each city loads on its first request and stays resident),
// then "restarts" — a second server over the same directories — and shows
// every city's groups and packages intact.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"grouptravel"
	"grouptravel/internal/dataset"
	"grouptravel/internal/server"
)

var cities = []string{"Paris", "Barcelona", "Rome"}

func main() {
	// 1. A data directory with three small cities (a real deployment
	// would point -data-dir at converted TourPedia dumps).
	dataDir, err := os.MkdirTemp("", "grouptravel-data-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	snapDir := filepath.Join(dataDir, "state")
	for i, name := range cities {
		city, err := grouptravel.GenerateCity(dataset.TestSpec(name, int64(40+i)))
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dataDir, key(name)+".json"))
		if err != nil {
			log.Fatal(err)
		}
		if err := city.SaveJSON(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	fmt.Printf("data dir %s: %v\n", dataDir, cities)

	// 2. A server persisting through snapDir. Nothing is loaded yet.
	base, stop := serve(dataDir, snapDir)
	fmt.Println("server on", base)

	// 3. Register a group and build a package per city. Each city's first
	// request loads its dataset and engine; it stays resident after.
	type created struct{ group, pkg int }
	state := map[string]created{}
	for _, name := range cities {
		k := key(name)
		var cityInfo struct {
			Schema map[string][]string `json:"schema"`
		}
		get(base+"/cities/"+k, &cityInfo)
		ratings := func(shift int) map[string][]float64 {
			out := map[string][]float64{}
			for cat, labels := range cityInfo.Schema {
				v := make([]float64, len(labels))
				for j := range v {
					v[j] = float64((j + shift) % 6)
				}
				out[cat] = v
			}
			return out
		}
		var group struct {
			ID int `json:"id"`
		}
		post(base+"/cities/"+k+"/groups", map[string]any{
			"members": []any{ratings(0), ratings(1), ratings(3)},
		}, &group)
		var pkg struct {
			ID   int   `json:"id"`
			Days []any `json:"days"`
		}
		post(base+"/cities/"+k+"/packages", map[string]any{
			"group": group.ID, "consensus": "pairwise", "k": 3,
		}, &pkg)
		state[k] = created{group: group.ID, pkg: pkg.ID}
		fmt.Printf("%-10s group %d, package %d with %d days\n", name+":", group.ID, pkg.ID, len(pkg.Days))
	}

	// 4. The health endpoint shows residency and the write-ahead
	// persistence at work: each mutation appended one log record, and
	// nothing has been compacted yet (the log is far below its threshold).
	var health struct {
		Registry struct {
			Known  int `json:"known"`
			Loaded int `json:"loaded"`
		} `json:"registry"`
		Cities map[string]struct {
			Packages int `json:"packages"`
			WAL      *struct {
				Records     int64 `json:"records"`
				Compactions int64 `json:"compactions"`
			} `json:"wal"`
		} `json:"cities"`
	}
	get(base+"/healthz", &health)
	fmt.Printf("registry: %d of %d cities resident\n", health.Registry.Loaded, health.Registry.Known)
	for k, ch := range health.Cities {
		if ch.WAL != nil {
			fmt.Printf("  %-10s %d package(s), %d log record(s), %d compaction(s)\n",
				k+":", ch.Packages, ch.WAL.Records, ch.WAL.Compactions)
		} else {
			fmt.Printf("  %-10s %d package(s)\n", k+":", ch.Packages)
		}
	}

	// 5. Restart: a fresh server over the same directories reconstructs
	// each city from its snapshot plus write-ahead-log suffix when the
	// city is first requested.
	stop()
	base, stop = serve(dataDir, snapDir)
	defer stop()
	fmt.Println("restarted on", base)
	for _, name := range cities {
		k := key(name)
		var group struct {
			Size int `json:"size"`
		}
		get(fmt.Sprintf("%s/cities/%s/groups/%d", base, k, state[k].group), &group)
		var pkg struct {
			Valid bool  `json:"valid"`
			Days  []any `json:"days"`
		}
		get(fmt.Sprintf("%s/cities/%s/packages/%d", base, k, state[k].pkg), &pkg)
		fmt.Printf("%-10s group of %d and %d-day package survived the restart (valid=%v)\n",
			name+":", group.Size, len(pkg.Days), pkg.Valid)
	}
}

// key matches server.cityKey's derivation for preloaded cities.
func key(name string) string { return strings.ToLower(name) }

func serve(dataDir, snapDir string) (base string, stop func()) {
	srv, err := server.NewMultiCity(server.Options{
		DataDir:     dataDir,
		SnapshotDir: snapDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func post(url string, body, out any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
