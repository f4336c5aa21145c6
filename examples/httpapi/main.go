// Httpapi drives the GroupTravel HTTP API end to end in one process: it
// starts the server on a loopback port over a temporary state directory,
// which holds the city's write-ahead log, registers a group from member
// ratings, builds a package, applies a customization operator, and
// refines-and-rebuilds — the request sequence a Figure 3 style web GUI
// would issue.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"grouptravel"
	"grouptravel/internal/dataset"
	"grouptravel/internal/server"
)

func main() {
	city, err := grouptravel.GenerateCity(dataset.TestSpec("Paris", 55))
	if err != nil {
		log.Fatal(err)
	}
	stateDir, err := os.MkdirTemp("", "grouptravel-httpapi-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	srv, err := server.NewMultiCity(server.Options{Cities: []*dataset.City{city}, SnapshotDir: stateDir})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, srv.Handler()) }()
	base := "http://" + ln.Addr().String() + "/cities/paris"
	fmt.Println("city paris on", base)

	// 1. Inspect the city schema to know what to rate.
	var cityInfo struct {
		Schema map[string][]string `json:"schema"`
	}
	get(base, &cityInfo)
	fmt.Printf("schema: %d acco types, %d attraction topics\n",
		len(cityInfo.Schema["acco"]), len(cityInfo.Schema["attr"]))

	// 2. Register a two-member group from 0-5 ratings.
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
		ID         int     `json:"id"`
		Uniformity float64 `json:"uniformity"`
	}
	post(base+"/groups", map[string]any{
		"members": []any{ratings(0), ratings(2)},
	}, &group)
	fmt.Printf("group %d registered (uniformity %.2f)\n", group.ID, group.Uniformity)

	// 3. Build a 3-day package with pairwise-disagreement consensus.
	var pkg struct {
		ID   int `json:"id"`
		Days []struct {
			Items []struct {
				ID   int    `json:"id"`
				Name string `json:"name"`
			} `json:"items"`
		} `json:"days"`
	}
	post(base+"/packages", map[string]any{
		"group": group.ID, "consensus": "pairwise", "k": 3,
	}, &pkg)
	fmt.Printf("package %d built with %d days\n", pkg.ID, len(pkg.Days))

	// 4. Member 1 removes the first POI of day 1.
	target := pkg.Days[0].Items[0]
	var op struct {
		Applied bool `json:"applied"`
	}
	post(fmt.Sprintf("%s/packages/%d/ops", base, pkg.ID), map[string]any{
		"member": 1, "op": "remove", "ci": 0, "poi": target.ID,
	}, &op)
	fmt.Printf("removed %q: applied=%v\n", target.Name, op.Applied)

	// 5. Refine (batch) and rebuild.
	var refined struct {
		Operations int `json:"operations"`
		NewPackage *struct {
			ID int `json:"id"`
		} `json:"newPackage"`
	}
	post(fmt.Sprintf("%s/packages/%d/refine", base, pkg.ID), map[string]any{
		"strategy": "batch", "rebuild": true,
	}, &refined)
	fmt.Printf("refined from %d operation(s); rebuilt package %d\n",
		refined.Operations, refined.NewPackage.ID)

	// 6. Fetch the rebuilt package with walking routes.
	var routed struct {
		Days []struct {
			WalkKm float64 `json:"walkKm"`
		} `json:"days"`
	}
	get(fmt.Sprintf("%s/packages/%d?routes=1", base, refined.NewPackage.ID), &routed)
	for i, d := range routed.Days {
		fmt.Printf("day %d: %.1f km walk\n", i+1, d.WalkKm)
	}
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
