// Replication walks the primary/standby pair end to end in one process:
// it starts a primary with a write-ahead log and a compaction threshold
// low enough to trip during the demo, mutates it (a group, a package,
// customization ops), then starts a follower replicating over HTTP — its
// first sync lands behind the compaction horizon, so it crosses via the
// snapshot handoff and tails plain log frames from there. The follower
// serves the same state read-only (mutations 403 with a pointer at the
// primary); when the primary "dies", promotion flips it into a full
// read-write server.
//
// The same flow with two real processes:
//
//	grouptravel-server -data-dir ./cities -snapshot-dir ./state-a -addr :8080 \
//	    -advertise http://localhost:8080
//	grouptravel-server -data-dir ./cities -snapshot-dir ./state-b -addr :8081 \
//	    -follow http://localhost:8080 -advertise http://localhost:8081
//	curl -X POST http://localhost:8081/promote   # failover, the one trigger
//
// The follower's -advertise URL is also its replication-slot id on the
// primary.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"grouptravel"
	"grouptravel/internal/dataset"
	"grouptravel/internal/server"
)

func main() {
	city, err := grouptravel.GenerateCity(dataset.TestSpec("Paris", 40))
	if err != nil {
		log.Fatal(err)
	}
	stateA, err := os.MkdirTemp("", "grouptravel-primary-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateA)
	stateB, err := os.MkdirTemp("", "grouptravel-follower-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateB)

	// 1. The primary: an ordinary server — its per-city WAL is what
	// followers tail. CompactEvery is tiny so the demo's mutations trip a
	// real compaction.
	primary, err := server.NewMultiCity(server.Options{
		Cities: []*dataset.City{city}, SnapshotDir: stateA, CompactEvery: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	primaryURL, stopPrimary := serve(primary)
	fmt.Println("primary on", primaryURL)

	// 2. Mutate it: a group, a package, two customization ops — four WAL
	// records, enough to trigger the background compaction.
	var cityInfo struct {
		Schema map[string][]string `json:"schema"`
	}
	primaryCity := primaryURL + "/cities/paris"
	getJSON(primaryCity, &cityInfo)
	members := []map[string][]float64{}
	for m := 0; m < 3; m++ {
		member := map[string][]float64{}
		for cat, labels := range cityInfo.Schema {
			v := make([]float64, len(labels))
			for j := range v {
				v[j] = float64((j + m) % 6)
			}
			member[cat] = v
		}
		members = append(members, member)
	}
	gid := post(primaryCity+"/groups", map[string]any{"members": members})
	pid := post(primaryCity+"/packages", map[string]any{"group": gid, "consensus": "pairwise", "k": 3})
	var pkg struct {
		Days []struct {
			Items []struct{ ID int }
		}
	}
	getJSON(fmt.Sprintf("%s/packages/%d", primaryCity, pid), &pkg)
	victim := pkg.Days[0].Items[0].ID
	post(fmt.Sprintf("%s/packages/%d/ops", primaryCity, pid),
		map[string]any{"member": 0, "op": "remove", "ci": 0, "poi": victim})
	post(fmt.Sprintf("%s/packages/%d/ops", primaryCity, pid),
		map[string]any{"member": 1, "op": "add", "ci": 0, "poi": victim})
	fmt.Printf("primary: group %d, package %d, 2 customization ops (4 WAL records)\n", gid, pid)
	waitForCompaction(primaryURL)
	fmt.Println("primary: log compacted into the snapshot (bytes-since-compaction reset)")

	// 3. The follower starts from nothing, *behind* the compaction
	// horizon: its first sync must cross via the snapshot handoff, then
	// it tails plain frames.
	follower, err := server.NewMultiCity(server.Options{
		Cities: []*dataset.City{city}, SnapshotDir: stateB,
		Follow: primaryURL, FollowPoll: 10 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	followerURL, stopFollower := serve(follower)
	followerCity := followerURL + "/cities/paris"
	defer stopFollower()
	defer follower.Close()
	fmt.Println("follower on", followerURL, "replicating from the primary")
	if err := follower.Follower().CatchUp(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	lag, _ := follower.Follower().Lag("paris")
	fmt.Printf("follower: caught up at seq %d — %d snapshot handoff(s)\n",
		lag.AppliedSeq, lag.SnapshotHandoffs)

	// 4. Post-handoff mutations arrive as ordinary log frames.
	getJSON(fmt.Sprintf("%s/packages/%d", primaryCity, pid), &pkg)
	post(fmt.Sprintf("%s/packages/%d/ops", primaryCity, pid),
		map[string]any{"member": 2, "op": "remove", "ci": 1, "poi": pkg.Days[1].Items[0].ID})
	if err := follower.Follower().CatchUp(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	getJSON(fmt.Sprintf("%s/packages/%d", followerCity, pid), &pkg)
	fmt.Printf("follower: serves package %d with the replicated ops applied\n", pid)

	// 5. Writes are refused on the replica, with a pointer at the primary.
	resp, err := http.Post(followerCity+"/groups", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("follower: POST /cities/paris/groups -> %d (primary at %s)\n", resp.StatusCode, resp.Header.Get("X-GT-Primary"))

	// 6. Failover: the primary dies; promote the follower. It seals its
	// log and serves writes from the replicated state.
	stopPrimary()
	fmt.Println("primary stopped — promoting the follower")
	if err := follower.Promote(); err != nil {
		log.Fatal(err)
	}
	newPkg := post(followerCity+"/packages", map[string]any{"group": gid, "consensus": "avg", "k": 2})
	fmt.Printf("promoted follower: built package %d read-write (role %s)\n", newPkg, follower.Role())
}

// waitForCompaction polls /healthz until the city reports a compaction.
func waitForCompaction(base string) {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		var health struct {
			Cities map[string]struct {
				WAL *struct {
					Compactions int64 `json:"compactions"`
				} `json:"wal"`
			} `json:"cities"`
		}
		getJSON(base+"/healthz", &health)
		if c := health.Cities["paris"]; c.WAL != nil && c.WAL.Compactions > 0 {
			return
		}
	}
	log.Fatal("compaction never ran")
}

// serve binds a server to a loopback port.
func serve(s *server.Server) (string, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }
}

func post(url string, body any) int {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID    int    `json:"id"`
		Error string `json:"error"`
	}
	raw, _ := json.Marshal(body)
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatalf("POST %s %s: %v", url, raw, err)
	}
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s %s: %d %s", url, raw, resp.StatusCode, out.Error)
	}
	return out.ID
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
