// Sharding walks the scale-out topology end to end in one process: a
// consistent-hash router in front of two shards, each a primary plus one
// log-shipping follower. Cities are generated, spread across shards by
// the hash ring, and mutated *through the router* — which discovers each
// shard's primary from node health, pins the writer's reads to replicas
// that have applied its writes (read-your-writes, carried in the
// gt-session cookie the writer's cookie jar replays), and fans
// token-less reads out to followers. Then a follower is killed mid-read:
// reads keep flowing, one failover at a time.
//
// The same flow with real processes:
//
//	grouptravel-server -data-dir ./cities -snapshot-dir ./s1a -addr :8080 -advertise http://host1:8080
//	grouptravel-server -data-dir ./cities -snapshot-dir ./s1b -addr :8081 -follow http://host1:8080
//	grouptravel-server -data-dir ./cities -snapshot-dir ./s2a -addr :8090 -advertise http://host2:8090
//	grouptravel-server -data-dir ./cities -snapshot-dir ./s2b -addr :8091 -follow http://host2:8090
//	grouptravel-router -topology topology.json -addr :7080
//
// with topology.json:
//
//	{"shards": [
//	  {"name": "s1", "nodes": ["http://host1:8080", "http://host1:8081"]},
//	  {"name": "s2", "nodes": ["http://host2:8090", "http://host2:8091"]}
//	]}
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/cookiejar"
	"os"
	"strings"
	"time"

	"grouptravel"
	"grouptravel/internal/dataset"
	"grouptravel/internal/router"
	"grouptravel/internal/server"
)

func main() {
	// 1. Four cities, served by every backend — the *router* decides
	// which shard owns which key.
	var cities []*dataset.City
	for i, name := range []string{"Paris", "Rome", "Lisbon", "Vienna"} {
		c, err := grouptravel.GenerateCity(dataset.TestSpec(name, int64(30+i)))
		if err != nil {
			log.Fatal(err)
		}
		cities = append(cities, c)
	}

	// 2. Two shards, each primary + follower with its own state dirs.
	type node struct {
		srv  *server.Server
		url  string
		stop func()
	}
	newNode := func(follow string) node {
		dir, err := os.MkdirTemp("", "grouptravel-shard-*")
		if err != nil {
			log.Fatal(err)
		}
		srv, err := server.NewMultiCity(server.Options{
			Cities: cities, SnapshotDir: dir,
			Follow: follow, FollowPoll: 5 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		url, stop := serve(srv)
		return node{srv: srv, url: url, stop: func() { stop(); srv.Close(); os.RemoveAll(dir) }}
	}
	s1p := newNode("")
	s1f := newNode(s1p.url)
	s2p := newNode("")
	s2f := newNode(s2p.url)
	defer s1p.stop()
	defer s1f.stop()
	defer s2p.stop()
	defer s2f.stop()

	// 3. The router: roles are discovered, not configured — primaries are
	// deliberately listed second.
	rt, err := router.New(router.Options{
		Topology: &router.Topology{Shards: []router.Shard{
			{Name: "s1", Nodes: []string{s1f.url, s1p.url}},
			{Name: "s2", Nodes: []string{s2f.url, s2p.url}},
		}},
		PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	rt.Poll()
	routerURL, stopRouter := serveHandler(rt.Handler())
	defer stopRouter()
	fmt.Println("router on", routerURL, "over shards s1", []string{s1p.url, s1f.url}, "s2", []string{s2p.url, s2f.url})
	for _, c := range cities {
		key := keyOf(c)
		fmt.Printf("  city %-7s -> shard %s\n", key, rt.Ring().Shard(key))
	}

	// 4. Mutate through the router from a client with a cookie jar, as a
	// browser would. The response carries the commit token and sets it as
	// the gt-session cookie; the immediate read-back replays the cookie and
	// is pinned to a replica at or past it — even though the followers lag.
	jar, err := cookiejar.New(nil)
	if err != nil {
		log.Fatal(err)
	}
	writer := &http.Client{Jar: jar}
	gids := map[string]int{}
	for _, c := range cities {
		key := keyOf(c)
		hdr, gid := post(writer, routerURL+"/cities/"+key+"/groups", groupBody(routerURL, key))
		gids[key] = gid
		backend, _ := readBack(writer, routerURL, key, gid)
		fmt.Printf("  wrote %s group %d (shard %s, seq %s) — read-back served by %s\n",
			key, gid, hdr.Get("X-Gt-Shard"), hdr.Get("X-Gt-Seq"), backend)
	}

	// 5. Token-less reads fan out to followers once they catch up.
	time.Sleep(100 * time.Millisecond) // let the followers drain and the feed notice
	rt.Poll()
	key := keyOf(cities[0])
	backend, _ := readBack(http.DefaultClient, routerURL, key, gids[key])
	fmt.Printf("token-less read of %s served by %s (a follower)\n", key, backend)

	// 6. Kill that follower mid-read: reads keep flowing — the router
	// fails over to the next candidate and the health feed sheds the
	// corpse on its next poll.
	var killed string
	if rt.Ring().Shard(key) == "s1" {
		killed = s1f.url
		s1f.stop()
	} else {
		killed = s2f.url
		s2f.stop()
	}
	fmt.Println("killed follower", killed, "— reading on")
	ok := 0
	for i := 0; i < 20; i++ {
		if _, err := readBack(http.DefaultClient, routerURL, key, gids[key]); err == nil {
			ok++
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("%d/20 reads succeeded through the kill window\n", ok)

	// 7. The router's own health shows where traffic went.
	var health struct {
		Counters struct {
			ReadsPrimary  int64 `json:"readsPrimary"`
			ReadsFollower int64 `json:"readsFollower"`
			ReadsPinned   int64 `json:"readsPinned"`
			ReadFailovers int64 `json:"readFailovers"`
			Mutations     int64 `json:"mutations"`
		} `json:"counters"`
	}
	getJSON(routerURL+"/healthz", &health)
	fmt.Printf("router counters: %+v\n", health.Counters)
}

func keyOf(c *dataset.City) string { return strings.ToLower(c.Name) }

// groupBody builds a 3-member group over the city's schema, fetched
// through the router like any client would.
func groupBody(routerURL, key string) map[string]any {
	var info struct {
		Schema map[string][]string `json:"schema"`
	}
	getJSON(routerURL+"/cities/"+key, &info)
	members := []map[string][]float64{}
	for m := 0; m < 3; m++ {
		member := map[string][]float64{}
		for cat, labels := range info.Schema {
			v := make([]float64, len(labels))
			for j := range v {
				v[j] = float64((j + m) % 6)
			}
			member[cat] = v
		}
		members = append(members, member)
	}
	return map[string]any{"members": members}
}

// readBack GETs a group through the router, reporting which backend
// served it.
func readBack(c *http.Client, routerURL, city string, gid int) (string, error) {
	resp, err := c.Get(fmt.Sprintf("%s/cities/%s/groups/%d", routerURL, city, gid))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return resp.Header.Get("X-Gt-Backend"), fmt.Errorf("status %d", resp.StatusCode)
	}
	return resp.Header.Get("X-Gt-Backend"), nil
}

func post(c *http.Client, url string, body any) (http.Header, int) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		log.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, &buf)
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID    int    `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %d %s", url, resp.StatusCode, out.Error)
	}
	return resp.Header, out.ID
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

func serve(s *server.Server) (string, func()) { return serveHandler(s.Handler()) }

func serveHandler(h http.Handler) (string, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }
}
