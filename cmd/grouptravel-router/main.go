// Command grouptravel-router is the consistent-hash front tier: it
// spreads city keys across backend shards (each one grouptravel-server
// primary plus N followers), sends mutations to each shard's discovered
// primary, and fans reads out to the freshest eligible follower — with
// read-your-writes for any client that replays its gt-session cookie.
//
// Usage:
//
//	grouptravel-router -topology topology.json -addr :7080
//
// where topology.json lists the shards:
//
//	{
//	  "shards": [
//	    {"name": "s1", "nodes": ["http://10.0.0.1:8080", "http://10.0.0.2:8080"]},
//	    {"name": "s2", "nodes": ["http://10.0.1.1:8080", "http://10.0.1.2:8080"]}
//	  ]
//	}
//
// Node roles are discovered from each node's /healthz, not configured:
// a failover (POST /promote on a follower) reroutes mutations without a
// topology edit. Backends should run with -advertise set to the URL the
// topology lists so X-GT-Primary hints resolve. A shard membership edit
// takes effect on SIGHUP (kill -HUP <pid>), which reloads the topology
// file without a restart.
//
// Client protocol:
//
//	Cookie: gt-session=<city:seq|…>  reads see all of the cookie's writes
//	X-GT-Min-Seq: <seq>              explicit freshness floor (manual pinning)
//
// Every mutation response carries X-GT-City/X-GT-Seq (the commit token)
// plus a Set-Cookie refreshing gt-session, and every routed response
// X-GT-Shard/X-GT-Backend (who served it). Both floor carriers travel
// with the request, so any number of routers serve them alike.
// GET /healthz reports per-shard epochs and per-node views, GET /metrics
// the routing counters; GET /cities aggregates the key space across
// shards.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"grouptravel/internal/pprofserve"
	"grouptravel/internal/router"
	"grouptravel/internal/telemetry"
)

func main() {
	topoPath := flag.String("topology", "", "JSON topology file: shards and their node URLs (required)")
	addr := flag.String("addr", ":7080", "listen address (port 0: a free port, printed at startup)")
	poll := flag.Duration("poll", 0, "node health poll interval (0: default 500ms)")
	shedLag := flag.Int64("shed-lag", 0, "shed a follower from token-less reads when it lags the primary by more than this many records (0: default 1024, <0: never)")
	failover := flag.Duration("failover", 0, "auto-promote a shard's freshest follower after its primary has been unreachable this long (0: manual failover only)")
	edgeCache := flag.Bool("edge-cache", false, "serve hot city-scoped GETs from a seq-validated edge cache of 4096 entries (zero proxy hops on a hit)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6061; empty: off)")
	logFormat := flag.String("log-format", "off", `structured request log: "json", "text", or "off"`)
	logLevel := flag.String("log-level", "info", "minimum request-log level (debug, info, warn, error)")
	flag.Parse()

	if *topoPath == "" {
		log.Fatal("grouptravel-router: -topology is required")
	}
	topo, err := router.LoadTopology(*topoPath)
	if err != nil {
		log.Fatal(err)
	}
	accessLog, err := telemetry.NewAccessLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := router.New(router.Options{
		Topology:     topo,
		PollInterval: *poll,
		ShedLag:      *shedLag,
		AccessLog:    accessLog,
		Failover:     *failover,
		EdgeCache:    *edgeCache,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	// Warm the health feed before accepting traffic so the first requests
	// already know each shard's primary.
	rt.Poll()

	// Online topology reload on SIGHUP: a shard membership edit
	// propagates without a router restart (a failed load keeps serving
	// the old topology).
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			t, err := router.LoadTopology(*topoPath)
			if err != nil {
				log.Printf("grouptravel-router: reload skipped: %v", err)
				continue
			}
			if err := rt.Reload(t); err != nil {
				log.Printf("grouptravel-router: reload rejected: %v", err)
				continue
			}
			rt.Poll()
			log.Printf("grouptravel-router: topology reloaded: %d shards", len(t.Shards))
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	var names []string
	for _, sh := range topo.Shards {
		names = append(names, fmt.Sprintf("%s(%d nodes)", sh.Name, len(sh.Nodes)))
	}
	fmt.Printf("grouptravel-router: %d shards [%s] on %s\n", len(topo.Shards), strings.Join(names, " "), ln.Addr())
	if *pprofAddr != "" {
		fmt.Printf("grouptravel-router: pprof on %s\n", *pprofAddr)
		pprofserve.Start(*pprofAddr, func(err error) { log.Print(err) })
	}
	srv := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 10 * time.Second}
	log.Fatal(srv.Serve(ln))
}
