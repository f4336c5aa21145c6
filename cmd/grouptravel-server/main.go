// Command grouptravel-server serves the GroupTravel HTTP API — the backend
// a Figure 3 style map GUI would talk to. One process serves many cities:
// requests route to a per-city engine through a city-keyed registry that
// lazily loads datasets from -data-dir (a loaded city stays resident), and
// persists every city's groups and packages under -snapshot-dir, which is
// required, so a restart reconstructs the full state.
//
// Persistence is a per-city write-ahead log plus periodic compaction:
// every mutation appends one record to <key>.wal, fsynced (group-committed)
// before the mutation is acknowledged, and the full <key>.state.json
// snapshot is rewritten only when the log crosses -compact-every records
// (or 4 MiB). A restart replays snapshot + log; torn log tails are
// truncated and reported on /healthz.
//
// Usage:
//
//	grouptravel-server -city builtin:Paris -snapshot-dir ./state -addr :8080
//	grouptravel-server -city paris.json -snapshot-dir ./state
//	grouptravel-server -data-dir ./cities -snapshot-dir ./state \
//	    -compact-every 4096 -preload-cities paris,rome
//	grouptravel-server -data-dir ./cities -snapshot-dir ./replica \
//	    -follow http://primary:8080 -advertise http://replica:8080
//
// A follower names itself on its primary's replication slots by its
// -advertise URL; failover is POST /promote on the follower.
//
// Endpoints (JSON):
//
//	GET  /healthz                          liveness + per-city engine/registry metrics
//	GET  /cities                           known cities + residency
//	GET  /cities/{city}                    schema, POI counts, bounds
//	GET  /cities/{city}/pois?cat=rest&near=48.85,2.35&k=10
//	POST /cities/{city}/groups             {"members":[{"acco":[0-5...],...}]}
//	GET  /cities/{city}/groups/{id}
//	POST /cities/{city}/packages           {"group":1,"consensus":"pairwise","k":5,
//	                                        "query":{"Acco":1,...,"Budget":0},
//	                                        "weights":[2,1,1]}
//	GET  /cities/{city}/packages/{id}?routes=1
//	POST /cities/{city}/packages/{id}/ops  {"member":0,"op":"remove|add|replace|generate",
//	                                        "ci":0,"poi":42,"rect":{...}}
//	POST /cities/{city}/packages/{id}/refine  {"strategy":"batch|individual","rebuild":true}
//	GET  /cities/{city}/wal                replication stream
//	POST /promote                          promote a follower
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"

	"grouptravel/internal/dataset"
	"grouptravel/internal/pprofserve"
	"grouptravel/internal/server"
	"grouptravel/internal/telemetry"
)

func main() {
	citySpec := flag.String("city", "", `extra city: "builtin:<Name>" or a JSON path (default builtin:Paris when -data-dir is unset)`)
	dataDir := flag.String("data-dir", "", "directory of <key>.json city datasets to serve")
	snapshotDir := flag.String("snapshot-dir", "", "directory of every city's write-ahead log, snapshot and epoch (required)")
	compactEvery := flag.Int("compact-every", 0, "compact a city's log into its snapshot after this many records (0: default 1024, <0: off; 4MiB of log always compacts)")
	preload := flag.String("preload-cities", "", "comma-separated city keys to load at boot (warm-up)")
	follow := flag.String("follow", "", "run as a read-only follower replicating from the primary at this base URL into its own -snapshot-dir")
	advertise := flag.String("advertise", "", "base URL peers and routers reach this node at (self-described on /healthz; a follower's replication-slot id)")
	followPoll := flag.Duration("follow-poll", 0, "replication stream reconnect pacing: the failure backoff base (0: default 250ms)")
	addr := flag.String("addr", ":8080", "listen address (port 0: a free port, printed at startup)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060; empty: off)")
	logFormat := flag.String("log-format", "off", `structured request log: "json", "text", or "off"`)
	logLevel := flag.String("log-level", "info", "minimum request-log level (debug, info, warn, error)")
	flag.Parse()

	accessLog, err := telemetry.NewAccessLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		log.Fatal(err)
	}
	opts := server.Options{
		DataDir:      *dataDir,
		SnapshotDir:  *snapshotDir,
		CompactEvery: *compactEvery,
		Follow:       *follow,
		FollowPoll:   *followPoll,
		Advertise:    *advertise,
		AccessLog:    accessLog,
	}
	if *preload != "" {
		for _, key := range strings.Split(*preload, ",") {
			if key = strings.TrimSpace(key); key != "" {
				opts.PreloadCities = append(opts.PreloadCities, key)
			}
		}
	}
	if *citySpec == "" && *dataDir == "" {
		*citySpec = "builtin:Paris"
	}
	if *citySpec != "" {
		city, err := loadCity(*citySpec)
		if err != nil {
			log.Fatal(err)
		}
		opts.Cities = []*dataset.City{city}
	}
	srv, err := server.NewMultiCity(opts)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	keys := srv.Registry().Keys()
	fmt.Printf("grouptravel-server: %d cities %v on %s\n", len(keys), keys, ln.Addr())
	fmt.Printf("grouptravel-server: WAL + snapshots under %s\n", *snapshotDir)
	if role := srv.Role(); role != "primary" {
		fmt.Printf("grouptravel-server: role %s (primary %s)\n", role, *follow)
	}
	if *pprofAddr != "" {
		fmt.Printf("grouptravel-server: pprof on %s\n", *pprofAddr)
		pprofserve.Start(*pprofAddr, func(err error) { log.Print(err) })
	}
	log.Fatal(http.Serve(ln, srv.Handler()))
}

func loadCity(spec string) (*dataset.City, error) {
	if name, ok := strings.CutPrefix(spec, "builtin:"); ok {
		return dataset.BuiltinCity(name)
	}
	f, err := os.Open(spec)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.LoadJSON(f)
}
