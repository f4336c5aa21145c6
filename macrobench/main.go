// Command macrobench is GroupTravel's end-to-end benchmark. It boots the
// whole serving stack in-process — paper-scale cities, a persistent
// primary (WAL fsync on every append), one streaming follower, and the
// edge-cached router — seeds it through the public HTTP API, and drives
// one of three persona workloads at it:
//
//	browse     token-less reads that the router edge cache and shard byte
//	           cache answer; the engine and WAL barely run
//	plan       group creation and package builds over more clusterings
//	           than the engine's cluster cache holds
//	customize  the paper's REMOVE/ADD/REPLACE loop with read-your-writes
//	           read-backs: the WAL, replication and invalidation path
//
// Load is open loop (Poisson arrivals at a frozen rate) from at most
// nproc senders, each on one keep-alive connection, and every request is
// timed from when it was due. Every build, op and read-back is checked,
// and at the end the follower must converge and serve byte-identical
// packages. An untraced run reports the end-to-end metrics; -trace 1
// reports per-layer metrics from spans recorded around each layer and
// from replaying the run's inputs through the engine. -sweep reports each
// workload's knee rate at the p99 SLOs and its closed-loop capacity.
//
// Run from the repository root:
//
//	bash macrobench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
//	bash macrobench/run.sh -workload all -runs 5 -out base.json
//	bash macrobench/run.sh -compare base.json new.json
//	bash macrobench/run.sh -workload plan -sweep
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Standard settings; BENCHMARK.json's run_seconds equals stdSeconds.
const (
	stdSeconds  = 20
	stdCities   = 4
	stdWarmup   = 2 * time.Second
	stdSetups   = 3
	stdReplicas = 50
)

func main() { os.Exit(run()) }

func run() int {
	workloadFlag := flag.String("workload", "all", "browse, plan, customize, or all")
	seed := flag.Int64("seed", 1, "seed for cities and traffic")
	seconds := flag.Float64("seconds", stdSeconds, "measured open-loop window per run, seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	traceOut := flag.String("trace-out", "", "write the traced run's spans to this JSON-lines file")
	runs := flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...; reports median, quartiles and range")
	out := flag.String("out", "", "merge results under the \"macro\" key of this JSON file, keeping its other keys")
	compareFlag := flag.Bool("compare", false, "compare two -out files: macrobench -compare base.json new.json")
	spec := flag.String("bench", "BENCHMARK.json", "benchmark definition -compare reads bounds from")
	sweep := flag.Bool("sweep", false, "step the offered rate and report each workload's knee at the p99 SLOs (informational)")
	flag.Parse()

	if *compareFlag {
		return runCompare(*spec, flag.Args())
	}
	var chosen []workload
	if *workloadFlag == "all" {
		chosen = workloads
	} else if w, ok := workloadByName(*workloadFlag); ok {
		chosen = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "macrobench: unknown workload %q\n", *workloadFlag)
		return 2
	}
	if *trace != 0 && *trace != 1 || *runs < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "macrobench: need -trace 0|1, -runs >= 1, -seconds > 0")
		return 2
	}

	dir, err := stateDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "macrobench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{
		seed: *seed, seconds: *seconds, warmup: stdWarmup, trace: *trace == 1, traceOut: *traceOut,
		cities: stdCities, senders: runtime.NumCPU(), setups: stdSetups, replicas: stdReplicas, dir: dir,
	}
	if *sweep {
		return runSweep(cfg, chosen)
	}
	standard := *seconds == stdSeconds
	if !standard {
		fmt.Fprintln(os.Stderr, "macrobench: non-standard window; results are marked \"standard\": false")
	}

	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	mf := &macroFile{
		Schema: "macrobench/v1", Standard: standard, WALSync: walSync.String(), Nproc: cfg.senders,
		Seconds: *seconds, Workloads: map[string]*workloadStats{},
	}
	var attempted, failed int64
	for i := 0; i < *runs; i++ {
		mf.Seeds = append(mf.Seeds, *seed+int64(i))
	}
	for _, w := range chosen {
		ws := &workloadStats{Rate: w.rate, Metrics: map[string]*metricStats{}}
		mf.Workloads[w.name] = ws
		for i := 0; i < *runs; i++ {
			c := cfg
			c.seed = *seed + int64(i)
			o, err := runWorkload(c, w)
			if err != nil {
				fmt.Fprintln(os.Stderr, "macrobench:", err)
				return 1
			}
			attempted += o.attempted
			failed += o.failed
			for _, m := range o.msgs {
				fmt.Fprintf(os.Stderr, "macrobench: %s seed %d: %s\n", w.name, c.seed, m)
			}
			if o.invalid != "" {
				fmt.Fprintf(os.Stderr, "macrobench: %s seed %d: run invalid: %s\n", w.name, c.seed, o.invalid)
				ws.Invalid = append(ws.Invalid, fmt.Sprintf("seed %d: %s", c.seed, o.invalid))
			}
			for _, d := range defs {
				ms := ws.Metrics[d.name]
				if ms == nil {
					ms = &metricStats{Unit: d.unit}
					ws.Metrics[d.name] = ms
				}
				ms.Values = append(ms.Values, o.metrics[d.name])
			}
		}
		for _, d := range defs {
			ms := ws.Metrics[d.name]
			ms.spread = summarize(ms.Values)
			if *runs == 1 {
				fmt.Printf("%s %s %s %s\n", w.name, d.name, formatValue(ms.Median), d.unit)
			} else {
				fmt.Printf("%s %s %s %s (q1 %s, q3 %s, min %s, max %s, %d runs)\n", w.name, d.name,
					formatValue(ms.Median), d.unit, formatValue(ms.Q1), formatValue(ms.Q3),
					formatValue(ms.Min), formatValue(ms.Max), *runs)
			}
		}
	}
	fmt.Printf("macrobench: wal sync %s, %d senders, standard %v\n", walSync, cfg.senders, standard)
	if *out != "" {
		if err := mergeInto(*out, mf); err != nil {
			fmt.Fprintln(os.Stderr, "macrobench: write:", err)
			return 1
		}
	}

	correct := failed == 0
	fmt.Println(resultLine(correct, attempted, failed, chosen, defs, mf))
	if !correct {
		fmt.Fprintf(os.Stderr, "macrobench: FAIL: %d of %d requests failed or violated a check\n", failed, attempted)
		return 1
	}
	return 0
}

// resultLine renders the final JSON object. With one workload the keys
// are metric names; with several they are workload.metric.
func resultLine(correct bool, attempted, failed int64, chosen []workload, defs []metricDef, mf *macroFile) string {
	type value struct {
		Value any    `json:"value"`
		Unit  string `json:"unit"`
	}
	metrics := map[string]value{}
	for _, w := range chosen {
		for _, d := range defs {
			key := d.name
			if len(chosen) > 1 {
				key = w.name + "." + d.name
			}
			var v any
			if med := mf.Workloads[w.name].Metrics[d.name].Median; !math.IsNaN(med) && !math.IsInf(med, 0) {
				v = med
			}
			metrics[key] = value{Value: v, Unit: d.unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics,
	})
	return string(line)
}

// stateDir makes the run's scratch directory under .bench_build in the
// working directory, so the run writes nowhere else.
func stateDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(".bench_build", "macrobench-state-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// mergeInto writes mf under the "macro" key of path, keeping every other
// key the file holds.
func mergeInto(path string, mf *macroFile) error {
	doc := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s exists but is not a JSON object: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	macro, err := json.Marshal(mf)
	if err != nil {
		return err
	}
	doc["macro"] = macro
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func runCompare(specPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "macrobench: -compare needs two files: base.json new.json")
		return 2
	}
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "macrobench:", err)
		return 2
	}
	base, err := readMacro(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "macrobench:", err)
		return 2
	}
	cur, err := readMacro(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "macrobench:", err)
		return 2
	}
	if compare(os.Stdout, &spec, base, cur) {
		return 1
	}
	return 0
}

// p99 SLOs for the sweep's knee.
var sweepSLO = map[opClass]float64{opRead: 5, opCustomize: 20, opBuild: 50}

// runSweep steps the offered rate on one topology per workload and
// reports the highest rate whose supported p99s meet the SLOs with no
// growing backlog, then the capacity nproc closed-loop clients reach on
// the workload's fixed work. Informational: neither is compared or
// gated, because on a shared 2-core host both vary more across runs
// than any bound the benchmark may set.
func runSweep(cfg config, chosen []workload) int {
	window := time.Duration(cfg.seconds * float64(time.Second))
	for _, w := range chosen {
		cfg.setups = 1
		e, err := setup(cfg, w, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macrobench:", err)
			return 1
		}
		e.openLoop(w.rate, cfg.warmup, uint64(cfg.seed)*4+1, false)
		knee := 0.0
		for i, f := range []float64{0.5, 1, 1.5, 2, 3, 4} {
			rate := w.rate * f
			res := e.openLoop(rate, window, uint64(cfg.seed)*4+uint64(i)+2, false)
			ok := res.errors+res.violations == 0 && res.elapsed < window+window/10
			line := fmt.Sprintf("%s sweep rate %g/s:", w.name, rate)
			for _, op := range []opClass{opRead, opCustomize, opBuild} {
				p := percentile(res.lat[op], 0.99)
				line += fmt.Sprintf(" %s_p99 %s ms", opNames[op], formatValue(p))
				if !math.IsNaN(p) && p > sweepSLO[op] {
					ok = false
				}
			}
			fmt.Printf("%s backlog %v ok %v\n", line, res.elapsed-window, ok)
			if !ok {
				break
			}
			knee = rate
		}
		fmt.Printf("%s knee_rate %g arrivals/s\n", w.name, knee)
		capRes := e.closedLoop(w.capacityArrivals, uint64(cfg.seed)*4+3)
		fmt.Printf("%s capacity_rps %s req/s (%d requests, %d failed)\n", w.name,
			formatValue(float64(capRes.attempted)/capRes.elapsed.Seconds()), capRes.attempted, capRes.errors+capRes.violations)
		e.close()
	}
	return 0
}
