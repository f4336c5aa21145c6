package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// config is one invocation's settings. The tests shrink it; the command
// line runs the standard configuration, only the window being settable.
type config struct {
	seed     int64
	seconds  float64 // measured open-loop window
	warmup   time.Duration
	trace    bool
	traceOut string
	cities   int
	senders  int
	setups   int    // set-ups per untraced run; setup_s is their median
	seeded   int    // seeded packages per city; 0 uses the workload's
	replicas int    // packages compared across nodes at the end
	dir      string // scratch state, removed at exit
}

func (c config) seedPkgs(w workload) int {
	if c.seeded > 0 {
		return c.seeded
	}
	return w.seedPkgs
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the system sees, from an untraced run.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"build_p50_ms", "ms"},
	{"customize_p50_ms", "ms"},
	{"refine_p50_ms", "ms"},
	{"cpu_us_per_req", "us"},
	{"live_heap_mb", "MiB"},
}

// layerMetrics come from a traced run, named by the module they measure.
var layerMetrics = []metricDef{
	{"router.edge_hit_ratio", "ratio"},
	{"router.edge_coalesced", "count"},
	{"router.edge_invalidations_per_write", "ratio"},
	{"router.pinned_read_share", "ratio"},
	{"router.follower_read_share", "ratio"},
	{"router.self_us_p50", "us"},
	{"router.self_us_p99", "us"},
	{"router.hop_us_p50", "us"},
	{"server.read_us_p50", "us"},
	{"server.read_us_p99", "us"},
	{"server.build_us_p50", "us"},
	{"server.build_us_p99", "us"},
	{"server.refine_us_p50", "us"},
	{"server.customize_us_p50", "us"},
	{"server.customize_us_p99", "us"},
	{"server.bytecache_hit_ratio", "ratio"},
	{"server.build_dedups", "count"},
	{"core.cluster_miss_ratio", "ratio"},
	{"fuzzy.cluster_us_p50", "us"},
	{"ci.build_us_p50", "us"},
	{"consensus.profile_us_p50", "us"},
	{"consensus.pairwise_us_p50", "us"},
	{"interact.op_us_p50", "us"},
	{"interact.refine_us_p50", "us"},
	{"store.appends", "count"},
	{"store.fsyncs_per_append", "ratio"},
	{"store.append_mean_us", "us"},
	{"store.fsync_mean_us", "us"},
	{"store.compactions", "count"},
	{"store.compaction_s", "s"},
	{"replicate.frames_applied", "count"},
	{"replicate.frames_per_wakeup", "ratio"},
	{"replicate.lag_records_max", "count"},
	{"replicate.stale_read_ratio", "ratio"},
	{"replicate.staleness_records_p99", "count"},
	{"registry.city_load_ms", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.queue_us_p99", "us"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.http_us_p50", "us"},
	{"trace.read_attribution_pct", "%"},
	// End-to-end tails from the traced window: too noisy on a shared
	// 2-core host to gate, reported for the record.
	{"e2e.read_p99_ms", "ms"},
	{"e2e.build_p99_ms", "ms"},
	{"e2e.customize_p99_ms", "ms"},
}

// maxLateMS is the generator lateness p99 above which a run is invalid:
// the arrivals were not offered on schedule. It is two of the Go
// scheduler's 10ms preemption quanta: on two cores the serving stack's GC
// and snapshot compactions occupy both Ps for up to one quantum, delaying
// the dispatcher's timer with everything else, and a p99 near 10ms is
// the in-process norm.
const maxLateMS = 20

// outcome is one workload run's result.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	msgs      []string
	invalid   string // why the run is invalid, "" when valid
}

func (o *outcome) count(r *recorder) {
	o.attempted += r.attempted
	o.failed += r.errors + r.violations
	for _, m := range r.msgs {
		if len(o.msgs) < 8 {
			o.msgs = append(o.msgs, m)
		}
	}
}

func (o *outcome) violation(msg string) {
	o.failed++
	if len(o.msgs) < 8 {
		o.msgs = append(o.msgs, "violation: "+msg)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWorkload runs one workload end to end: set-up, warm-up, the
// measured open-loop window, the convergence checks, and for a traced
// run the replay.
func runWorkload(cfg config, w workload) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	window := time.Duration(cfg.seconds * float64(time.Second))
	rate := w.rate
	var tr *tracer
	var rlog *replayLog
	setups := cfg.setups
	if cfg.trace {
		// Half the window's arrivals are traced; each makes at most ten
		// requests of at most four spans.
		tr = newTracer(int(rate*cfg.seconds*20) + 4096)
		rlog = &replayLog{}
		setups = 1
	}

	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setup(cfg, w, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer e.close()
	sort.Float64s(setupS)
	out.metrics["setup_s"] = median(setupS)

	seed := uint64(cfg.seed)
	warm := e.openLoop(rate, cfg.warmup, seed*4+1, false)
	out.count(&warm.recorder)

	before, err := e.scrapeAll()
	if err != nil {
		return nil, err
	}
	missesBefore, err := e.clusterMisses()
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcBefore := ms.NumGC
	cpuBefore := cpuTime()
	var lag *lagSampler
	if cfg.trace {
		lag = e.sampleLag(100 * time.Millisecond)
		e.replay = rlog
	}

	res := e.openLoop(rate, window, seed*4+2, cfg.trace)

	cpu := cpuTime() - cpuBefore
	e.replay = nil
	if lag != nil {
		out.metrics["replicate.lag_records_max"] = lag.stop()
	}
	runtime.ReadMemStats(&ms)
	gcCycles := ms.NumGC - gcBefore
	// The second cycle empties the sync.Pool victim caches the first one
	// leaves behind, so only live state is counted.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapInuse) / (1 << 20)
	after, err := e.scrapeAll()
	if err != nil {
		return nil, err
	}
	missesAfter, err := e.clusterMisses()
	if err != nil {
		return nil, err
	}
	out.count(&res.recorder)

	late := percentileOr(res.lateMS, 0.99)
	if late > maxLateMS {
		out.invalid = fmt.Sprintf("generator lateness p99 %.2f ms > %d ms", late, maxLateMS)
	}

	m := out.metrics
	m["read_p50_ms"] = percentile(res.lat[opRead], 0.5)
	m["build_p50_ms"] = percentile(res.lat[opBuild], 0.5)
	m["customize_p50_ms"] = percentile(res.lat[opCustomize], 0.5)
	m["refine_p50_ms"] = percentile(res.lat[opRefine], 0.5)
	m["cpu_us_per_req"] = ratio(float64(cpu)/1e3, float64(res.attempted))
	m["live_heap_mb"] = heapMB

	if err := e.converge(10 * time.Second); err != nil {
		out.violation(err.Error())
	}
	for _, v := range e.checkReplicas(cfg.replicas, cfg.seed) {
		out.violation(v)
	}

	if cfg.trace {
		builds := float64(len(res.lat[opBuild]) + len(res.lat[opRefine]))
		layers(m, before, after, res, tr)
		m["core.cluster_miss_ratio"] = ratio(missesAfter-missesBefore, builds)
		m["go.gc_cycles"] = float64(gcCycles)
		if m["registry.city_load_ms"], err = e.cityLoadMS(); err != nil {
			return nil, err
		}
		rt, err := replay(e.data, rlog)
		if err != nil {
			return nil, err
		}
		m["fuzzy.cluster_us_p50"] = rt.cluster
		m["ci.build_us_p50"] = rt.ciBuild
		m["consensus.profile_us_p50"] = rt.profile
		m["consensus.pairwise_us_p50"] = rt.pairwise
		m["interact.op_us_p50"] = rt.op
		m["interact.refine_us_p50"] = rt.refine
		if d := tr.dropped.Load(); d > 0 {
			fmt.Fprintf(os.Stderr, "macrobench: %s: %d spans dropped past the trace buffer\n", w.name, d)
		}
		if cfg.traceOut != "" {
			if err := writeSpans(cfg.traceOut, tr); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
	}
	return out, nil
}

// percentileOr is percentile without the support rule, 0 when empty:
// for the per-layer attribution and the generator's own measures, which
// are never gated and must always be numbers.
func percentileOr(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	if v := quantile(xs, q); !math.IsNaN(v) {
		return v
	}
	return 0
}

// layers fills the per-layer metrics that come from /metrics deltas and
// from the window's spans.
func layers(m map[string]float64, before, after scrapes, res *phaseResult, tr *tracer) {
	rd := func(name string, match ...string) float64 { return delta(before.router, after.router, name, match...) }
	pd := func(name string, match ...string) float64 {
		return delta(before.primary, after.primary, name, match...)
	}
	fd := func(name string, match ...string) float64 {
		return delta(before.follower, after.follower, name, match...)
	}

	hits, misses := rd("gt_router_edgecache_hits_total"), rd("gt_router_edgecache_misses_total")
	m["router.edge_hit_ratio"] = ratio(hits, hits+misses)
	m["router.edge_coalesced"] = rd("gt_router_edgecache_coalesced_total")
	m["router.edge_invalidations_per_write"] = ratio(rd("gt_router_edgecache_invalidations_total"), rd("gt_router_mutations_total"))
	m["router.pinned_read_share"] = ratio(rd("gt_router_reads_pinned_total"), rd("gt_router_reads_total"))
	fr, pr := rd("gt_router_reads_follower_total"), rd("gt_router_reads_primary_total")
	m["router.follower_read_share"] = ratio(fr, fr+pr)

	bh := pd("gt_bytecache_hits_total") + fd("gt_bytecache_hits_total")
	bm := pd("gt_bytecache_misses_total") + fd("gt_bytecache_misses_total")
	m["server.bytecache_hit_ratio"] = ratio(bh, bh+bm)
	m["server.build_dedups"] = pd("gt_build_dedups_total")

	appends := pd("gt_wal_append_seconds_count")
	m["store.appends"] = appends
	m["store.fsyncs_per_append"] = ratio(pd("gt_wal_fsyncs_total"), appends)
	m["store.append_mean_us"] = ratio(pd("gt_wal_append_seconds_sum")*1e6, appends)
	// Each fsync lands in exactly one series: its log-size bucket's.
	m["store.fsync_mean_us"] = ratio(pd("gt_wal_fsync_seconds_sum")*1e6, pd("gt_wal_fsync_seconds_count"))
	m["store.compactions"] = pd("gt_wal_compactions_total")
	m["store.compaction_s"] = pd("gt_wal_compaction_seconds_sum")
	m["replicate.frames_applied"] = fd("gt_replication_frames_applied_total")
	m["replicate.frames_per_wakeup"] = ratio(pd("gt_replication_stream_frames_total"), pd("gt_replication_stream_wakeups_total"))

	m["replicate.stale_read_ratio"] = ratio(float64(res.stale), float64(len(res.staleness)))
	m["replicate.staleness_records_p99"] = percentileOr(res.staleness, 0.99)
	m["e2e.read_p99_ms"] = percentileOr(res.lat[opRead], 0.99)
	m["e2e.build_p99_ms"] = percentileOr(res.lat[opBuild], 0.99)
	m["e2e.customize_p99_ms"] = percentileOr(res.lat[opCustomize], 0.99)
	m["loadgen.late_ms_p99"] = percentileOr(res.lateMS, 0.99)
	m["loadgen.queue_us_p99"] = percentileOr(res.queueUS, 0.99)
	m["trace.overhead_pct"] = 100 * (medianOf(res.tracedRead)/medianOf(res.untracedRead) - 1)

	var routerSelf, hop, readShard, readTotal, readClient, readHTTP []float64
	shard := map[opClass][]float64{}
	for _, lt := range attribute(tr.recorded()) {
		if lt.op == opRead {
			routerSelf = append(routerSelf, lt.router)
			readTotal = append(readTotal, lt.router+lt.hop+lt.shard)
			readClient = append(readClient, lt.client)
			readHTTP = append(readHTTP, lt.client-(lt.router+lt.hop+lt.shard))
		}
		if lt.upstream {
			hop = append(hop, lt.hop)
			shard[lt.op] = append(shard[lt.op], lt.shard)
			if lt.op == opRead {
				readShard = append(readShard, lt.shard)
			}
		}
	}
	m["router.self_us_p50"] = percentileOr(routerSelf, 0.5)
	m["router.self_us_p99"] = percentileOr(routerSelf, 0.99)
	m["router.hop_us_p50"] = percentileOr(hop, 0.5)
	m["server.read_us_p50"] = percentileOr(readShard, 0.5)
	m["server.read_us_p99"] = percentileOr(readShard, 0.99)
	m["server.build_us_p50"] = percentileOr(shard[opBuild], 0.5)
	m["server.build_us_p99"] = percentileOr(shard[opBuild], 0.99)
	m["server.refine_us_p50"] = percentileOr(shard[opRefine], 0.5)
	m["server.customize_us_p50"] = percentileOr(shard[opCustomize], 0.5)
	m["server.customize_us_p99"] = percentileOr(shard[opCustomize], 0.99)
	// What the spans leave unattributed on a read: the generator's HTTP
	// client, loopback, and the router's net/http server outside its
	// handler.
	m["trace.http_us_p50"] = percentileOr(readHTTP, 0.5)
	m["trace.read_attribution_pct"] = 100 * medianOf(readTotal) / medianOf(readClient)
}

func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	return median(xs)
}

// lagSampler polls both nodes' applied sequences and keeps the largest
// per-city gap seen: how many records the follower trailed the primary.
// (The follower's own lag gauge reads its position at its last completed
// sync, which a push stream keeps at zero.)
type lagSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	max  float64
}

func (e *env) sampleLag(every time.Duration) *lagSampler {
	s := &lagSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				prim, err := scrapeMetrics(e.ctl, e.top.primary)
				if err != nil {
					continue
				}
				foll, err := scrapeMetrics(e.ctl, e.top.follower)
				if err != nil {
					continue
				}
				for _, key := range e.top.keys {
					gap := prim.sum("gt_applied_seq", "city", key) - foll.sum("gt_applied_seq", "city", key)
					s.max = math.Max(s.max, gap)
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the maximum.
func (s *lagSampler) stop() float64 {
	close(s.done)
	s.wg.Wait()
	return s.max
}

// formatValue renders a metric with all its digits; NaN (a percentile
// the sample cannot support) renders as null.
func formatValue(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
