package server

// Telemetry wiring for the shard daemon. One Registry per Server (so
// embedded servers and tests stay isolated), per-class HTTP metrics via
// the shared middleware, real counters on the compaction and replication
// apply paths, and scrape-time GaugeFunc/CounterFunc rows for values the
// system already tracks (WAL stats, replication lag, registry residency)
// — the same values /healthz reports, so the two surfaces can never
// disagree.

import (
	"grouptravel/internal/replicate"
	"grouptravel/internal/telemetry"
)

// serverMetrics is the Server's instrument set: the registry behind
// GET /metrics plus the process-wide instruments handed to each city.
type serverMetrics struct {
	reg  *telemetry.Registry
	http *telemetry.HTTPMetrics

	// WAL latencies are process-wide histograms (per-city histograms
	// would multiply the exposition by the city count for little signal;
	// per-city WAL *stats* are exposed as scrape-time gauges instead).
	// The fsync histogram is partitioned by log-file size at sync time
	// (fsyncSmall/Med/Large): fsync latency tracks the size of the file
	// being synced — ext4 journals metadata proportional to it — which is
	// what makes appends on a 100k-record log read ~6x slower than on a
	// fresh one while bytes/op stay flat. The size label makes that
	// visible on /metrics instead of looking like an append regression.
	walAppend  *telemetry.Histogram
	fsyncSmall *telemetry.Histogram // log < 1 MiB at sync
	fsyncMed   *telemetry.Histogram // 1–16 MiB
	fsyncLarge *telemetry.Histogram // >= 16 MiB
	compaction *telemetry.Histogram

	// streams are the push-replication instruments (stream.go): open
	// streams, frames flushed to streams, commit wakeups consumed, and
	// heartbeats written. Process-wide, like the WAL histograms.
	streams streamMetrics
}

// streamMetrics instruments the /wal push streams.
type streamMetrics struct {
	open       *telemetry.Gauge
	frames     *telemetry.Counter
	wakeups    *telemetry.Counter
	heartbeats *telemetry.Counter
}

func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg:  reg,
		http: telemetry.NewHTTPMetrics(reg),
		walAppend: reg.Histogram("gt_wal_append_seconds",
			"WAL append latency: marshal, frame, write, and the sync policy's share.", nil),
		fsyncSmall: reg.Histogram("gt_wal_fsync_seconds",
			"WAL fsync latency (group commits and background flushes).", nil, "size", "lt1MiB"),
		fsyncMed: reg.Histogram("gt_wal_fsync_seconds",
			"WAL fsync latency (group commits and background flushes).", nil, "size", "1-16MiB"),
		fsyncLarge: reg.Histogram("gt_wal_fsync_seconds",
			"WAL fsync latency (group commits and background flushes).", nil, "size", "ge16MiB"),
		compaction: reg.Histogram("gt_wal_compaction_seconds",
			"Snapshot compaction duration, log rotation to pending-segment removal.", nil),
	}
	m.streams = streamMetrics{
		open: reg.Gauge("gt_replication_stream_open",
			"Push replication streams currently held open."),
		frames: reg.Counter("gt_replication_stream_frames_total",
			"WAL frames flushed to push streams."),
		wakeups: reg.Counter("gt_replication_stream_wakeups_total",
			"Commit wakeups consumed by push streams."),
		heartbeats: reg.Counter("gt_replication_stream_heartbeats_total",
			"Heartbeat frames written to idle push streams."),
	}
	return m
}

// fsyncBySize selects the fsync histogram for the log size being synced —
// the fsyncFor hook WAL.Instrument takes.
func (m *serverMetrics) fsyncBySize(sizeBytes int64) *telemetry.Histogram {
	switch {
	case sizeBytes < 1<<20:
		return m.fsyncSmall
	case sizeBytes < 16<<20:
		return m.fsyncMed
	default:
		return m.fsyncLarge
	}
}

// cityMetrics are one city's hot-path counters. Registration is
// idempotent on (name, city), so a retried load after a failed one
// resumes the same counters.
type cityMetrics struct {
	compactions   *telemetry.Counter
	framesApplied *telemetry.Counter
}

func (m *serverMetrics) city(key string) cityMetrics {
	return cityMetrics{
		compactions: m.reg.Counter("gt_wal_compactions_total",
			"Snapshot compactions completed.", "city", key),
		framesApplied: m.reg.Counter("gt_replication_frames_applied_total",
			"Replicated WAL frames applied to the serving state.", "city", key),
	}
}

// registerScrapeFuncs wires the scrape-time rows: registry residency,
// per-city WAL stats and applied sequence, and — on followers — the
// replication lag this node's tailer reports. Closures sample loaded
// cities only (scraping never forces a load); cities not loaded yet read 0.
func (s *Server) registerScrapeFuncs(keys []string) {
	reg := s.metrics.reg
	reg.GaugeFunc("gt_cities_known", "Cities this server can serve.",
		func() float64 { return float64(len(keys)) })
	reg.GaugeFunc("gt_cities_resident", "Cities currently loaded.",
		func() float64 { return float64(s.reg.Stats().Loaded) })

	for _, key := range keys {
		key := key
		reg.GaugeFunc("gt_wal_records", "WAL records since the last compaction (replay debt).",
			func() float64 {
				return s.sampleCity(key, func(cs *cityState) float64 {
					if cs.wal == nil {
						return 0
					}
					return float64(cs.wal.Stats().Records)
				})
			}, "city", key)
		reg.GaugeFunc("gt_wal_bytes", "WAL bytes since the last compaction (backpressure gauge).",
			func() float64 {
				return s.sampleCity(key, func(cs *cityState) float64 {
					if cs.wal == nil {
						return 0
					}
					return float64(cs.wal.Stats().Bytes)
				})
			}, "city", key)
		reg.CounterFunc("gt_wal_fsyncs_total", "WAL fsyncs performed.",
			func() float64 {
				return s.sampleCity(key, func(cs *cityState) float64 {
					if cs.wal == nil {
						return 0
					}
					return float64(cs.wal.Stats().Fsyncs)
				})
			}, "city", key)
		reg.GaugeFunc("gt_applied_seq", "Last committed (primary) or applied (follower) WAL sequence.",
			func() float64 {
				return s.sampleCity(key, func(cs *cityState) float64 { return float64(cs.appliedSeq()) })
			}, "city", key)
	}

	if s.follower == nil {
		return
	}
	for _, key := range keys {
		key := key
		lagField := func(f func(l replicate.Lag) float64) func() float64 {
			return func() float64 {
				if l, ok := s.follower.Lag(key); ok {
					return f(l)
				}
				return 0
			}
		}
		reg.GaugeFunc("gt_replication_lag_records", "Records behind the primary at the last sync.",
			lagField(func(l replicate.Lag) float64 { return float64(l.Records) }), "city", key)
		reg.CounterFunc("gt_replication_snapshot_handoffs_total", "Compaction handoffs installed.",
			lagField(func(l replicate.Lag) float64 { return float64(l.SnapshotHandoffs) }), "city", key)
		reg.CounterFunc("gt_replication_wire_retries_total", "Torn/corrupt wire responses that forced a re-fetch.",
			lagField(func(l replicate.Lag) float64 { return float64(l.WireRetries) }), "city", key)
		reg.CounterFunc("gt_replication_syncs_total", "Completed replication sync cycles.",
			lagField(func(l replicate.Lag) float64 { return float64(l.Syncs) }), "city", key)
	}
}

// sampleCity reads one gauge off a loaded city, 0 when not resident.
func (s *Server) sampleCity(key string, f func(cs *cityState) float64) float64 {
	c, ok := s.reg.Resident(key)
	if !ok {
		return 0
	}
	return f(c.State)
}

// Metrics exposes the server's telemetry registry (the /metrics source)
// for embedders, daemons and tests.
func (s *Server) Metrics() *telemetry.Registry { return s.metrics.reg }

// HTTPMetrics exposes the per-class HTTP instruments (SLO assertions).
func (s *Server) HTTPMetrics() *telemetry.HTTPMetrics { return s.metrics.http }
