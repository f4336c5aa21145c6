package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end on a small configuration —
// one city, 20 seeded packages, one-second windows — untraced, and the
// customize workload traced, so the benchmark cannot rot unnoticed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full topology")
	}
	base := config{
		seed: 7, seconds: 1, warmup: 200 * time.Millisecond, cities: 1, senders: 2,
		setups: 1, seeded: 20, replicas: 10,
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.name != "customize" {
				continue
			}
			cfg := base
			cfg.trace = traced
			cfg.dir = t.TempDir()
			o, err := runWorkload(cfg, w)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d failed: %v", w.name, traced, o.failed, o.attempted, o.msgs)
			}
			defs := e2eMetrics
			if traced {
				defs = layerMetrics
			}
			for _, d := range defs {
				v, ok := o.metrics[d.name]
				if !ok {
					t.Errorf("%s (traced %v): metric %s missing", w.name, traced, d.name)
					continue
				}
				// Percentiles may lack support in a one-second window;
				// everything else must be a number.
				if math.IsInf(v, 0) || (math.IsNaN(v) && !isPercentile(d.name)) {
					t.Errorf("%s (traced %v): %s = %v", w.name, traced, d.name, v)
				}
			}
		}
	}
}

func isPercentile(name string) bool {
	return strings.Contains(name, "_p50") || strings.Contains(name, "_p99")
}
