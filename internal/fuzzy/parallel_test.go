package fuzzy

import (
	"math"
	"runtime"
	"testing"

	"grouptravel/internal/geo"
	"grouptravel/internal/rng"
)

func clusterPoints(n int, seed int64) []geo.Point {
	src := rng.New(seed)
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{Lat: src.Range(48.80, 48.92), Lon: src.Range(2.25, 2.42)}
	}
	return pts
}

// TestParallelBitIdentical is the determinism contract of the worker pool:
// for a fixed seed, any worker count produces byte-identical centroids and
// memberships to the sequential path.
func TestParallelBitIdentical(t *testing.T) {
	pts := clusterPoints(700, 17)
	norm := geo.NormalizerFor(pts)

	for _, m := range []float64{2, 1.7} { // exercise both the m=2 fast path and math.Pow
		cfg := DefaultConfig(5)
		cfg.M = m
		cfg.Workers = 1
		seq, err := Cluster(pts, norm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 64} {
			cfg.Workers = workers
			par, err := Cluster(pts, norm, cfg)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if par.Iterations != seq.Iterations {
				t.Fatalf("workers=%d m=%v: %d iterations vs %d sequential", workers, m, par.Iterations, seq.Iterations)
			}
			for j := range seq.Centroids {
				if par.Centroids[j] != seq.Centroids[j] {
					t.Fatalf("workers=%d m=%v: centroid %d differs: %+v vs %+v",
						workers, m, j, par.Centroids[j], seq.Centroids[j])
				}
			}
			for i := range seq.Weights {
				for j := range seq.Weights[i] {
					if par.Weights[i][j] != seq.Weights[i][j] {
						t.Fatalf("workers=%d m=%v: weight [%d][%d] differs: %v vs %v",
							workers, m, i, j, par.Weights[i][j], seq.Weights[i][j])
					}
				}
			}
		}
	}
}

// TestEffectiveWorkers pins the auto-gating policy: tiny inputs stay
// sequential under the automatic setting, explicit requests are honored.
func TestEffectiveWorkers(t *testing.T) {
	cases := []struct {
		workers, n, want int
	}{
		{1, 10000, 1},
		{8, 100, 8},     // explicit request honored on small input
		{200, 100, 100}, // but never more workers than points
		{0, 100, 1},     // auto: too small to amortize goroutines
	}
	for _, c := range cases {
		cfg := Config{Workers: c.workers}
		if got := cfg.effectiveWorkers(c.n); got != c.want {
			t.Errorf("effectiveWorkers(workers=%d, n=%d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
	// Auto on a large input uses more than one worker (machine-dependent
	// exact count).
	cfg := Config{}
	if got := cfg.effectiveWorkers(1 << 20); got < 2 {
		t.Skipf("single-core machine: auto workers = %d", got)
	}
}

// TestIterationsReuseCentroidScratch: the centroid update's n-float weight
// rows are allocated once per Cluster call, not once per iteration, on the
// sequential and the parallel path. A cold clustering runs up to MaxIters
// iterations, so a row per iteration would dominate the bytes the engine
// allocates.
func TestIterationsReuseCentroidScratch(t *testing.T) {
	pts := clusterPoints(4000, 5)
	norm := geo.NormalizerFor(pts)
	run := func(workers, iters int) (bytes uint64, done int) {
		cfg := DefaultConfig(5)
		cfg.Workers = workers
		cfg.MaxIters = iters
		cfg.Tol = math.SmallestNonzeroFloat64 // run every iteration allowed
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Cluster(pts, norm, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, res.Iterations
	}
	for _, workers := range []int{1, 2} {
		b1, i1 := run(workers, 1)
		b2, i2 := run(workers, 20)
		if i2 < i1+10 {
			t.Fatalf("workers=%d: only %d iterations ran", workers, i2)
		}
		perIter := (b2 - b1) / uint64(i2-i1)
		if row := uint64(len(pts)) * 8; perIter >= row/4 {
			t.Errorf("workers=%d: %d bytes allocated per extra iteration, want well under one %d-byte row",
				workers, perIter, row)
		}
	}
}
