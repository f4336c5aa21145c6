// Package fuzzy implements the fuzzy clustering at the heart of KFC [13]
// and GroupTravel's Eq. 1: positioning k centroids that cover a city while
// letting every POI participate in several clusters (a hotel or the Louvre
// can appear in multiple CIs — the reason the paper picks *fuzzy* over hard
// clustering, §3.2).
//
// # A note on the paper's formulation
//
// Eq. 1 writes the clustering term as a maximization of
// Σ_j Σ_i w_ij^f (1 − d(i,μ_j)) with Σ_j w_ij = 1 and "f ≤ 1". Taken
// literally this program is degenerate: for f < 1, Σ_j w_ij^f over the
// simplex is maximized by the uniform membership row, which earns a
// k^(1−f) multiplier regardless of where the centroids sit — so the
// optimum puts all k centroids on the same global median point
// (empirically: alternating optimization collapses within one iteration).
// The paper cites Bezdek's fuzzy c-means [20] and builds on KFC, and FCM
// is what those actually run, so this package implements the classic FCM
// program
//
//	minimize  Σ_j Σ_i w_ij^m d(i,μ_j)²,   Σ_j w_ij = 1,   m > 1
//
// with the standard closed-form alternating updates
//
//	w_ij = 1 / Σ_l (d_ij / d_il)^(2/(m−1)),   μ_j = Σ_i w_ij^m x_i / Σ_i w_ij^m .
//
// The Eq. 1 quantity Σ w^f (1−d) is still provided (Eq1Value) for
// reporting the objective the paper states.
//
// # Concurrency
//
// Cluster is a pure function: it never mutates its inputs and shares no
// state between calls, so any number of clusterings may run concurrently.
// Within one call the alternating updates are parallelized over a worker
// pool (Config.Workers) with results bit-identical to the sequential path
// for a fixed seed — see updateMemberships and updateCentroids for why.
package fuzzy

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"grouptravel/internal/geo"
	"grouptravel/internal/rng"
)

// Config controls a clustering run.
type Config struct {
	K        int     // number of clusters (CIs per travel package)
	M        float64 // FCM fuzzifier, > 1 (2 is the classic choice)
	MaxIters int     // cap on alternating updates
	Tol      float64 // centroid-movement convergence threshold in km
	Seed     int64   // seeding of the k-means++-style initialization

	// Workers is the number of goroutines the alternating updates may use:
	// 0 picks GOMAXPROCS, 1 forces the sequential path. Any value produces
	// bit-identical results — the membership update is partitioned by
	// Weights row and the centroid update by cluster, so every float is
	// accumulated in exactly the order the sequential loops use. Small
	// inputs run sequentially regardless (goroutine overhead would dominate).
	Workers int
}

// DefaultConfig returns the configuration used throughout the
// reproduction: k clusters with the classic fuzzifier m = 2.
func DefaultConfig(k int) Config {
	return Config{K: k, M: 2, MaxIters: 60, Tol: 1e-4, Seed: 1}
}

// Result holds the fitted centroids and membership matrix.
type Result struct {
	Centroids []geo.Point
	// Weights[i][j] is w_ij — how strongly point i belongs to cluster j.
	// Each row sums to 1 (the Eq. 1 constraint).
	Weights [][]float64
	// Iterations actually performed before convergence.
	Iterations int
}

// Cluster fits k fuzzy centroids to the points. norm supplies the
// normalized distance of Eq. 1 (derive it from the same point cloud).
func Cluster(points []geo.Point, norm geo.Normalizer, cfg Config) (*Result, error) {
	n := len(points)
	switch {
	case cfg.K < 1:
		return nil, fmt.Errorf("fuzzy: k = %d", cfg.K)
	case n < cfg.K:
		return nil, fmt.Errorf("fuzzy: %d points for k = %d clusters", n, cfg.K)
	case cfg.M <= 1:
		return nil, fmt.Errorf("fuzzy: need fuzzifier m > 1, got %v", cfg.M)
	case cfg.MaxIters < 1:
		return nil, fmt.Errorf("fuzzy: MaxIters = %d", cfg.MaxIters)
	case cfg.Tol <= 0:
		return nil, fmt.Errorf("fuzzy: Tol = %v", cfg.Tol)
	}

	centroids := seedCentroids(points, cfg)
	// One flat backing array for the whole membership matrix: n+1 small
	// allocations become 2, and the rows sit contiguously in cache order.
	weights := make([][]float64, n)
	back := make([]float64, n*cfg.K)
	for i := range weights {
		weights[i] = back[i*cfg.K : (i+1)*cfg.K : (i+1)*cfg.K]
	}
	power := 2 / (cfg.M - 1)
	workers := cfg.effectiveWorkers(n)
	// The centroid update's weight rows, one per worker, allocated once
	// and overwritten by every iteration.
	scratch := make([]float64, min(workers, cfg.K)*n)

	res := &Result{Centroids: centroids, Weights: weights}
	for it := 0; it < cfg.MaxIters; it++ {
		res.Iterations = it + 1
		updateMemberships(points, centroids, weights, norm, power, workers)
		moved := updateCentroids(points, centroids, weights, cfg.M, workers, scratch)
		if moved < cfg.Tol {
			break
		}
	}
	// Final membership pass against the converged centroids.
	updateMemberships(points, centroids, weights, norm, power, workers)
	return res, nil
}

// minPointsPerWorker gates automatic parallelism: below this many points
// per goroutine the fan-out overhead dominates the arithmetic it saves.
const minPointsPerWorker = 512

// effectiveWorkers resolves Config.Workers against the input size. An
// explicit Workers > 1 is always honored (tests rely on exercising the
// parallel path on small inputs); the automatic setting (Workers == 0)
// backs off to sequential when the input is too small to amortize
// goroutines.
func (cfg Config) effectiveWorkers(n int) int {
	w := cfg.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
		if limit := n / minPointsPerWorker; w > limit {
			w = limit
		}
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// seedCentroids spreads initial centroids with a k-means++-style farthest-
// point heuristic: the first centroid is a random point, each next one is
// drawn proportionally to squared distance from the closest chosen
// centroid. Good spread at initialization is what lets the final TP cover
// the city (representativity).
func seedCentroids(points []geo.Point, cfg Config) []geo.Point {
	src := rng.New(cfg.Seed)
	n := len(points)
	centroids := make([]geo.Point, 0, cfg.K)
	centroids = append(centroids, points[src.Intn(n)])
	dist2 := make([]float64, n)
	for len(centroids) < cfg.K {
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := geo.Equirectangular(p, c); d < best {
					best = d
				}
			}
			dist2[i] = best * best
		}
		centroids = append(centroids, points[src.WeightedIndex(dist2)])
	}
	return centroids
}

// updateMemberships recomputes the FCM memberships
// w_ij = 1 / Σ_l (d_ij/d_il)^(2/(m−1)). A point coinciding with one or
// more centroids splits its membership crisply among those centroids.
//
// The update is row-independent, so with workers > 1 the rows of Weights
// are partitioned into contiguous chunks, one goroutine each. Every row is
// computed by exactly the same arithmetic in the same order as the
// sequential path, so results are bit-identical at any worker count.
func updateMemberships(points []geo.Point, centroids []geo.Point, weights [][]float64, norm geo.Normalizer, power float64, workers int) {
	n := len(points)
	if workers <= 1 {
		membershipRows(points, centroids, weights, norm, power, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			membershipRows(points, centroids, weights, norm, power, start, end)
		}(start, end)
	}
	wg.Wait()
}

// membershipRows updates Weights rows [start, end).
func membershipRows(points []geo.Point, centroids []geo.Point, weights [][]float64, norm geo.Normalizer, power float64, start, end int) {
	k := len(centroids)
	d := make([]float64, k)
	for i := start; i < end; i++ {
		p := points[i]
		row := weights[i]
		// Batched distance kernel: one deg2rad of p per row instead of one
		// per (row, centroid) pair; bit-identical to the scalar calls.
		norm.DistancesTo(d, p, centroids)
		zeros := 0
		for _, v := range d {
			if v == 0 {
				zeros++
			}
		}
		if zeros > 0 {
			// Crisp split among coincident centroids.
			u := 1 / float64(zeros)
			for j := range row {
				if d[j] == 0 {
					row[j] = u
				} else {
					row[j] = 0
				}
			}
			continue
		}
		for j := range row {
			sum := 0.0
			if power == 2 { // the classic m = 2: avoid math.Pow in the hot loop
				for l := 0; l < k; l++ {
					r := d[j] / d[l]
					sum += r * r
				}
			} else {
				for l := 0; l < k; l++ {
					sum += math.Pow(d[j]/d[l], power)
				}
			}
			row[j] = 1 / sum
		}
	}
}

// updateCentroids moves each centroid to the w^m-weighted mean of the
// points (the exact FCM update for squared distances), returning the
// largest movement in km.
//
// scratch holds min(workers, k) rows of n floats. With workers > 1 the
// clusters are striped across goroutines, each with its own row. Every
// cluster's weighted sum still runs over the points in sequential order
// (parallelism is across clusters, never within one accumulation), so
// centroids are bit-identical at any worker count; the move reduction is
// a max, which is order-independent.
func updateCentroids(points []geo.Point, centroids []geo.Point, weights [][]float64, m float64, workers int, scratch []float64) float64 {
	k := len(centroids)
	n := len(points)
	moves := make([]float64, k)
	if workers > k {
		workers = k
	}
	if workers <= 1 {
		w := scratch[:n]
		for j := 0; j < k; j++ {
			moves[j] = centroidStep(points, centroids, weights, m, w, j)
		}
	} else {
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				w := scratch[wk*n : (wk+1)*n]
				for j := wk; j < k; j += workers {
					moves[j] = centroidStep(points, centroids, weights, m, w, j)
				}
			}(wk)
		}
		wg.Wait()
	}
	maxMove := 0.0
	for _, mv := range moves {
		if mv > maxMove {
			maxMove = mv
		}
	}
	return maxMove
}

// centroidStep recomputes centroid j, returning how far it moved in km
// (0 for a dead cluster, whose centroid stays put).
func centroidStep(points []geo.Point, centroids []geo.Point, weights [][]float64, m float64, w []float64, j int) float64 {
	n := len(points)
	total := 0.0
	if m == 2 {
		for i := 0; i < n; i++ {
			x := weights[i][j]
			w[i] = x * x
			total += w[i]
		}
	} else {
		for i := 0; i < n; i++ {
			w[i] = math.Pow(weights[i][j], m)
			total += w[i]
		}
	}
	if total == 0 {
		return 0 // dead cluster: leave the centroid where it is
	}
	next := geo.Centroid(points, w)
	d := geo.Equirectangular(centroids[j], next)
	centroids[j] = next
	return d
}

// Objective evaluates the FCM program being minimized:
// J = Σ_j Σ_i w_ij^m d(i,μ_j)² over normalized distances. Lower is better.
func Objective(points []geo.Point, res *Result, norm geo.Normalizer, m float64) float64 {
	total := 0.0
	for i, p := range points {
		for j, c := range res.Centroids {
			d := norm.Distance(p, c)
			total += math.Pow(res.Weights[i][j], m) * d * d
		}
	}
	return total
}

// Eq1Value evaluates the clustering term exactly as the paper's Eq. 1
// states it — Σ_j Σ_i w_ij^f (1 − d(i,μ_j)) — at the fitted solution, for
// reporting. Higher is better.
func Eq1Value(points []geo.Point, res *Result, norm geo.Normalizer, f float64) float64 {
	total := 0.0
	for i, p := range points {
		for j, c := range res.Centroids {
			s := 1 - norm.Distance(p, c)
			total += math.Pow(res.Weights[i][j], f) * s
		}
	}
	return total
}

// Spread returns the summed pairwise distance between centroids in km —
// the representativity measure of Eq. 2 applied to a clustering result.
func Spread(res *Result) float64 {
	sum := 0.0
	for i := 0; i < len(res.Centroids); i++ {
		for j := i + 1; j < len(res.Centroids); j++ {
			sum += geo.Equirectangular(res.Centroids[i], res.Centroids[j])
		}
	}
	return sum
}
