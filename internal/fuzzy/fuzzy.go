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
// # Cost
//
// Each membership row is evaluated in O(k), not O(k²), as
// w_ij = t_ij / Σ_l t_il with t_il = (d_min/d_il)^(2/(m−1)) (see
// membershipRow), and every distance goes through geo's site kernel:
// points are prepared once per call and centroids once per move, so no
// distance needs trigonometry. Seeding keeps each point's squared
// distance to its nearest chosen centroid, which makes it O(n·k).
//
// # Numeric contract
//
// Cluster is a pure function: it never mutates its inputs and shares no
// state between calls, so any number of clusterings may run concurrently.
// Within one call the alternating updates are parallelized over a worker
// pool (Config.Workers) with results bit-identical to the sequential path
// for a fixed seed — see updateMemberships and updateCentroids for why.
// Within one version the output is exact and deterministic. Across
// versions it is pinned by tolerance, not bit identity: reference_test.go
// keeps the textbook seeding and O(k²) membership arithmetic and requires
// centroids within 1e-6 km of it, Eq1Value within 1e-9 relative and the
// same iteration count.
package fuzzy

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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

	sites := newSites(points)
	centroids := seedCentroids(points, sites, cfg)
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
	// cents[j] is the site of centroids[j]; the centroid update keeps it
	// current.
	cents := newSites(centroids)

	res := &Result{Centroids: centroids, Weights: weights}
	for it := 0; it < cfg.MaxIters; it++ {
		res.Iterations = it + 1
		updateMemberships(sites, cents, weights, norm, power, workers)
		moved := updateCentroids(points, centroids, cents, weights, cfg.M, workers, scratch)
		if moved < cfg.Tol {
			break
		}
	}
	// Final membership pass against the converged centroids.
	updateMemberships(sites, cents, weights, norm, power, workers)
	return res, nil
}

// newSites prepares every point for the site distance kernel.
func newSites(points []geo.Point) []geo.Site {
	sites := make([]geo.Site, len(points))
	for i, p := range points {
		sites[i] = geo.NewSite(p)
	}
	return sites
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
// the city (representativity). Each point's squared distance to its
// closest chosen centroid is kept across draws and compared with the
// newest centroid only, so seeding costs O(n·k). Squaring is monotone, so
// the minimum of the squares is the square of the minimum.
func seedCentroids(points []geo.Point, sites []geo.Site, cfg Config) []geo.Point {
	src := rng.New(cfg.Seed)
	centroids := make([]geo.Point, 0, cfg.K)
	newest := src.Intn(len(points))
	centroids = append(centroids, points[newest])
	dist2 := make([]float64, len(points))
	for i := range dist2 {
		dist2[i] = math.Inf(1)
	}
	for len(centroids) < cfg.K {
		c := sites[newest]
		for i, s := range sites {
			d := s.Distance(c)
			dist2[i] = min(dist2[i], d*d)
		}
		newest = src.WeightedIndex(dist2)
		centroids = append(centroids, points[newest])
	}
	return centroids
}

// updateMemberships recomputes the FCM memberships of every point against
// the centroids' sites (see membershipRow).
//
// The update is row-independent, so with workers > 1 the rows of Weights
// are partitioned into contiguous chunks, one goroutine each. Every row is
// computed by exactly the same arithmetic in the same order as the
// sequential path, so results are bit-identical at any worker count.
func updateMemberships(sites, cents []geo.Site, weights [][]float64, norm geo.Normalizer, power float64, workers int) {
	n := len(sites)
	if workers <= 1 {
		membershipRows(sites, cents, weights, norm, power, 0, n)
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
			membershipRows(sites, cents, weights, norm, power, start, end)
		}(start, end)
	}
	wg.Wait()
}

// membershipRows updates Weights rows [start, end).
func membershipRows(sites, cents []geo.Site, weights [][]float64, norm geo.Normalizer, power float64, start, end int) {
	d := make([]float64, len(cents))
	for i := start; i < end; i++ {
		s := sites[i]
		for j, c := range cents {
			d[j] = norm.SiteDistance(s, c)
		}
		membershipRow(weights[i], d, power)
	}
}

// membershipRow sets row to the FCM memberships of a point whose distances
// to the centroids are d, with power = 2/(m−1):
//
//	w_j = t_j / Σ_l t_l,   t_l = (d_min / d_l)^power,
//
// where d_min is the row's smallest distance. In real arithmetic this is
// the textbook 1 / Σ_l (d_j/d_l)^power, at O(k) per row instead of O(k²).
// Scaling by d_min keeps every t_l in [0, 1] with t = 1 at the nearest
// centroid, so the sum lies in [1, k] and cannot overflow, even when a
// squared distance is subnormal. A point coinciding with one or more
// centroids splits its membership crisply among them.
func membershipRow(row, d []float64, power float64) {
	dmin := slices.Min(d)
	if dmin == 0 {
		zeros := 0
		for _, v := range d {
			if v == 0 {
				zeros++
			}
		}
		u := 1 / float64(zeros)
		for j, v := range d {
			if v == 0 {
				row[j] = u
			} else {
				row[j] = 0
			}
		}
		return
	}
	sum := 0.0
	for j, v := range d {
		r := dmin / v
		if power == 2 { // the classic m = 2: avoid math.Pow in the hot loop
			r *= r
		} else {
			r = math.Pow(r, power)
		}
		row[j] = r
		sum += r
	}
	for j := range row {
		row[j] /= sum
	}
}

// updateCentroids moves each centroid to the w^m-weighted mean of the
// points (the exact FCM update for squared distances), keeps cents the
// centroids' sites, and returns the largest movement in km.
//
// scratch holds min(workers, k) rows of n floats. With workers > 1 the
// clusters are striped across goroutines, each with its own row. Every
// cluster's weighted sum still runs over the points in sequential order
// (parallelism is across clusters, never within one accumulation), so
// centroids are bit-identical at any worker count; the move reduction is
// a max, which is order-independent.
func updateCentroids(points, centroids []geo.Point, cents []geo.Site, weights [][]float64, m float64, workers int, scratch []float64) float64 {
	k := len(centroids)
	n := len(points)
	moves := make([]float64, k)
	if workers > k {
		workers = k
	}
	if workers <= 1 {
		w := scratch[:n]
		for j := 0; j < k; j++ {
			moves[j] = centroidStep(points, centroids, cents, weights, m, w, j)
		}
	} else {
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				w := scratch[wk*n : (wk+1)*n]
				for j := wk; j < k; j += workers {
					moves[j] = centroidStep(points, centroids, cents, weights, m, w, j)
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

// centroidStep recomputes centroid j and its site, returning how far it
// moved in km (0 for a dead cluster, whose centroid stays put).
func centroidStep(points, centroids []geo.Point, cents []geo.Site, weights [][]float64, m float64, w []float64, j int) float64 {
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
	site := geo.NewSite(next)
	d := cents[j].Distance(site)
	centroids[j], cents[j] = next, site
	return d
}

// Objective evaluates the FCM program being minimized:
// J = Σ_j Σ_i w_ij^m d(i,μ_j)² over normalized distances. Lower is better.
func Objective(points []geo.Point, res *Result, norm geo.Normalizer, m float64) float64 {
	cents := newSites(res.Centroids)
	total := 0.0
	for i, p := range points {
		s := geo.NewSite(p)
		for j, c := range cents {
			d := norm.SiteDistance(s, c)
			total += math.Pow(res.Weights[i][j], m) * d * d
		}
	}
	return total
}

// Eq1Value evaluates the clustering term exactly as the paper's Eq. 1
// states it — Σ_j Σ_i w_ij^f (1 − d(i,μ_j)) — at the fitted solution, for
// reporting. Higher is better. Its distances are Cluster's.
func Eq1Value(points []geo.Point, res *Result, norm geo.Normalizer, f float64) float64 {
	cents := newSites(res.Centroids)
	total := 0.0
	for i, p := range points {
		s := geo.NewSite(p)
		for j, c := range cents {
			total += math.Pow(res.Weights[i][j], f) * (1 - norm.SiteDistance(s, c))
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
