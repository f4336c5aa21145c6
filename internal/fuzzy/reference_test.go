package fuzzy

import (
	"math"
	"testing"

	"grouptravel/internal/dataset"
	"grouptravel/internal/geo"
	"grouptravel/internal/rng"
)

// referenceCluster is Cluster with the arithmetic it replaced, run
// sequentially: seeding measures every point against every chosen
// centroid with geo.Equirectangular, each membership row is the textbook
// w_ij = 1 / Σ_l (d_ij/d_il)^(2/(m−1)) over per-pair Normalizer.Distance,
// O(k²) per row, and centroid moves are measured with
// geo.Equirectangular. Cluster must stay within the tolerances of
// TestClusterMatchesReference of it.
func referenceCluster(points []geo.Point, norm geo.Normalizer, cfg Config) *Result {
	n := len(points)
	centroids := referenceSeed(points, cfg)
	weights := make([][]float64, n)
	for i := range weights {
		weights[i] = make([]float64, cfg.K)
	}
	power := 2 / (cfg.M - 1)
	res := &Result{Centroids: centroids, Weights: weights}
	for it := 0; it < cfg.MaxIters; it++ {
		res.Iterations = it + 1
		referenceMemberships(points, centroids, weights, norm, power)
		if referenceCentroids(points, centroids, weights, cfg.M) < cfg.Tol {
			break
		}
	}
	referenceMemberships(points, centroids, weights, norm, power)
	return res
}

// referenceCentroids moves each centroid to the w^m-weighted mean of the
// points and returns the largest move in km.
func referenceCentroids(points, centroids []geo.Point, weights [][]float64, m float64) float64 {
	w := make([]float64, len(points))
	maxMove := 0.0
	for j := range centroids {
		total := 0.0
		for i := range points {
			if m == 2 {
				w[i] = weights[i][j] * weights[i][j]
			} else {
				w[i] = math.Pow(weights[i][j], m)
			}
			total += w[i]
		}
		if total == 0 {
			continue
		}
		next := geo.Centroid(points, w)
		maxMove = max(maxMove, geo.Equirectangular(centroids[j], next))
		centroids[j] = next
	}
	return maxMove
}

func referenceSeed(points []geo.Point, cfg Config) []geo.Point {
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

func referenceMemberships(points, centroids []geo.Point, weights [][]float64, norm geo.Normalizer, power float64) {
	d := make([]float64, len(centroids))
	for i, p := range points {
		for j, c := range centroids {
			d[j] = norm.Distance(p, c)
		}
		referenceRow(weights[i], d, power)
	}
}

// referenceRow is the textbook row w_j = 1 / Σ_l (d_j/d_l)^power, with a
// crisp split among zero distances.
func referenceRow(row, d []float64, power float64) {
	zeros := 0
	for _, v := range d {
		if v == 0 {
			zeros++
		}
	}
	if zeros > 0 {
		for j := range row {
			row[j] = 0
			if d[j] == 0 {
				row[j] = 1 / float64(zeros)
			}
		}
		return
	}
	for j := range row {
		sum := 0.0
		for l := range d {
			if power == 2 {
				r := d[j] / d[l]
				sum += r * r
			} else {
				sum += math.Pow(d[j]/d[l], power)
			}
		}
		row[j] = 1 / sum
	}
}

// referenceEq1 is Eq1Value over per-pair Normalizer.Distance.
func referenceEq1(points []geo.Point, res *Result, norm geo.Normalizer, f float64) float64 {
	total := 0.0
	for i, p := range points {
		for j, c := range res.Centroids {
			total += math.Pow(res.Weights[i][j], f) * (1 - norm.Distance(p, c))
		}
	}
	return total
}

// planSubsets are the plan workload's eight category subsets
// (acco, trans, rest, attr); with k 2–14 they make 104 clusterings a city.
var planSubsets = [][4]int{
	{1, 1, 1, 3}, {1, 0, 1, 3}, {0, 1, 1, 3}, {1, 1, 0, 3},
	{0, 0, 1, 3}, {1, 0, 0, 3}, {0, 0, 2, 0}, {1, 1, 2, 0},
}

// subsetPoints returns the coordinates of city's POIs in the categories
// the subset asks for, as the engine clusters them.
func subsetPoints(city *dataset.City, subset [4]int) []geo.Point {
	var pts []geo.Point
	for _, p := range city.POIs.All() {
		if subset[p.Cat] > 0 {
			pts = append(pts, p.Coord)
		}
	}
	return pts
}

// TestClusterMatchesReference is the cross-version numeric contract of
// Cluster. Over the plan mix on two DefaultSpec cities, the site kernel
// and O(k) rows give centroids within 1e-6 km of the reference, Eq1Value
// within 1e-9 relative of the reference's Eq. 1 term, and the same number
// of iterations. m = 2 (the engine's fuzzifier) covers all 104
// clusterings a city; m = 1.7 covers the eight subsets at k 2–5, because
// the reference pays one math.Pow per point and centroid pair, k² a row.
// Bit identity is not required across versions; it is within one
// (TestParallelBitIdentical).
func TestClusterMatchesReference(t *testing.T) {
	const (
		centroidTolKm = 1e-6
		eq1RelTol     = 1e-9
		f             = 0.5 // core.DefaultParams(k).F
	)
	for ci, center := range []string{"Paris", "Rome"} {
		t.Run(center, func(t *testing.T) {
			t.Parallel()
			city, err := dataset.Generate(dataset.DefaultSpec("Ref"+center, dataset.BuiltinCenters[center], int64(21+ci)))
			if err != nil {
				t.Fatal(err)
			}
			norm := city.POIs.Normalizer()
			for _, sweep := range []struct {
				m    float64
				maxK int
			}{{2, 14}, {1.7, 5}} {
				worstKm, worstEq1 := 0.0, 0.0
				for _, subset := range planSubsets {
					pts := subsetPoints(city, subset)
					for k := 2; k <= sweep.maxK; k++ {
						cfg := DefaultConfig(k)
						cfg.M = sweep.m
						cfg.Workers = 1
						got, err := Cluster(pts, norm, cfg)
						if err != nil {
							t.Fatal(err)
						}
						want := referenceCluster(pts, norm, cfg)
						if got.Iterations != want.Iterations {
							t.Fatalf("m=%v %v k=%d: %d iterations, reference %d",
								sweep.m, subset, k, got.Iterations, want.Iterations)
						}
						for j := range want.Centroids {
							d := geo.Equirectangular(got.Centroids[j], want.Centroids[j])
							if d > centroidTolKm {
								t.Fatalf("m=%v %v k=%d: centroid %d is %.3g km from the reference",
									sweep.m, subset, k, j, d)
							}
							worstKm = max(worstKm, d)
						}
						g, w := Eq1Value(pts, got, norm, f), referenceEq1(pts, want, norm, f)
						rel := math.Abs(g-w) / math.Abs(w)
						if rel > eq1RelTol {
							t.Fatalf("m=%v %v k=%d: Eq1Value %v, reference %v (relative %.3g)",
								sweep.m, subset, k, g, w, rel)
						}
						worstEq1 = max(worstEq1, rel)
					}
				}
				t.Logf("m=%v: worst centroid offset %.3g km, worst Eq. 1 relative error %.3g", sweep.m, worstKm, worstEq1)
			}
		})
	}
}

// TestMembershipRowEdges pins the row update at its numeric edges: every
// row is finite, non-negative, sums to 1 within 1e-12 and matches want.
func TestMembershipRowEdges(t *testing.T) {
	// Distances whose squares are subnormal: the unscaled d⁻² / Σ d⁻²
	// form overflows to Inf/Inf = NaN on them.
	const s = 6.7e-158
	if s*s >= 0x1p-1022 {
		t.Fatalf("%v squared is not subnormal", s)
	}
	cases := []struct {
		name  string
		d     []float64
		m     float64
		want  []float64
		exact bool // the row must equal want exactly
	}{
		{name: "coincident with one", d: []float64{0.3, 0, 0.2}, m: 2, want: []float64{0, 1, 0}, exact: true},
		{name: "coincident with two", d: []float64{0, 0.4, 0}, m: 2, want: []float64{0.5, 0, 0.5}, exact: true},
		{name: "coincident with two, m=1.7", d: []float64{0, 0.4, 0}, m: 1.7, want: []float64{0.5, 0, 0.5}, exact: true},
		{name: "subnormal squares", d: []float64{s, 2 * s, 1}, m: 2, want: []float64{0.8, 0.2, 0}},
		{name: "all clamped to 1", d: []float64{1, 1, 1, 1}, m: 2, want: []float64{0.25, 0.25, 0.25, 0.25}, exact: true},
		{name: "all clamped to 1, m=1.7", d: []float64{1, 1, 1}, m: 1.7, want: []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}},
		{name: "k=1", d: []float64{0.7}, m: 2, want: []float64{1}, exact: true},
		{name: "k=1 coincident", d: []float64{0}, m: 1.7, want: []float64{1}, exact: true},
	}
	for _, c := range cases {
		row := make([]float64, len(c.d))
		membershipRow(row, c.d, 2/(c.m-1))
		checkRow(t, c.name, row)
		for j, w := range row {
			if c.exact && w != c.want[j] || math.Abs(w-c.want[j]) > 1e-12 {
				t.Fatalf("%s: row %v, want %v", c.name, row, c.want)
			}
		}
	}

	// The same case from coordinates: a point at (0, 0), centroids at
	// latitudes 6e-159° and 1.2e-158° and one clamped far away, under a
	// 10 km normalizer. The kernel's own squares are subnormal here, so
	// the distances carry few significant digits; the row must still be
	// the reference row on them.
	norm := geo.NewNormalizer(10)
	origin := geo.NewSite(geo.Point{})
	d := make([]float64, 3)
	for j, lat := range []float64{6e-159, 1.2e-158, 1} {
		d[j] = norm.SiteDistance(origin, geo.NewSite(geo.Point{Lat: lat}))
	}
	row, want := make([]float64, 3), make([]float64, 3)
	membershipRow(row, d, 2)
	referenceRow(want, d, 2)
	checkRow(t, "subnormal from coordinates", row)
	for j := range row {
		if math.Abs(row[j]-want[j]) > 1e-12 || math.Abs(row[j]-[]float64{0.8, 0.2, 0}[j]) > 1e-3 {
			t.Fatalf("subnormal from coordinates: row %v, reference %v", row, want)
		}
	}
}

// checkRow fails the test unless row is a finite point of the simplex.
func checkRow(t *testing.T, name string, row []float64) {
	t.Helper()
	sum := 0.0
	for _, w := range row {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			t.Fatalf("%s: row %v has a non-finite or negative weight", name, row)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("%s: row %v sums to %v", name, row, sum)
	}
}
