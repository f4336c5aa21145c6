// Package core is the GroupTravel engine (§3 of the paper): it composes
// the fuzzy-clustering substrate, valid-CI construction and group profiles
// into personalized travel packages, optimizing Eq. 1:
//
//	argmax_{M,W}  α Σ_j Σ_i w_ij^f (1 − d(i,μ_j))
//	            + Σ_j max_{CI_j∈V} ( β Σ_{i∈CI_j} (1 − d(i,μ_j))
//	                               + γ Σ_{i∈CI_j} cos(®i, ®g) )
//	s.t. Σ_j w_ij = 1
//
// The first line positions k centroids that cover the city (representa-
// tivity); the inner max builds a valid, cohesive, personalized CI around
// each centroid. Following KFC [13], the engine alternates the two:
// cluster, build CIs, re-anchor centroids on their CIs, rebuild.
package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"grouptravel/internal/ci"
	"grouptravel/internal/dataset"
	"grouptravel/internal/fuzzy"
	"grouptravel/internal/geo"
	"grouptravel/internal/metrics"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/query"
	"grouptravel/internal/rng"
)

// Params are the tunables of Eq. 1 plus algorithm controls.
type Params struct {
	K     int     // number of CIs in the package (5 in all paper experiments)
	Alpha float64 // weight of the clustering (representativity) term
	Beta  float64 // weight of centroid proximity in CI construction (cohesiveness)
	Gamma float64 // weight of personalization in CI construction
	F     float64 // the paper's weighting exponent f < 1, used to report the Eq. 1 value
	M     float64 // FCM fuzzifier m > 1 driving the actual clustering (see package fuzzy)

	ClusterIters int   // fuzzy clustering iteration cap
	RefineRounds int   // cluster↔CI alternations after the initial pass
	Seed         int64 // deterministic clustering initialization

	// DistinctItems forbids any POI from appearing in more than one CI.
	// The paper deliberately allows repetition (§3.2: the hotel or the
	// Louvre may belong to several CIs — the reason fuzzy clustering was
	// chosen), so this is off by default; it exists for travelers who want
	// k genuinely different days and for the repetition ablation bench.
	DistinctItems bool
}

// DefaultParams mirrors the paper's synthetic setup with neutral weights:
// γ = 1 ("we always set γ = 1.0 for personalization"), α = β = 1.
func DefaultParams(k int) Params {
	return Params{
		K:            k,
		Alpha:        1,
		Beta:         1,
		Gamma:        1,
		F:            0.5,
		M:            2,
		ClusterIters: 60,
		RefineRounds: 2,
		Seed:         1,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("core: K = %d", p.K)
	}
	// Every range check below is a comparison that NaN fails, so NaN would
	// pass them all; and a NaN in the cluster-cache key never equals
	// itself, so the entry it fills could never be found again.
	for _, v := range [...]float64{p.Alpha, p.Beta, p.Gamma, p.F, p.M} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite weight or exponent (α=%v β=%v γ=%v F=%v M=%v)",
				p.Alpha, p.Beta, p.Gamma, p.F, p.M)
		}
	}
	if p.Alpha < 0 || p.Beta < 0 || p.Gamma < 0 {
		return fmt.Errorf("core: negative objective weight (α=%v β=%v γ=%v)", p.Alpha, p.Beta, p.Gamma)
	}
	if p.F <= 0 || p.F >= 1 {
		return fmt.Errorf("core: need 0 < F < 1, got %v", p.F)
	}
	if p.M <= 1 {
		return fmt.Errorf("core: need fuzzifier M > 1, got %v", p.M)
	}
	if p.ClusterIters < 1 {
		return fmt.Errorf("core: ClusterIters = %d", p.ClusterIters)
	}
	if p.RefineRounds < 0 {
		return fmt.Errorf("core: RefineRounds = %d", p.RefineRounds)
	}
	return nil
}

// TravelPackage is the output of the engine: k valid Composite Items with
// the query and group profile they were built for, and the achieved Eq. 1
// objective value.
type TravelPackage struct {
	CIs    []*ci.CI
	Query  query.Query
	Group  *profile.Profile // nil for non-personalized packages
	Params Params
	ObjVal float64 // Eq. 1 value at the returned solution
	City   string
}

// Measure returns the package's raw optimization dimensions (§4.2).
func (tp *TravelPackage) Measure() metrics.Dimensions {
	return metrics.Measure(tp.CIs, tp.Group)
}

// Engine builds travel packages for one city.
//
// The fuzzy clustering step depends only on the city, the query's
// category mask and the clustering parameters — not on the group profile —
// so its results (the centroids and Eq. 1's clustering term) are memoized:
// experiments that build thousands of packages over one city (Table 2
// builds 2400) pay for each distinct clustering once. The memo is bounded (DefaultCacheCap entries, LRU-evicted; see
// SetCacheCap) so a long-lived server facing adversarial parameter
// diversity cannot grow it without limit.
//
// The Engine is safe for concurrent use: any number of goroutines may call
// Build (and the other Build* methods) on one Engine. The cluster memo is
// sharded and singleflight-guarded — concurrent Builds needing the same
// clustering block on a single computation and share its result, while
// Builds needing different clusterings proceed independently. Build is a
// deterministic function of its inputs, so a concurrent Build returns the
// same package the sequential path would.
type Engine struct {
	city   *dataset.City
	points []geo.Point // coordinates of all POIs, aligned with city.POIs.All()

	cache *clusterCache
}

// NewEngine prepares an engine over a city dataset.
func NewEngine(city *dataset.City) (*Engine, error) {
	if city == nil || city.POIs == nil {
		return nil, fmt.Errorf("core: nil city")
	}
	if city.POIs.Len() == 0 {
		return nil, fmt.Errorf("core: city %q has no POIs", city.Name)
	}
	e := &Engine{city: city, cache: newClusterCache(DefaultCacheCap)}
	for _, p := range city.POIs.All() {
		e.points = append(e.points, p.Coord)
	}
	return e, nil
}

// City returns the engine's city.
func (e *Engine) City() *dataset.City { return e.city }

// Build generates a personalized travel package for the group profile g
// (pass nil for a non-personalized package — equivalent to γ = 0 in the
// user study's NPTP baseline).
func (e *Engine) Build(g *profile.Profile, q query.Query, params Params) (*TravelPackage, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := q.Feasible(e.city.POIs); err != nil {
		return nil, err
	}

	// Cluster the POIs of the requested categories: the centroids must
	// cover the part of the city the query can actually use. The memo is
	// singleflight-guarded, so concurrent Builds wanting the same
	// clustering compute it exactly once and share the result.
	norm := e.city.POIs.Normalizer()
	mask, err := catsMask(q)
	if err != nil {
		return nil, err
	}
	key := clusterKey{k: params.K, m: params.M, f: params.F, iters: params.ClusterIters, seed: params.Seed, catsMask: mask}
	cl, err := e.cache.getOrCompute(key, func() (*clustering, error) {
		pts := e.relevantPoints(q)
		if len(pts) < params.K {
			return nil, fmt.Errorf("core: %d relevant POIs for K = %d", len(pts), params.K)
		}
		fc := fuzzy.Config{
			K: params.K, M: params.M,
			MaxIters: params.ClusterIters, Tol: 1e-4, Seed: params.Seed,
		}
		res, err := fuzzy.Cluster(pts, norm, fc)
		if err != nil {
			return nil, err
		}
		return &clustering{centroids: res.Centroids, eq1: fuzzy.Eq1Value(pts, res, norm, params.F)}, nil
	})
	if err != nil {
		return nil, err
	}

	builder := &ci.Builder{
		Coll:  e.city.POIs,
		Query: q,
		Group: g,
		Beta:  params.Beta,
		Gamma: params.Gamma,
		Norm:  norm,
	}
	cis, err := e.buildAll(builder, cl.centroids, params.DistinctItems)
	if err != nil {
		return nil, err
	}

	// KFC-style alternation: re-anchor each centroid on its CI's items and
	// rebuild. This is what couples personalization back into geography —
	// strongly personalized picks drag centroids together, reproducing the
	// paper's representativity/cohesiveness-vs-personalization tension.
	for round := 0; round < params.RefineRounds; round++ {
		centroids := make([]geo.Point, len(cis))
		for j, c := range cis {
			centroids[j] = c.Center()
		}
		next, err := e.buildAll(builder, centroids, params.DistinctItems)
		if err != nil {
			return nil, err
		}
		cis = next
	}

	// Diversity guard: refinement can drag two centroids into the same
	// neighborhood until their CIs coincide item-for-item. Individual POIs
	// may repeat across CIs (§3.2's Louvre example) but a fully duplicated
	// day is useless; rebuild duplicates around their original fuzzy
	// centroid, excluding the twin's items. If the city cannot support a
	// distinct CI there, the duplicate is kept rather than failing.
	seen := make(map[string]int, len(cis))
	for j, c := range cis {
		key := itemKey(c)
		prev, dup := seen[key]
		if !dup {
			seen[key] = j
			continue
		}
		exclude := make(map[int]bool, len(cis[prev].Items))
		for _, it := range cis[prev].Items {
			exclude[it.ID] = true
		}
		if rebuilt, err := builder.Build(cl.centroids[j], exclude); err == nil {
			cis[j] = rebuilt
		}
	}

	tp := &TravelPackage{
		CIs:    cis,
		Query:  q,
		Group:  g,
		Params: params,
		City:   e.city.Name,
	}
	tp.ObjVal = objective(tp, cl, builder)
	return tp, nil
}

// itemKey canonicalizes a CI's item set for duplicate detection. The key is
// built with strconv.AppendInt on a stack buffer: the fmt.Fprintf loop it
// replaces showed up at ~13% of the build path's allocations.
func itemKey(c *ci.CI) string {
	ids := make([]int, len(c.Items))
	for i, it := range c.Items {
		ids[i] = it.ID
	}
	sort.Ints(ids)
	buf := make([]byte, 0, 64)
	for _, id := range ids {
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

// parallelCIThreshold is the package size at which buildAll fans out one
// goroutine per centroid. At the paper's K = 5 a single CI build is ~20µs:
// fanning out mostly adds scheduling overhead, and — more important for a
// loaded server — it lets ONE request monopolize cores that concurrent
// requests (the engine's primary scaling axis) would use productively.
// Large packages are where per-centroid work dominates and intra-build
// parallelism pays; they fan out.
const parallelCIThreshold = 8

// buildAll constructs one CI per centroid.
//
// Without DistinctItems the CIs are independent functions of (builder,
// centroid) — embarrassingly parallel — so large packages build each
// centroid's CI on its own goroutine (see parallelCIThreshold); results
// land at their centroid's index, making the output identical to the
// sequential order. With distinct set, POIs used by earlier CIs are
// excluded from later ones: CI j's candidate pool depends on what CIs
// 0..j−1 took, an inherently ordered greedy allocation, so that path stays
// sequential (parallelizing it would change which POIs each CI gets).
func (e *Engine) buildAll(builder *ci.Builder, centroids []geo.Point, distinct bool) ([]*ci.CI, error) {
	out := make([]*ci.CI, len(centroids))
	if distinct {
		used := make(map[int]bool)
		for j, mu := range centroids {
			c, err := builder.Build(mu, used)
			if err != nil {
				return nil, fmt.Errorf("core: CI %d: %w", j, err)
			}
			out[j] = c
			for _, it := range c.Items {
				used[it.ID] = true
			}
		}
		return out, nil
	}
	if len(centroids) < parallelCIThreshold {
		for j, mu := range centroids {
			c, err := builder.Build(mu, nil)
			if err != nil {
				return nil, fmt.Errorf("core: CI %d: %w", j, err)
			}
			out[j] = c
		}
		return out, nil
	}
	errs := make([]error, len(centroids))
	var wg sync.WaitGroup
	for j, mu := range centroids {
		wg.Add(1)
		go func(j int, mu geo.Point) {
			defer wg.Done()
			c, err := builder.Build(mu, nil)
			if err != nil {
				errs[j] = fmt.Errorf("core: CI %d: %w", j, err)
				return
			}
			out[j] = c
		}(j, mu)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// relevantPoints returns the coordinates of POIs whose category the query
// requests.
func (e *Engine) relevantPoints(q query.Query) []geo.Point {
	n := 0
	for _, cat := range poi.Categories {
		if q.Counts[cat] > 0 {
			n += len(e.city.POIs.ByCategory(cat))
		}
	}
	pts := make([]geo.Point, 0, n)
	for _, p := range e.city.POIs.All() {
		if q.Counts[p.Cat] > 0 {
			pts = append(pts, p.Coord)
		}
	}
	return pts
}

// objective evaluates Eq. 1 at the returned solution: α times the
// memoized clustering term plus the per-CI construction terms.
func objective(tp *TravelPackage, cl *clustering, builder *ci.Builder) float64 {
	total := tp.Params.Alpha * cl.eq1
	for _, c := range tp.CIs {
		total += builder.ObjectiveValue(c)
	}
	return total
}

// BuildRandom generates the user study's random baseline: k CIs whose
// items are drawn uniformly per category with no optimization at all
// (§4.4.3's "random TP"). The CIs satisfy the query's counts so the
// package is comparable; it is simply unoptimized.
func (e *Engine) BuildRandom(q query.Query, k int, seed int64) (*TravelPackage, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := q.Feasible(e.city.POIs); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k = %d", k)
	}
	src := rng.New(seed)
	cis := make([]*ci.CI, k)
	for j := 0; j < k; j++ {
		var items []*poi.POI
		for _, cat := range poi.Categories {
			pool := e.city.POIs.ByCategory(cat)
			perm := src.Perm(len(pool))
			for i := 0; i < q.Counts[cat]; i++ {
				items = append(items, pool[perm[i]])
			}
		}
		c := &ci.CI{Items: items}
		c.Centroid = c.Center()
		cis[j] = c
	}
	return &TravelPackage{CIs: cis, Query: q, Params: Params{K: k}, City: e.city.Name}, nil
}

// BuildHoneypot generates the deliberately invalid random package the user
// study injects to filter careless participants ("a random TP which
// included invalid CIs", §4.4.3): CIs violate the query's category counts.
func (e *Engine) BuildHoneypot(q query.Query, k int, seed int64) (*TravelPackage, error) {
	tp, err := e.BuildRandom(q, k, seed)
	if err != nil {
		return nil, err
	}
	// Invalidate every CI by dropping its first item (count mismatch).
	for _, c := range tp.CIs {
		if len(c.Items) > 1 {
			c.Items = c.Items[1:]
		}
	}
	return tp, nil
}

// Valid reports whether every CI in the package satisfies the query.
func (tp *TravelPackage) Valid() bool {
	for _, c := range tp.CIs {
		if err := tp.Query.CheckCI(c.Items); err != nil {
			return false
		}
	}
	return true
}
