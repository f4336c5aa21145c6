package core

import (
	"testing"

	"grouptravel/internal/ci"
	"grouptravel/internal/fuzzy"
	"grouptravel/internal/query"
)

// TestClusterCacheReuse verifies the memoization contract: identical
// clustering parameters reuse the fitted centroids (same package for the
// same inputs), while different seeds or category masks cluster afresh.
func TestClusterCacheReuse(t *testing.T) {
	e := engine(t)
	gp := randomGroupProfile(t, e, 31)
	params := DefaultParams(4)

	a, err := e.Build(gp, query.Default(), params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Build(gp, query.Default(), params)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.CIs {
		if a.CIs[j].Centroid != b.CIs[j].Centroid {
			t.Fatal("cache miss: same parameters produced different centroids")
		}
	}

	// A different seed is a distinct cache entry; it must still build a
	// valid package (FCM may or may not converge to the same optimum).
	params2 := params
	params2.Seed = params.Seed + 7
	c, err := e.Build(gp, query.Default(), params2)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Valid() {
		t.Fatal("differently seeded package invalid")
	}

	// A different category mask clusters over different points.
	restOnlyQ := query.MustNew(0, 0, 3, 0, query.Default().Budget)
	d, err := e.Build(gp, restOnlyQ, params)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Valid() {
		t.Fatal("rest-only package invalid")
	}
	for _, ci := range d.CIs {
		for _, it := range ci.Items {
			if it.Cat.String() != "rest" {
				t.Fatalf("rest-only query returned %v", it.Cat)
			}
		}
	}
}

// TestCacheEvictionLRU pins the bounded-cache contract: beyond the cap the
// least-recently-used clustering is evicted (hits refresh recency), evicted
// keys recompute on next use, and results are unaffected throughout.
func TestCacheEvictionLRU(t *testing.T) {
	e := engine(t)
	gp := randomGroupProfile(t, e, 33)
	e.SetCacheCap(2)
	build := func(seed int64) {
		t.Helper()
		params := DefaultParams(3)
		params.Seed = seed
		if _, err := e.Build(gp, query.Default(), params); err != nil {
			t.Fatal(err)
		}
	}
	build(1) // miss
	build(2) // miss
	build(1) // hit: seed 1 is now the most recently used
	build(3) // miss: evicts seed 2, the LRU entry
	if got := e.CacheSize(); got != 2 {
		t.Fatalf("cache size = %d, want 2", got)
	}
	if got := e.CacheEvictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	misses := e.CacheMisses()
	build(1) // still memoized: no new miss
	if got := e.CacheMisses(); got != misses {
		t.Fatalf("seed 1 was evicted: misses %d -> %d", misses, got)
	}
	build(2) // evicted above: must recompute
	if got := e.CacheMisses(); got != misses+1 {
		t.Fatalf("seed 2 recompute: misses %d -> %d, want +1", misses, got)
	}
}

// TestSetCacheCapShrinks verifies that lowering the cap sheds entries
// immediately and that cap <= 0 removes the bound.
func TestSetCacheCapShrinks(t *testing.T) {
	e := engine(t)
	gp := randomGroupProfile(t, e, 34)
	e.SetCacheCap(0) // unbounded
	params := DefaultParams(3)
	for s := int64(1); s <= 4; s++ {
		params.Seed = s
		if _, err := e.Build(gp, query.Default(), params); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.CacheSize(); got != 4 {
		t.Fatalf("unbounded cache size = %d, want 4", got)
	}
	if got := e.CacheEvictions(); got != 0 {
		t.Fatalf("unbounded cache evicted %d entries", got)
	}
	e.SetCacheCap(1)
	if got := e.CacheSize(); got != 1 {
		t.Fatalf("after SetCacheCap(1): size = %d", got)
	}
	if got := e.CacheEvictions(); got != 3 {
		t.Fatalf("after SetCacheCap(1): evictions = %d, want 3", got)
	}
	st := e.CacheStats()
	if st.Size != 1 || st.Cap != 1 || st.Evictions != 3 || st.Misses != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPartialCategoryQuery checks queries that skip categories entirely.
func TestPartialCategoryQuery(t *testing.T) {
	e := engine(t)
	gp := randomGroupProfile(t, e, 32)
	q := query.MustNew(0, 0, 1, 2, query.Default().Budget)
	tp, err := e.Build(gp, q, DefaultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	if !tp.Valid() {
		t.Fatal("partial-category package invalid")
	}
	if d := tp.Measure(); d.Personalization <= 0 {
		t.Fatalf("dimensions: %+v", d)
	}
}

// TestObjValUsesMemoizedEq1Term pins ObjVal bit for bit to Eq. 1 evaluated
// from a fresh clustering: α·Eq1Value over the relevant points plus each
// CI's construction term. It checks the build that fills the memo, the
// build that hits it, and a build that differs only in F, which must not
// share the entry because the memoized term depends on F.
func TestObjValUsesMemoizedEq1Term(t *testing.T) {
	e := engine(t)
	gp := randomGroupProfile(t, e, 35)
	q := query.MustNew(1, 0, 1, 2, query.Default().Budget)
	params := DefaultParams(4)
	params.Alpha, params.Beta, params.Gamma = 0.7, 1.3, 0.9
	norm := e.city.POIs.Normalizer()
	check := func(params Params, wantMisses int64) {
		t.Helper()
		tp, err := e.Build(gp, q, params)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.CacheMisses(); got != wantMisses {
			t.Fatalf("F=%v: cache misses = %d, want %d", params.F, got, wantMisses)
		}
		pts := e.relevantPoints(q)
		res, err := fuzzy.Cluster(pts, norm, fuzzy.Config{
			K: params.K, M: params.M, MaxIters: params.ClusterIters, Tol: 1e-4, Seed: params.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		builder := &ci.Builder{Coll: e.city.POIs, Query: q, Group: gp, Beta: params.Beta, Gamma: params.Gamma, Norm: norm}
		want := params.Alpha * fuzzy.Eq1Value(pts, res, norm, params.F)
		for _, c := range tp.CIs {
			want += builder.ObjectiveValue(c)
		}
		if tp.ObjVal != want {
			t.Fatalf("F=%v: ObjVal = %v, Eq. 1 from a fresh clustering = %v", params.F, tp.ObjVal, want)
		}
	}
	check(params, 1) // miss: fills the memo
	check(params, 1) // hit
	params.F = 0.3
	check(params, 2) // same clustering parameters, different F: its own entry
}
