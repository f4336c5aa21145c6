package core

import (
	"math"
	"testing"
	"time"

	"grouptravel/internal/consensus"
	"grouptravel/internal/dataset"
	"grouptravel/internal/metrics"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/query"
	"grouptravel/internal/rng"
	"grouptravel/internal/vec"
)

var cachedCity *dataset.City

func engine(t *testing.T) *Engine {
	t.Helper()
	if cachedCity == nil {
		c, err := dataset.Generate(dataset.TestSpec("CoreParis", 7))
		if err != nil {
			t.Fatal(err)
		}
		cachedCity = c
	}
	e, err := NewEngine(cachedCity)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomGroupProfile(t *testing.T, e *Engine, seed int64) *profile.Profile {
	t.Helper()
	src := rng.New(seed)
	members := make([]*profile.Profile, 5)
	for i := range members {
		members[i] = profile.GenerateRandomProfile(e.City().Schema, src)
	}
	g, err := profile.NewGroup(e.City().Schema, members)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := consensus.GroupProfile(g, consensus.VarianceDis)
	if err != nil {
		t.Fatal(err)
	}
	return gp
}

func TestBuildProducesKValidCIs(t *testing.T) {
	e := engine(t)
	gp := randomGroupProfile(t, e, 1)
	tp, err := e.Build(gp, query.Default(), DefaultParams(5))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(tp.CIs) != 5 {
		t.Fatalf("got %d CIs, want 5", len(tp.CIs))
	}
	if !tp.Valid() {
		t.Fatal("package contains invalid CIs")
	}
	for _, c := range tp.CIs {
		if len(c.Items) != query.Default().Size() {
			t.Fatalf("CI has %d items", len(c.Items))
		}
	}
}

func TestBuildNonPersonalized(t *testing.T) {
	e := engine(t)
	tp, err := e.Build(nil, query.Default(), DefaultParams(5))
	if err != nil {
		t.Fatalf("non-personalized Build: %v", err)
	}
	if !tp.Valid() {
		t.Fatal("non-personalized package invalid")
	}
	if p := metrics.Personalization(tp.CIs, nil); p != 0 {
		t.Fatalf("nil-group personalization = %v", p)
	}
}

func TestBuildDeterministic(t *testing.T) {
	e := engine(t)
	gp := randomGroupProfile(t, e, 2)
	tp1, err := e.Build(gp, query.Default(), DefaultParams(4))
	if err != nil {
		t.Fatal(err)
	}
	tp2, err := e.Build(gp, query.Default(), DefaultParams(4))
	if err != nil {
		t.Fatal(err)
	}
	for j := range tp1.CIs {
		if len(tp1.CIs[j].Items) != len(tp2.CIs[j].Items) {
			t.Fatal("non-deterministic CI sizes")
		}
		for i := range tp1.CIs[j].Items {
			if tp1.CIs[j].Items[i].ID != tp2.CIs[j].Items[i].ID {
				t.Fatal("non-deterministic item selection")
			}
		}
	}
}

func TestPersonalizationRaisesCosine(t *testing.T) {
	// A personalized package must match the group profile at least as well
	// as a non-personalized one — the core promise of Eq. 1's γ term.
	e := engine(t)
	gp := randomGroupProfile(t, e, 3)
	pers, err := e.Build(gp, query.Default(), DefaultParams(5))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.Build(nil, query.Default(), DefaultParams(5))
	if err != nil {
		t.Fatal(err)
	}
	pPers := metrics.Personalization(pers.CIs, gp)
	pPlain := metrics.Personalization(plain.CIs, gp)
	if pPers < pPlain {
		t.Fatalf("personalized package cosine %v below non-personalized %v", pPers, pPlain)
	}
}

func TestPersonalizationCohesivenessTension(t *testing.T) {
	// §4.3.3: "the more personalized a TP is, the less likely it is to be
	// cohesive". Crank γ and compare raw within-CI distances against γ=0.
	e := engine(t)
	gp := randomGroupProfile(t, e, 4)
	params := DefaultParams(5)
	params.Gamma = 0
	geoOnly, err := e.Build(gp, query.Default(), params)
	if err != nil {
		t.Fatal(err)
	}
	params.Gamma = 25 // personalization dominates geography
	persHeavy, err := e.Build(gp, query.Default(), params)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.RawDistanceSum(persHeavy.CIs) <= metrics.RawDistanceSum(geoOnly.CIs) {
		t.Fatalf("heavy personalization did not loosen CIs: %v vs %v",
			metrics.RawDistanceSum(persHeavy.CIs), metrics.RawDistanceSum(geoOnly.CIs))
	}
}

func TestCentroidsCoverCity(t *testing.T) {
	e := engine(t)
	tp, err := e.Build(nil, query.Default(), DefaultParams(5))
	if err != nil {
		t.Fatal(err)
	}
	// Representativity of the geographic build must comfortably exceed
	// that of a single-point collapse.
	rep := metrics.Representativity(tp.CIs)
	if rep <= 0 {
		t.Fatalf("representativity = %v", rep)
	}
	// CI centroids must lie within the city bounds.
	bounds := e.City().POIs.Bounds()
	for _, c := range tp.CIs {
		if !bounds.Contains(c.Centroid) {
			t.Fatalf("centroid %v outside city bounds", c.Centroid)
		}
	}
}

func TestBudgetedBuild(t *testing.T) {
	e := engine(t)
	gp := randomGroupProfile(t, e, 5)
	// A budget that forces repair but stays feasible.
	q := query.MustNew(1, 1, 1, 3, 8)
	tp, err := e.Build(gp, q, DefaultParams(3))
	if err != nil {
		t.Fatalf("budgeted build: %v", err)
	}
	for _, c := range tp.CIs {
		if c.Cost() > q.Budget {
			t.Fatalf("CI cost %v exceeds budget", c.Cost())
		}
	}
}

func TestBuildErrors(t *testing.T) {
	e := engine(t)
	if _, err := e.Build(nil, query.Query{}, DefaultParams(3)); err == nil {
		t.Fatal("invalid query accepted")
	}
	bad := DefaultParams(0)
	if _, err := e.Build(nil, query.Default(), bad); err == nil {
		t.Fatal("K=0 accepted")
	}
	bad = DefaultParams(3)
	bad.F = 1.5
	if _, err := e.Build(nil, query.Default(), bad); err == nil {
		t.Fatal("F=1.5 accepted")
	}
	bad = DefaultParams(3)
	bad.Alpha = -1
	if _, err := e.Build(nil, query.Default(), bad); err == nil {
		t.Fatal("negative alpha accepted")
	}
	huge := query.MustNew(1, 1, 1, 100000, math.Inf(1))
	if _, err := e.Build(nil, huge, DefaultParams(3)); err == nil {
		t.Fatal("infeasible query accepted")
	}
}

// TestValidateRejectsNonFinite covers the weights and exponents whose range
// checks NaN used to pass. A NaN M also reached the cluster-cache key,
// where it never equals itself: at cap, eviction kept picking that entry
// and never found it to delete, so the next over-cap build never returned.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Params) *float64{
		"Alpha": func(p *Params) *float64 { return &p.Alpha },
		"Beta":  func(p *Params) *float64 { return &p.Beta },
		"Gamma": func(p *Params) *float64 { return &p.Gamma },
		"F":     func(p *Params) *float64 { return &p.F },
		"M":     func(p *Params) *float64 { return &p.M },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := DefaultParams(3)
			*field(&p) = v
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepted %s = %v", name, v)
			}
		}
	}

	e := engine(t)
	e.SetCacheCap(1)
	bad := DefaultParams(3)
	bad.M = math.NaN()
	if tp, err := e.Build(nil, query.Default(), bad); err == nil {
		t.Errorf("Build accepted M = NaN (ObjVal %v)", tp.ObjVal)
	}
	done := make(chan error, 1)
	go func() {
		for k := 3; k <= 4; k++ {
			if _, err := e.Build(nil, query.Default(), DefaultParams(k)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("build over the cache cap did not return")
	}
}

func TestNewEngineErrors(t *testing.T) {
	if _, err := NewEngine(nil); err == nil {
		t.Fatal("nil city accepted")
	}
}

func TestBuildRandomValidButUnoptimized(t *testing.T) {
	e := engine(t)
	tp, err := e.BuildRandom(query.Default(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.Valid() {
		t.Fatal("random package must still satisfy the query counts")
	}
	// Random packages must be (much) less cohesive than optimized ones on
	// a clustered city.
	opt, err := e.Build(nil, query.Default(), DefaultParams(5))
	if err != nil {
		t.Fatal(err)
	}
	if metrics.RawDistanceSum(tp.CIs) <= metrics.RawDistanceSum(opt.CIs) {
		t.Fatalf("random package more compact than optimized: %v vs %v",
			metrics.RawDistanceSum(tp.CIs), metrics.RawDistanceSum(opt.CIs))
	}
}

func TestBuildRandomSeedVariation(t *testing.T) {
	e := engine(t)
	a, _ := e.BuildRandom(query.Default(), 2, 1)
	b, _ := e.BuildRandom(query.Default(), 2, 2)
	same := true
	for j := range a.CIs {
		for i := range a.CIs[j].Items {
			if a.CIs[j].Items[i].ID != b.CIs[j].Items[i].ID {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical random packages")
	}
}

func TestBuildHoneypotInvalid(t *testing.T) {
	e := engine(t)
	tp, err := e.BuildHoneypot(query.Default(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Valid() {
		t.Fatal("honeypot package must be invalid — it filters careless raters")
	}
}

func TestObjectiveValuePositive(t *testing.T) {
	e := engine(t)
	gp := randomGroupProfile(t, e, 6)
	tp, err := e.Build(gp, query.Default(), DefaultParams(5))
	if err != nil {
		t.Fatal(err)
	}
	if tp.ObjVal <= 0 || math.IsNaN(tp.ObjVal) {
		t.Fatalf("objective = %v", tp.ObjVal)
	}
}

func TestGammaZeroEqualsNilGroup(t *testing.T) {
	// Building with γ=0 and a profile must select the same items as
	// building with no profile at all.
	e := engine(t)
	gp := randomGroupProfile(t, e, 8)
	params := DefaultParams(4)
	params.Gamma = 0
	a, err := e.Build(gp, query.Default(), params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Build(nil, query.Default(), params)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.CIs {
		for i := range a.CIs[j].Items {
			if a.CIs[j].Items[i].ID != b.CIs[j].Items[i].ID {
				t.Fatal("γ=0 build differs from nil-group build")
			}
		}
	}
}

func TestMeasureOnPackage(t *testing.T) {
	e := engine(t)
	gp := randomGroupProfile(t, e, 9)
	tp, err := e.Build(gp, query.Default(), DefaultParams(5))
	if err != nil {
		t.Fatal(err)
	}
	d := tp.Measure()
	if d.Representativity <= 0 || d.RawDistance < 0 || d.Personalization <= 0 {
		t.Fatalf("suspicious dimensions: %+v", d)
	}
}

func TestRefineRoundsZeroStillValid(t *testing.T) {
	e := engine(t)
	params := DefaultParams(4)
	params.RefineRounds = 0
	tp, err := e.Build(nil, query.Default(), params)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.Valid() {
		t.Fatal("zero-refine package invalid")
	}
}

func TestItemsMayRepeatAcrossCIsButNotWithin(t *testing.T) {
	// Fuzzy clustering explicitly allows one POI in several CIs (§3.2 —
	// the Louvre example); within a CI, items are a set.
	e := engine(t)
	gp := randomGroupProfile(t, e, 10)
	params := DefaultParams(5)
	params.Gamma = 25 // encourage cross-CI repetition of best matches
	tp, err := e.Build(gp, query.Default(), params)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tp.CIs {
		seen := map[int]bool{}
		for _, it := range c.Items {
			if seen[it.ID] {
				t.Fatalf("POI %d twice within one CI", it.ID)
			}
			seen[it.ID] = true
		}
	}
	// Cross-CI repetition should actually occur under heavy personalization.
	counts := map[int]int{}
	for _, c := range tp.CIs {
		for _, it := range c.Items {
			counts[it.ID]++
		}
	}
	repeated := 0
	for _, n := range counts {
		if n > 1 {
			repeated++
		}
	}
	if repeated == 0 {
		t.Log("note: no POI repeated across CIs in this configuration (allowed, not required)")
	}
}

var _ = vec.Vector{}
var _ = poi.Acco
