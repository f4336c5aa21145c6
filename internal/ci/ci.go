// Package ci implements Composite Items (§3.1–3.2): sets of POIs of
// prescribed categories under a budget, and the construction of the best
// valid CI in the vicinity of a fuzzy-clustering centroid — the inner
//
//	max_{CI_j ∈ V} ( β Σ_{i∈CI_j} (1 − d(i, μ_j)) + γ Σ_{i∈CI_j} cos(®i, ®g) )
//
// term of the paper's objective (Eq. 1).
package ci

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"grouptravel/internal/geo"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/query"
	"grouptravel/internal/vec"
)

// CI is a Composite Item: a set of POIs plus the centroid it was built
// around. Items are ordered by category then descending score, which is
// also a stable presentation order for UIs (Fig. 1 shows CIs as day plans).
type CI struct {
	Items    []*poi.POI
	Centroid geo.Point
}

// Cost returns the total cost of the CI's items (the budget side of the
// §3.1 validity predicate).
func (c *CI) Cost() float64 {
	total := 0.0
	for _, it := range c.Items {
		total += it.Cost
	}
	return total
}

// Center returns the mean coordinate of the CI's items, or the stored
// centroid for an empty CI. Core uses this to re-anchor centroids between
// refinement rounds.
func (c *CI) Center() geo.Point {
	if len(c.Items) == 0 {
		return c.Centroid
	}
	pts := make([]geo.Point, len(c.Items))
	for i, it := range c.Items {
		pts[i] = it.Coord
	}
	return geo.Centroid(pts, nil)
}

// PairwiseDistanceSum returns Σ_{i,j∈CI} d(i,j) over unordered pairs in km
// — the inner sum of the cohesiveness measure (Eq. 3).
func (c *CI) PairwiseDistanceSum() float64 {
	sum := 0.0
	for i := 0; i < len(c.Items); i++ {
		for j := i + 1; j < len(c.Items); j++ {
			sum += geo.Equirectangular(c.Items[i].Coord, c.Items[j].Coord)
		}
	}
	return sum
}

// Contains reports whether the CI holds the POI with the given id.
func (c *CI) Contains(id int) bool {
	for _, it := range c.Items {
		if it.ID == id {
			return true
		}
	}
	return false
}

// Clone returns a shallow copy of the CI (POIs are shared, immutable data).
func (c *CI) Clone() *CI {
	items := make([]*poi.POI, len(c.Items))
	copy(items, c.Items)
	return &CI{Items: items, Centroid: c.Centroid}
}

// Builder constructs the best valid CI near a centroid. One Builder is
// reusable across centroids and refinement rounds.
//
// A Builder is an immutable configuration: none of its fields are written
// after construction, and every Build call keeps its working state (the
// per-category rankings, the current selection, the budget-repair
// bookkeeping) in a per-call buildState. One Builder therefore serves any
// number of goroutines concurrently, provided the caller does not mutate
// its fields or the exclude sets it passes while builds are in flight —
// core.Engine relies on this to construct a package's CIs in parallel.
type Builder struct {
	Coll  *poi.Collection
	Query query.Query
	// Group is the group profile ®g; nil builds non-personalized CIs
	// (equivalent to γ = 0).
	Group *profile.Profile
	// Beta and Gamma weigh centroid proximity and personalization in the
	// per-item score β(1−d(i,μ)) + γ·cos(®i, ®g) (Eq. 1).
	Beta  float64
	Gamma float64
	// Norm converts km distances to the normalized [0,1] distances of
	// Eq. 1; use Coll.Normalizer() unless experimenting.
	Norm geo.Normalizer
}

// Validate checks the builder configuration.
func (b *Builder) Validate() error {
	if b.Coll == nil {
		return fmt.Errorf("ci: nil collection")
	}
	if err := b.Query.Validate(); err != nil {
		return err
	}
	if b.Beta < 0 || b.Gamma < 0 {
		return fmt.Errorf("ci: negative objective weights (beta=%v gamma=%v)", b.Beta, b.Gamma)
	}
	return b.Query.Feasible(b.Coll)
}

// Score returns the per-item objective contribution for an item relative
// to centroid mu: β(1−d(i,μ)) + γ·cos(®i, ®g_cat). Its distance is the
// site kernel Build ranks with, so Score agrees with Build's ranking.
func (b *Builder) Score(it *poi.POI, mu geo.Point) float64 {
	s := b.Beta * (1 - b.Norm.SiteDistance(geo.NewSite(it.Coord), geo.NewSite(mu)))
	if b.Group != nil && b.Gamma > 0 {
		s += b.Gamma * vec.Cosine(it.Vector, b.Group.Vector(it.Cat))
	}
	return s
}

// scored pairs a candidate with its score for one centroid.
type scored struct {
	item  *poi.POI
	score float64
}

// buildState is the per-call scratch of one Build: the scored candidates,
// the current selection and the budget-repair bookkeeping. Keeping all
// mutable state here (never on the Builder) is what makes one Builder safe
// to share across goroutines.
type buildState struct {
	b *Builder
	// perCat holds every scored candidate of a requested category, in
	// collection order; only repairBudget and cheapestCost read it.
	perCat   [poi.NumCategories][]scored
	selected []scored
	taken    map[int]struct{} // ids of the selected POIs
}

// statePool recycles buildStates across Build calls. The per-category
// candidate lists dominated the build path's allocations (a fresh slice per
// category per centroid per refinement round); reusing the backing arrays
// makes steady-state builds allocation-free outside the returned CI.
var statePool = sync.Pool{New: func() any { return new(buildState) }}

func getBuildState(b *Builder) *buildState {
	st := statePool.Get().(*buildState)
	st.b = b
	for i := range st.perCat {
		st.perCat[i] = st.perCat[i][:0]
	}
	st.selected = st.selected[:0]
	if st.taken == nil {
		st.taken = make(map[int]struct{})
	} else {
		clear(st.taken)
	}
	return st
}

func putBuildState(st *buildState) {
	st.b = nil
	for i := range st.perCat {
		// Drop POI pointers so a pooled state does not pin a collection.
		s := st.perCat[i]
		for j := range s {
			s[j] = scored{}
		}
		st.perCat[i] = s[:0]
	}
	for j := range st.selected {
		st.selected[j] = scored{}
	}
	st.selected = st.selected[:0]
	statePool.Put(st)
}

// Build constructs the best valid CI around mu. exclude (may be nil) lists
// POI ids that must not be used — the REMOVE customization operator and
// "generate a new CI avoiding current items" both need it.
//
// Algorithm: per category, score every candidate and select the #c_j best
// (score descending, POI id ascending) without ranking the rest; if the
// budget is exceeded, run a swap-repair local search that replaces
// expensive picks with cheaper candidates at minimal score loss.
// Returns an error if no valid CI exists (infeasible counts or budget).
//
// Build is safe to call from multiple goroutines on one Builder; all
// working state lives in a per-call buildState.
func (b *Builder) Build(mu geo.Point, exclude map[int]bool) (*CI, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	st := getBuildState(b)
	defer putBuildState(st)
	if err := st.rank(mu, exclude); err != nil {
		return nil, err
	}
	if err := st.repairBudget(); err != nil {
		return nil, err
	}
	items := make([]*poi.POI, len(st.selected))
	for i, s := range st.selected {
		items[i] = s.item
	}
	out := &CI{Items: items, Centroid: mu}
	if err := b.Query.CheckCI(out.Items); err != nil {
		return nil, fmt.Errorf("ci: construction produced invalid CI: %w", err)
	}
	return out, nil
}

// compareScored is the strict total order of a category's ranking: score
// descending, POI id ascending.
func compareScored(a, b scored) int {
	switch {
	case a.score > b.score:
		return -1
	case a.score < b.score:
		return 1
	case a.item.ID < b.item.ID:
		return -1
	case a.item.ID > b.item.ID:
		return 1
	}
	return 0
}

// rank scores every candidate of each requested category once, keeps the
// scores in perCat, and appends the category's #c_j best to selected, best
// first.
//
// The scoring loop is the hottest code in a build: it reads each
// candidate's site from the collection, prepares mu's site once, and
// hoists the group vector and its norm out of the per-candidate loop
// (vec.CosineNormB).
// Only the #c_j best of a ranking are ever read, so rank selects instead of
// sorting: the first #c_j candidates fill selected unordered, a further
// candidate turns that segment into a heap with its worst member at the
// root, and from then on each candidate costs one comparison with the root
// unless it displaces it. Sorting the #c_j winners afterwards gives the
// order a full sort would have. When #c_j is the category size no heap is
// ever built and the cost is the one sort of the list.
func (st *buildState) rank(mu geo.Point, exclude map[int]bool) error {
	b := st.b
	personalize := b.Group != nil && b.Gamma > 0
	muSite := geo.NewSite(mu)
	if need := b.Query.Size(); cap(st.selected) < need {
		st.selected = make([]scored, 0, need)
	}
	for _, cat := range poi.Categories {
		want := b.Query.Counts[cat]
		if want == 0 {
			continue
		}
		cands := b.Coll.ByCategory(cat)
		sites := b.Coll.CategorySites(cat)[:len(cands)]
		list := st.perCat[cat][:0]
		if cap(list) < len(cands) {
			list = make([]scored, 0, len(cands))
		}
		var gv vec.Vector
		var gn float64
		if personalize {
			gv = b.Group.Vector(cat)
			gn = gv.Norm()
		}
		base := len(st.selected)
		heaped := false
		for i, it := range cands {
			if exclude != nil && exclude[it.ID] {
				continue
			}
			// Same arithmetic as Builder.Score, with the sites and the
			// group-vector norm prepared once instead of once per item.
			s := b.Beta * (1 - b.Norm.SiteDistance(sites[i], muSite))
			if personalize {
				s += b.Gamma * vec.CosineNormB(it.Vector, gv, gn)
			}
			c := scored{it, s}
			list = append(list, c)
			top := st.selected[base:]
			if len(top) < want {
				st.selected = append(st.selected, c)
				continue
			}
			if !heaped {
				heapify(top)
				heaped = true
			}
			if compareScored(c, top[0]) < 0 {
				top[0] = c
				siftDown(top, 0)
			}
		}
		st.perCat[cat] = list
		if len(list) < want {
			return fmt.Errorf("ci: only %d available %s POIs, query wants %d",
				len(list), cat, want)
		}
		top := st.selected[base:]
		slices.SortFunc(top, compareScored)
		for _, s := range top {
			st.taken[s.item.ID] = struct{}{}
		}
	}
	return nil
}

// heapify orders h so that no element ranks below its parent: h[0] is the
// worst of h under compareScored.
func heapify(h []scored) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// siftDown restores the heap property of h below index i.
func siftDown(h []scored, i int) {
	for {
		worst := 2*i + 1
		if worst >= len(h) {
			return
		}
		if r := worst + 1; r < len(h) && compareScored(h[r], h[worst]) > 0 {
			worst = r
		}
		if compareScored(h[worst], h[i]) <= 0 {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// repairBudget swaps selected items for cheaper same-category candidates
// until the budget holds, minimizing score loss per unit of cost saved.
// Ties in that ratio go to the earliest selected item, then to the
// better-ranked candidate under compareScored. An unbounded budget holds at
// once.
func (st *buildState) repairBudget() error {
	b := st.b
	cost := 0.0
	for _, s := range st.selected {
		cost += s.item.Cost
	}
	for cost > b.Query.Budget {
		bestSel := -1
		var best scored
		bestRatio := 0.0
		for si, s := range st.selected {
			for _, cand := range st.perCat[s.item.Cat] {
				if _, taken := st.taken[cand.item.ID]; taken {
					continue
				}
				saving := s.item.Cost - cand.item.Cost
				if saving <= 0 {
					continue
				}
				loss := s.score - cand.score
				ratio := loss / saving
				if bestSel == -1 || ratio < bestRatio ||
					(ratio == bestRatio && si == bestSel && compareScored(cand, best) < 0) {
					bestSel, best, bestRatio = si, cand, ratio
				}
			}
		}
		if bestSel == -1 {
			return fmt.Errorf("ci: no valid CI within budget %.3f (cheapest selection costs %.3f)",
				b.Query.Budget, st.cheapestCost())
		}
		old := st.selected[bestSel]
		delete(st.taken, old.item.ID)
		st.taken[best.item.ID] = struct{}{}
		cost += best.item.Cost - old.item.Cost
		st.selected[bestSel] = best
	}
	return nil
}

// cheapestCost returns the minimum achievable CI cost — used only for the
// infeasibility error message.
func (st *buildState) cheapestCost() float64 {
	b := st.b
	total := 0.0
	for _, cat := range poi.Categories {
		want := b.Query.Counts[cat]
		if want == 0 {
			continue
		}
		costs := make([]float64, len(st.perCat[cat]))
		for i, s := range st.perCat[cat] {
			costs[i] = s.item.Cost
		}
		sort.Float64s(costs)
		for i := 0; i < want && i < len(costs); i++ {
			total += costs[i]
		}
	}
	return total
}

// ObjectiveValue returns the CI's contribution to the second line of Eq. 1:
// β Σ (1−d(i,μ)) + γ Σ cos(®i, ®g), using the builder's weights.
func (b *Builder) ObjectiveValue(c *CI) float64 {
	total := 0.0
	for _, it := range c.Items {
		total += b.Score(it, c.Centroid)
	}
	return total
}
