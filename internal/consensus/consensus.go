// Package consensus implements the group-consensus functions of §2.3: the
// aggregation of member profiles into one group profile
//
//	g_j = w1·p_j + w2·(1 − d_j),   w1 + w2 = 1
//
// where p_j is the group preference (average or least-misery) and d_j the
// group disagreement (average pairwise or variance) for the j-th POI type
// of a category. The four named methods of §4.1 are provided, plus the
// building blocks to assemble custom ones.
package consensus

import (
	"fmt"
	"math"

	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/vec"
)

// PreferenceFunc aggregates the j-th components of the member vectors into
// a group preference p_j ∈ [0,1]. The input slice holds one value per
// member and is never empty.
type PreferenceFunc func(values []float64) float64

// DisagreementFunc computes the group disagreement d_j ∈ [0,1] over the
// j-th components of the member vectors.
type DisagreementFunc func(values []float64) float64

// AveragePreference is p_j = (1/|G|) Σ_u u_j.
func AveragePreference(values []float64) float64 {
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// LeastMiseryPreference is p_j = min_u u_j — the most unhappy member
// dominates (the kid in the paper's museum example).
func LeastMiseryPreference(values []float64) float64 {
	m := values[0]
	for _, v := range values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// PairwiseDisagreement is d_j = 2/(|G|(|G|−1)) Σ_{u<v} |u_j − v_j|.
// Groups of one member have zero disagreement by definition.
//
// The sum is folded as per-member subtotals t_i = Σ_{j>i} |u_i − u_j|,
// then Σ_i t_i. Keep this summation tree: floating-point addition is not
// associative, so any other order changes low bits of the group profiles
// the server memoizes and persists in its snapshots.
func PairwiseDisagreement(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		ti := 0.0
		for j := i + 1; j < n; j++ {
			ti += math.Abs(values[i] - values[j])
		}
		sum += ti
	}
	return 2 * sum / (float64(n) * float64(n-1))
}

// VarianceDisagreement is d_j = (1/|G|) Σ_u (u_j − μ_j)².
func VarianceDisagreement(values []float64) float64 {
	n := float64(len(values))
	mu := 0.0
	for _, v := range values {
		mu += v
	}
	mu /= n
	sum := 0.0
	for _, v := range values {
		d := v - mu
		sum += d * d
	}
	return sum / n
}

// WeightedPreferenceFunc aggregates member values under per-member
// weights (normalized to sum 1 over the values passed in). Optional on a
// Method; required only for GroupProfileWeighted.
type WeightedPreferenceFunc func(values, weights []float64) float64

// WeightedDisagreementFunc is the weighted counterpart of a
// DisagreementFunc.
type WeightedDisagreementFunc func(values, weights []float64) float64

// Method is a complete consensus function: a preference aggregator, an
// optional disagreement aggregator, and the preference weight w1 (w2 is
// 1−w1). When W1 == 1 the disagreement term vanishes and Dis may be nil.
// WPref/WDis are the weighted generalizations used by
// GroupProfileWeighted; they may be nil for unweighted-only methods.
type Method struct {
	Name  string
	Pref  PreferenceFunc
	Dis   DisagreementFunc
	W1    float64
	WPref WeightedPreferenceFunc
	WDis  WeightedDisagreementFunc
}

// The four methods evaluated in the paper (§4.1). The short display names
// follow Table 2's column headers.
var (
	// AveragePref: average preference only (w1 = 1).
	AveragePref = Method{Name: "average preference", Pref: AveragePreference, W1: 1,
		WPref: WeightedAveragePreference}
	// LeastMisery: least-misery preference only (w1 = 1).
	LeastMisery = Method{Name: "least misery", Pref: LeastMiseryPreference, W1: 1,
		WPref: weightedMin}
	// PairwiseDis: average preference + average pairwise disagreement, w1 = 0.5.
	PairwiseDis = Method{Name: "pair-wise disagreement", Pref: AveragePreference, Dis: PairwiseDisagreement, W1: 0.5,
		WPref: WeightedAveragePreference, WDis: WeightedPairwiseDisagreement}
	// VarianceDis: average preference + disagreement variance, w1 = 0.5.
	VarianceDis = Method{Name: "disagreement variance", Pref: AveragePreference, Dis: VarianceDisagreement, W1: 0.5,
		WPref: WeightedAveragePreference, WDis: WeightedVarianceDisagreement}
)

// Methods lists the paper's four consensus methods in Table 2 column order.
var Methods = []Method{AveragePref, LeastMisery, PairwiseDis, VarianceDis}

// Validate checks the method's configuration.
func (m Method) Validate() error {
	if m.Pref == nil {
		return fmt.Errorf("consensus %q: nil preference function", m.Name)
	}
	if m.W1 < 0 || m.W1 > 1 {
		return fmt.Errorf("consensus %q: w1 = %v outside [0,1]", m.Name, m.W1)
	}
	if m.W1 < 1 && m.Dis == nil {
		return fmt.Errorf("consensus %q: w1 = %v < 1 requires a disagreement function", m.Name, m.W1)
	}
	return nil
}

// Score combines one component's member values into the consensus score
// g_j = w1·p_j + w2·(1−d_j).
func (m Method) Score(values []float64) float64 {
	p := m.Pref(values)
	if m.W1 >= 1 {
		return p
	}
	d := 0.0
	if m.Dis != nil {
		d = m.Dis(values)
	}
	g := m.W1*p + (1-m.W1)*(1-d)
	// Floating-point guard; mathematically g ∈ [0,1] already.
	if g < 0 {
		return 0
	}
	if g > 1 {
		return 1
	}
	return g
}

// GroupProfile aggregates the member profiles of g into a single group
// profile using the method — one consensus score per POI type per category
// (§2.3).
func GroupProfile(g *profile.Group, m Method) (*profile.Profile, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	out := profile.New(g.Schema())
	values := make([]float64, g.Size())
	for _, c := range poi.Categories {
		dim := g.Schema().Dim(c)
		gv := make(vec.Vector, dim)
		for j := 0; j < dim; j++ {
			for i, member := range g.Members {
				values[i] = member.Vector(c)[j]
			}
			gv[j] = m.Score(values)
		}
		if err := out.SetVector(c, gv); err != nil {
			return nil, err
		}
	}
	return out, nil
}
