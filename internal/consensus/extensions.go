package consensus

import (
	"fmt"
	"math"

	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/vec"
)

// This file extends the paper's four consensus methods with the other
// standard aggregation strategies from the group-recommendation
// literature the paper cites ([6] Amer-Yahia et al. VLDB'09, [17]
// PolyLens, [18] Jameson & Smyth) plus per-member weighting. None of
// these appear in the paper's evaluation; they are provided because a
// downstream user of a group-recommendation library expects them, and the
// consensus-ablation experiment compares them on the paper's synthetic
// setup.

// MostPleasurePreference is p_j = max_u u_j — the happiest member wins
// (the optimistic dual of least misery).
func MostPleasurePreference(values []float64) float64 {
	m := values[0]
	for _, v := range values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// AverageWithoutMisery returns an average-preference aggregator that
// zeroes any component where some member's preference falls below the
// misery threshold — items intolerable to anyone are vetoed, otherwise
// the group averages (Jameson & Smyth's "average without misery").
func AverageWithoutMisery(threshold float64) PreferenceFunc {
	return func(values []float64) float64 {
		for _, v := range values {
			if v < threshold {
				return 0
			}
		}
		return AveragePreference(values)
	}
}

// Extension methods with conventional parameters.
var (
	// MostPleasure: optimistic aggregation, w1 = 1.
	MostPleasure = Method{Name: "most pleasure", Pref: MostPleasurePreference, W1: 1,
		WPref: weightedMax}
	// AvgNoMisery: average without misery at threshold 0.1, w1 = 1.
	AvgNoMisery = Method{Name: "average without misery", Pref: AverageWithoutMisery(0.1), W1: 1,
		WPref: weightedAvgNoMisery(0.1)}
)

// ExtendedMethods lists the paper's four methods followed by the
// extensions, for ablation sweeps.
var ExtendedMethods = append(append([]Method(nil), Methods...), MostPleasure, AvgNoMisery)

// --- weighted aggregators ---
//
// Weights passed to these functions are positive and sum to 1 over the
// supplied values (GroupProfileWeighted normalizes and drops weight-0
// members before calling).

// WeightedAveragePreference is p_j = Σ w_u·u_j.
func WeightedAveragePreference(values, weights []float64) float64 {
	s := 0.0
	for i, v := range values {
		s += weights[i] * v
	}
	return s
}

// weightedMin: a minimum is weight-free over the active members.
func weightedMin(values, _ []float64) float64 { return LeastMiseryPreference(values) }

// weightedMax: a maximum is weight-free over the active members.
func weightedMax(values, _ []float64) float64 { return MostPleasurePreference(values) }

// weightedAvgNoMisery keeps the veto semantics: any active member below
// the threshold zeroes the component, otherwise the weighted average.
func weightedAvgNoMisery(threshold float64) WeightedPreferenceFunc {
	return func(values, weights []float64) float64 {
		for _, v := range values {
			if v < threshold {
				return 0
			}
		}
		return WeightedAveragePreference(values, weights)
	}
}

// WeightedPairwiseDisagreement is
// d_j = Σ_{u<v} (w_u+w_v)·|u_j−v_j| / Σ_{u<v} (w_u+w_v): a pair matters in
// proportion to the combined weight of its members.
func WeightedPairwiseDisagreement(values, weights []float64) float64 {
	num, den := 0.0, 0.0
	for i := 0; i < len(values); i++ {
		for j := i + 1; j < len(values); j++ {
			w := weights[i] + weights[j]
			num += w * math.Abs(values[i]-values[j])
			den += w
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// WeightedVarianceDisagreement is d_j = Σ w_u·(u_j−μ_j)² with the weighted
// mean μ_j = Σ w_u·u_j.
func WeightedVarianceDisagreement(values, weights []float64) float64 {
	mu := WeightedAveragePreference(values, weights)
	s := 0.0
	for i, v := range values {
		d := v - mu
		s += weights[i] * d * d
	}
	return s
}

// GroupProfileWeighted aggregates member profiles with per-member weights
// (e.g. the trip organizer counts double, or children's preferences are
// softened). Weights must be finite and non-negative with a positive,
// finite sum; they are normalized internally, and weight-0 members are
// excluded entirely (including from least-misery minima). The method
// must declare its weighted aggregators (all built-in methods do).
func GroupProfileWeighted(g *profile.Group, m Method, weights []float64) (*profile.Profile, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.WPref == nil {
		return nil, fmt.Errorf("consensus %q: no weighted preference aggregator", m.Name)
	}
	if m.W1 < 1 && m.WDis == nil {
		return nil, fmt.Errorf("consensus %q: w1 < 1 requires a weighted disagreement aggregator", m.Name)
	}
	if len(weights) != g.Size() {
		return nil, fmt.Errorf("consensus: %d weights for %d members", len(weights), g.Size())
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("consensus: invalid weight %v for member %d", w, i)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("consensus: all member weights are zero")
	}
	// Finite weights can still overflow their sum; normalizing by +Inf
	// would silently zero every weight.
	if math.IsInf(total, 0) {
		return nil, fmt.Errorf("consensus: member weights sum to %v", total)
	}

	// Active members and their normalized weights.
	var activeIdx []int
	var wts []float64
	for i, w := range weights {
		if w > 0 {
			activeIdx = append(activeIdx, i)
			wts = append(wts, w/total)
		}
	}

	out := profile.New(g.Schema())
	values := make([]float64, len(activeIdx))
	for _, c := range poi.Categories {
		dim := g.Schema().Dim(c)
		gv := make(vec.Vector, dim)
		for j := 0; j < dim; j++ {
			for vi, mi := range activeIdx {
				values[vi] = g.Members[mi].Vector(c)[j]
			}
			p := m.WPref(values, wts)
			gj := p
			if m.W1 < 1 {
				d := m.WDis(values, wts)
				gj = m.W1*p + (1-m.W1)*(1-d)
			}
			gv[j] = clamp01(gj)
		}
		if err := out.SetVector(c, gv); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
