package consensus

import (
	"math"
	"testing"
	"testing/quick"

	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/rng"
	"grouptravel/internal/vec"
)

func TestMostPleasure(t *testing.T) {
	if got := MostPleasurePreference(paperFamily); got != 1.0 {
		t.Fatalf("most pleasure = %v, want 1.0 (the mother)", got)
	}
}

func TestAverageWithoutMisery(t *testing.T) {
	f := AverageWithoutMisery(0.3)
	// The kid at 0.2 vetoes the museum.
	if got := f(paperFamily); got != 0 {
		t.Fatalf("veto failed: %v", got)
	}
	// Without the kid the average goes through.
	happy := []float64{0.8, 1.0, 0.6}
	if got := f(happy); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("non-vetoed average = %v, want 0.8", got)
	}
}

func TestExtendedMethodsValid(t *testing.T) {
	if len(ExtendedMethods) != 6 {
		t.Fatalf("expected 6 extended methods, got %d", len(ExtendedMethods))
	}
	for _, m := range ExtendedMethods {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestWeightedAveragePreference(t *testing.T) {
	// Organizer (weight 3) at 0.9, member (weight 1) at 0.1:
	// p = 0.75·0.9 + 0.25·0.1 = 0.7.
	got := WeightedAveragePreference([]float64{0.9, 0.1}, []float64{0.75, 0.25})
	if math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("weighted average = %v, want 0.7", got)
	}
}

func TestWeightedPairwiseDisagreement(t *testing.T) {
	// Equal weights must reduce to the unweighted pairwise disagreement.
	vals := []float64{0.8, 1.0, 0.6, 0.2}
	w := []float64{0.25, 0.25, 0.25, 0.25}
	if got, want := WeightedPairwiseDisagreement(vals, w), PairwiseDisagreement(vals); math.Abs(got-want) > 1e-12 {
		t.Fatalf("equal-weight pairwise = %v, want %v", got, want)
	}
	// Up-weighting a deviant pair raises disagreement.
	heavyDeviant := WeightedPairwiseDisagreement([]float64{0, 1, 0.5}, []float64{0.45, 0.45, 0.1})
	lightDeviant := WeightedPairwiseDisagreement([]float64{0, 1, 0.5}, []float64{0.1, 0.1, 0.8})
	if heavyDeviant <= lightDeviant {
		t.Fatalf("weighting the disagreeing pair did not raise d: %v vs %v", heavyDeviant, lightDeviant)
	}
}

func TestWeightedVarianceDisagreement(t *testing.T) {
	vals := []float64{0.8, 1.0, 0.6, 0.2}
	w := []float64{0.25, 0.25, 0.25, 0.25}
	if got, want := WeightedVarianceDisagreement(vals, w), VarianceDisagreement(vals); math.Abs(got-want) > 1e-12 {
		t.Fatalf("equal-weight variance = %v, want %v", got, want)
	}
}

func wtestSchema() *poi.Schema {
	return poi.NewSchema([]string{"h", "x"}, []string{"t", "y"}, []string{"a", "b", "c"}, []string{"a", "b", "c"})
}

func buildFamily(t *testing.T) *profile.Group {
	t.Helper()
	s := wtestSchema()
	mk := func(museum float64) *profile.Profile {
		p := profile.New(s)
		if err := p.SetVector(poi.Attr, vec.Vector{museum, 0.3, 0}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	g, err := profile.NewGroup(s, []*profile.Profile{mk(0.8), mk(1.0), mk(0.6), mk(0.2)})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGroupProfileWeightedEqualsUnweightedAtUniformWeights(t *testing.T) {
	g := buildFamily(t)
	uniform := []float64{1, 1, 1, 1}
	for _, m := range Methods {
		a, err := GroupProfile(g, m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GroupProfileWeighted(g, m, uniform)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for _, c := range poi.Categories {
			if !vec.Equal(a.Vector(c), b.Vector(c), 1e-12) {
				t.Fatalf("%s/%s: weighted(1,1,1,1) differs from unweighted: %v vs %v",
					m.Name, c, b.Vector(c), a.Vector(c))
			}
		}
	}
}

func TestGroupProfileWeightedShiftsTowardHeavyMember(t *testing.T) {
	g := buildFamily(t)
	// Weight the kid (0.2 museum preference) heavily: the averaged museum
	// score must fall.
	kidHeavy, err := GroupProfileWeighted(g, AveragePref, []float64{1, 1, 1, 10})
	if err != nil {
		t.Fatal(err)
	}
	motherHeavy, err := GroupProfileWeighted(g, AveragePref, []float64{1, 10, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if kidHeavy.Vector(poi.Attr)[0] >= motherHeavy.Vector(poi.Attr)[0] {
		t.Fatalf("kid-weighted museum %v not below mother-weighted %v",
			kidHeavy.Vector(poi.Attr)[0], motherHeavy.Vector(poi.Attr)[0])
	}
}

func TestGroupProfileWeightedExcludesZeroWeightMembers(t *testing.T) {
	g := buildFamily(t)
	// With the kid excluded, least misery over {0.8, 1.0, 0.6} is 0.6.
	gp, err := GroupProfileWeighted(g, LeastMisery, []float64{1, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gp.Vector(poi.Attr)[0]-0.6) > 1e-12 {
		t.Fatalf("least misery without the kid = %v, want 0.6", gp.Vector(poi.Attr)[0])
	}
}

func TestGroupProfileWeightedErrors(t *testing.T) {
	g := buildFamily(t)
	if _, err := GroupProfileWeighted(g, AveragePref, []float64{1, 1}); err == nil {
		t.Fatal("wrong weight count accepted")
	}
	if _, err := GroupProfileWeighted(g, AveragePref, []float64{1, -1, 1, 1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := GroupProfileWeighted(g, AveragePref, []float64{0, 0, 0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := GroupProfileWeighted(g, AveragePref, []float64{1, math.Inf(1), 1, 1}); err == nil {
		t.Fatal("infinite weight accepted")
	}
	if _, err := GroupProfileWeighted(g, AveragePref, []float64{1e308, 1e308, 0, 0}); err == nil {
		t.Fatal("weights whose sum overflows accepted")
	}
	noWeighted := Method{Name: "plain", Pref: AveragePreference, W1: 1}
	if _, err := GroupProfileWeighted(g, noWeighted, []float64{1, 1, 1, 1}); err == nil {
		t.Fatal("method without weighted aggregators accepted")
	}
}

func TestWeightedScoreBoundsQuick(t *testing.T) {
	src := rng.New(4)
	g := buildFamily(t)
	f := func(_ uint8) bool {
		w := make([]float64, 4)
		for i := range w {
			w[i] = src.Float64() + 0.01
		}
		for _, m := range ExtendedMethods {
			gp, err := GroupProfileWeighted(g, m, w)
			if err != nil {
				return false
			}
			for _, c := range poi.Categories {
				if !gp.Vector(c).InUnitRange() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMostPleasureVsLeastMiseryOrdering(t *testing.T) {
	g := buildFamily(t)
	mp, err := GroupProfile(g, MostPleasure)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := GroupProfile(g, LeastMisery)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := GroupProfile(g, AveragePref)
	if err != nil {
		t.Fatal(err)
	}
	// min ≤ avg ≤ max, component-wise.
	for _, c := range poi.Categories {
		for j := range mp.Vector(c) {
			if !(lm.Vector(c)[j] <= avg.Vector(c)[j]+1e-12 && avg.Vector(c)[j] <= mp.Vector(c)[j]+1e-12) {
				t.Fatalf("ordering violated at %s[%d]: %v / %v / %v",
					c, j, lm.Vector(c)[j], avg.Vector(c)[j], mp.Vector(c)[j])
			}
		}
	}
}

func TestAvgNoMiseryGroupProfile(t *testing.T) {
	g := buildFamily(t)
	gp, err := GroupProfile(g, AvgNoMisery)
	if err != nil {
		t.Fatal(err)
	}
	// The third attraction component is 0 for everyone — vetoed and zero.
	if gp.Vector(poi.Attr)[2] != 0 {
		t.Fatalf("all-zero component = %v", gp.Vector(poi.Attr)[2])
	}
	// The second component (0.3 for everyone, above threshold) averages.
	if math.Abs(gp.Vector(poi.Attr)[1]-0.3) > 1e-12 {
		t.Fatalf("component = %v, want 0.3", gp.Vector(poi.Attr)[1])
	}
}
