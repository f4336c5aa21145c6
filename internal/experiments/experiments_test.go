package experiments

import (
	"strings"
	"testing"

	"grouptravel/internal/dataset"
)

// quickCfg builds a test-scale config with small shared cities.
var (
	sharedParis *dataset.City
	sharedBarca *dataset.City
)

func quickCfg(t *testing.T) Config {
	t.Helper()
	if sharedParis == nil {
		p, err := dataset.Generate(dataset.TestSpec("Paris", 100))
		if err != nil {
			t.Fatal(err)
		}
		spec := dataset.TestSpec("Barcelona", 200)
		spec.Center = dataset.BuiltinCenters["Barcelona"]
		b, err := dataset.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		sharedParis, sharedBarca = p, b
	}
	cfg := QuickConfig()
	cfg.City = sharedParis
	cfg.SecondCity = sharedBarca
	return cfg
}

var cachedT2 *Table2Result

func table2(t *testing.T) *Table2Result {
	t.Helper()
	if cachedT2 == nil {
		res, err := RunTable2(quickCfg(t))
		if err != nil {
			t.Fatal(err)
		}
		cachedT2 = res
	}
	return cachedT2
}

func TestTable2Shape(t *testing.T) {
	res := table2(t)
	if len(res.Cells) != len(GroupClasses) {
		t.Fatalf("got %d class rows", len(res.Cells))
	}
	for ci := range res.Cells {
		if len(res.Cells[ci]) != 4 {
			t.Fatalf("class %d has %d method cells", ci, len(res.Cells[ci]))
		}
		for mi, c := range res.Cells[ci] {
			for _, v := range []float64{c.R, c.C, c.P} {
				if v < 0 || v > 1 {
					t.Fatalf("cell[%d][%d] outside [0,1]: %+v", ci, mi, c)
				}
			}
		}
	}
	// 6 classes × GroupsPerCell × 4 methods raw runs.
	want := len(GroupClasses) * QuickConfig().GroupsPerCell * 4
	if len(res.runs) != want {
		t.Fatalf("raw runs = %d, want %d", len(res.runs), want)
	}
}

// TestTable2QualitativeFindings checks the paper's §4.3.2 headline
// observations on our synthetic reproduction.
func TestTable2QualitativeFindings(t *testing.T) {
	res := table2(t)
	avgOver := func(classes []GroupClass, mi int, pick func(Cell) float64) float64 {
		s := 0.0
		for _, gc := range classes {
			s += pick(res.CellFor(gc, mi))
		}
		return s / float64(len(classes))
	}
	all := GroupClasses
	nonUniform := GroupClasses[3:]
	uniform := GroupClasses[:3]

	// "disagreement-based consensus functions ... perform best in terms of
	// all optimization dimensions": their mean P must beat least misery.
	pAvg := avgOver(all, 0, func(c Cell) float64 { return c.P })
	pLM := avgOver(all, 1, func(c Cell) float64 { return c.P })
	pPW := avgOver(all, 2, func(c Cell) float64 { return c.P })
	pDV := avgOver(all, 3, func(c Cell) float64 { return c.P })
	if pPW <= pLM || pDV <= pLM {
		t.Errorf("disagreement methods (%.2f, %.2f) do not beat least misery (%.2f) on personalization",
			pPW, pDV, pLM)
	}
	// "Least misery appears to be the worst aggregation method."
	if pLM >= pAvg || pLM >= pPW || pLM >= pDV {
		t.Errorf("least misery (%.2f) is not the worst for personalization (avg %.2f, pw %.2f, dv %.2f)",
			pLM, pAvg, pPW, pDV)
	}
	// Least misery personalization collapses for non-uniform groups
	// (Table 2 shows 7%, 7%, 0%).
	lmNonUniformP := avgOver(nonUniform, 1, func(c Cell) float64 { return c.P })
	if lmNonUniformP > 0.25 {
		t.Errorf("least-misery non-uniform personalization %.2f, expected ≈0", lmNonUniformP)
	}
	// "TPs for non-uniform groups are more cohesive than uniform groups"
	// (per method, averaged over sizes).
	for mi, name := range MethodNames {
		cu := avgOver(uniform, mi, func(c Cell) float64 { return c.C })
		cn := avgOver(nonUniform, mi, func(c Cell) float64 { return c.C })
		if cn < cu {
			t.Errorf("%s: non-uniform cohesiveness %.2f below uniform %.2f", name, cn, cu)
		}
	}
}

func TestTable2SizeTrendsPCC(t *testing.T) {
	// The three-point size series needs tighter cell means than the quick
	// config's 6 groups per cell provide; use 24 (the paper uses 100).
	cfg := quickCfg(t)
	cfg.GroupsPerCell = 24
	res, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcc, err := res.PCC()
	if err != nil {
		t.Fatal(err)
	}
	// §4.3.3: cohesiveness grows with uniform group size for every
	// consensus method (paper PCCs all positive) — robust in our model.
	for mi, name := range MethodNames {
		if pcc.CohesivenessPCC[mi] <= 0 {
			t.Errorf("%s: cohesiveness PCC %.2f not positive", name, pcc.CohesivenessPCC[mi])
		}
	}
	// Personalization falls with size (paper PCCs strongly negative). In
	// our reproduction this trend is robust for the disagreement-based
	// methods; for average preference and least misery the three size-
	// class means are flat within noise (see EXPERIMENTS.md), so only the
	// robust pair is asserted.
	for _, mi := range []int{2, 3} { // pair-wise disagreement, variance
		if pcc.PersonalizationPCC[mi] >= 0 {
			t.Errorf("%s: personalization PCC %.2f not negative", MethodNames[mi], pcc.PersonalizationPCC[mi])
		}
	}
	if !strings.Contains(pcc.Render(), "cohesiveness") {
		t.Fatal("PCC render missing content")
	}
}

func TestTable2ANOVA(t *testing.T) {
	res := table2(t)
	rep, err := res.ANOVA()
	if err != nil {
		t.Fatal(err)
	}
	// The consensus method must significantly influence personalization —
	// the paper's central synthetic finding.
	if !rep.Personalization.Significant(0.05) {
		t.Errorf("personalization ANOVA not significant: %v", rep.Personalization)
	}
	if rep.Personalization.DF1 != 3 {
		t.Errorf("df1 = %d, want 3 (4 methods)", rep.Personalization.DF1)
	}
	if !strings.Contains(rep.Render(), "ANOVA") {
		t.Fatal("ANOVA render missing content")
	}
}

func TestTable2Render(t *testing.T) {
	res := table2(t)
	out := res.Render()
	for _, want := range []string{"Table 2", "uniform/small", "non-uniform/large", "average preference", "disagreement variance"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Deterministic(t *testing.T) {
	cfg := quickCfg(t)
	cfg.GroupsPerCell = 2
	a, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range a.Cells {
		for mi := range a.Cells[ci] {
			if a.Cells[ci][mi] != b.Cells[ci][mi] {
				t.Fatalf("non-deterministic cell [%d][%d]", ci, mi)
			}
		}
	}
}

func TestTable3(t *testing.T) {
	cfg := quickCfg(t)
	cfg.GroupsPerCell = 3
	res, err := RunTable3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range res.Cells {
		for mi, c := range res.Cells[ci] {
			for _, v := range []float64{c.R, c.C, c.P} {
				if v < 0 || v > 1 {
					t.Fatalf("agreement cell [%d][%d] outside [0,1]: %+v", ci, mi, c)
				}
			}
		}
	}
	// §4.3.3: "In large groups, preferences of individuals fade out and
	// returned TPs are farther from the median user's preferences" — for
	// non-uniform groups, large-group personalization agreement must not
	// exceed small-group agreement by much; and uniform groups agree better
	// than non-uniform ones overall.
	avgP := func(gc GroupClass) float64 {
		s := 0.0
		for mi := range methods {
			s += res.CellFor(gc, mi).P
		}
		return s / float64(len(methods))
	}
	uniformMean := (avgP(GroupClasses[0]) + avgP(GroupClasses[1]) + avgP(GroupClasses[2])) / 3
	nonUniformMean := (avgP(GroupClasses[3]) + avgP(GroupClasses[4]) + avgP(GroupClasses[5])) / 3
	if uniformMean < nonUniformMean {
		t.Errorf("uniform median-user agreement %.2f below non-uniform %.2f", uniformMean, nonUniformMean)
	}
	if !strings.Contains(res.Render(), "Table 3") {
		t.Fatal("render missing title")
	}
}

func TestTables4And5(t *testing.T) {
	cfg := quickCfg(t)
	t4, t5, err := RunTables4And5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All ratings in [1,5].
	for ci := range t4.Scores {
		for vi, s := range t4.Scores[ci] {
			if s < 1 || s > 5 {
				t.Fatalf("Table 4 score [%d][%d] = %v outside [1,5]", ci, vi, s)
			}
		}
	}
	// §4.4.2: "participants liked personalized TPs more than
	// non-personalized and random TPs" — best variant per class must be a
	// personalized one for most classes.
	personalizedWins := 0
	for ci := range GroupClasses {
		best := t4.bestVariant(ci)
		if best != VarRandom && best != VarNonPersonalized {
			personalizedWins++
		}
	}
	if personalizedWins < 4 {
		t.Errorf("personalized variants win only %d/6 classes", personalizedWins)
	}
	// Table 5 fractions in [0,1].
	for ci := range t5.Supremacy {
		for pi, f := range t5.Supremacy[ci] {
			if f < 0 || f > 1 {
				t.Fatalf("Table 5 fraction [%d][%d] = %v", ci, pi, f)
			}
		}
	}
	// Personalized variants beat NPTP in pairwise comparisons on average.
	npPairs := []int{3, 6, 8, 9} // X vs NPTP columns
	tot, n := 0.0, 0
	for ci := range GroupClasses {
		for _, pi := range npPairs {
			tot += t5.Supremacy[ci][pi]
			n++
		}
	}
	if tot/float64(n) < 0.5 {
		t.Errorf("personalized variants beat NPTP only %.0f%% of the time", 100*tot/float64(n))
	}
	if !strings.Contains(t4.Render(), "Table 4") || !strings.Contains(t5.Render(), "Table 5") {
		t.Fatal("render missing titles")
	}
	if t4.Retained == 0 {
		t.Fatal("honeypot filter retained nobody")
	}
}

func TestTables6And7(t *testing.T) {
	cfg := quickCfg(t)
	t6, t7, err := RunTables6And7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies {
		for col := 0; col < 2; col++ {
			v := t6.Scores[s][col]
			if v < 1 || v > 5 {
				t.Fatalf("Table 6 score %s[%d] = %v", s, col, v)
			}
		}
	}
	for col := 0; col < 2; col++ {
		for _, f := range []float64{t7.BatchVsIndividual[col], t7.BatchVsNonPers[col], t7.IndividualVsNP[col]} {
			if f < 0 || f > 1 {
				t.Fatalf("Table 7 fraction %v outside [0,1]", f)
			}
		}
	}
	// §4.4.2: "the supremacy of the batch strategy over the individual
	// strategy in almost all cases" — batch must not lose to individual in
	// both columns.
	if t7.BatchVsIndividual[0] < 0.5 && t7.BatchVsIndividual[1] < 0.5 {
		t.Errorf("batch lost to individual in both groups: %v", t7.BatchVsIndividual)
	}
	if !strings.Contains(t6.Render(), "Table 6") || !strings.Contains(t7.Render(), "Table 7") {
		t.Fatal("render missing titles")
	}
}

// TestDistanceReport checks the report's precision claim and rendering.
// The measured speedup is wall-clock timing of one cold loop, so it is
// not asserted here; BenchmarkHaversine/BenchmarkEquirectangular measure
// the speed.
func TestDistanceReport(t *testing.T) {
	rep, err := RunDistanceReport(20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's 0.1% precision claim must hold.
	if rep.MaxRelativeError > 0.001 {
		t.Errorf("in-city relative error %.4f%% exceeds 0.1%%", 100*rep.MaxRelativeError)
	}
	if _, err := RunDistanceReport(10, 1); err == nil {
		t.Fatal("tiny pair count accepted")
	}
	if !strings.Contains(rep.Render(), "30x") {
		t.Fatal("render missing the paper claim")
	}
}

func TestSampleSizeReport(t *testing.T) {
	rep, err := RunSampleSizeReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SampleSize != 1062 {
		t.Fatalf("sample size %d, paper says 1062", rep.SampleSize)
	}
	if !strings.Contains(rep.Render(), "1062") {
		t.Fatal("render missing value")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := quickCfg(t)
	cfg.GroupsPerCell = 0
	if _, err := RunTable2(cfg); err == nil {
		t.Fatal("zero groups per cell accepted")
	}
	cfg = quickCfg(t)
	cfg.K = 1
	if _, err := RunTable2(cfg); err == nil {
		t.Fatal("K=1 accepted (representativity needs 2 centroids)")
	}
}

func TestGroupClassString(t *testing.T) {
	if GroupClasses[0].String() != "uniform/small" || GroupClasses[5].String() != "non-uniform/large" {
		t.Fatal("group class labels wrong")
	}
}

func TestVariantAndStrategyStrings(t *testing.T) {
	if VarPairwise.String() != "ADTP" || VarVariance.String() != "DVTP" || VarNonPersonalized.String() != "NPTP" {
		t.Fatal("variant labels do not match the paper")
	}
	if StratBatch.String() != "batch" {
		t.Fatal("strategy label wrong")
	}
}
