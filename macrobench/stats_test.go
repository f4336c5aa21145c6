package main

import (
	"math"
	"testing"
)

func TestPercentileSupportRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64 // NaN: not enough samples beyond the percentile
	}{
		{999, 0.99, math.NaN()},
		{1000, 0.99, 990},
		{19, 0.5, math.NaN()},
		{20, 0.5, 10},
		{0, 0.5, math.NaN()},
	}
	for _, c := range cases {
		got := percentile(seq(c.n), c.q)
		if math.IsNaN(c.want) != math.IsNaN(got) || (!math.IsNaN(got) && got != c.want) {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(values, n=4),
// which is how anyone re-checking a spread from raw values computes it.
func TestSummarizeMatchesPythonQuartiles(t *testing.T) {
	cases := []struct {
		values         []float64
		q1, median, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		s := summarize(c.values)
		if s.Q1 != c.q1 || s.Median != c.median || s.Q3 != c.q3 {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v, want %v %v %v",
				c.values, s.Q1, s.Median, s.Q3, c.q1, c.median, c.q3)
		}
	}
}

func TestStripSeq(t *testing.T) {
	got := stripSeq([]byte(`{"id":4,"days":[{"seq":1}],"valid":true,"seq":17}` + "\n"))
	if want := `{"id":4,"days":[{"seq":1}],"valid":true}` + "\n"; string(got) != want {
		t.Errorf("stripSeq = %q, want %q", got, want)
	}
	if got := stripSeq([]byte(`{"id":4,"valid":true}`)); got != nil {
		t.Errorf("stripSeq without a seq field = %q, want nil", got)
	}
}
