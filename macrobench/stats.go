package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs 1,000 samples, so its value rests on at least ten
// observations rather than on one outlier.
const minTail = 10

// supported reports whether n samples can carry the q-quantile.
func supported(n int, q float64) bool {
	return float64(n)*(1-q)+1e-9 >= minTail
}

// quantile is the nearest-rank q-quantile of an ascending slice, NaN when
// the slice is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// percentile sorts xs in place and returns its q-quantile, or NaN when the
// sample is too small to support it.
func percentile(xs []float64, q float64) float64 {
	if !supported(len(xs), q) {
		return math.NaN()
	}
	sort.Float64s(xs)
	return quantile(xs, q)
}

// spread summarizes repeated runs of one metric.
type spread struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

// summarize computes median, quartiles and range. Quartiles use the
// exclusive method of Python's statistics.quantiles(values, n=4), so a
// spread printed here matches one recomputed from the raw values there.
func summarize(values []float64) spread {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	s := spread{Values: values}
	if len(xs) == 0 {
		nan := math.NaN()
		s.Median, s.Q1, s.Q3, s.Min, s.Max = nan, nan, nan, nan, nan
		return s
	}
	s.Min, s.Max = xs[0], xs[len(xs)-1]
	s.Median = median(xs)
	if len(xs) < 2 {
		s.Q1, s.Q3 = xs[0], xs[0]
		return s
	}
	m := len(xs) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(xs)-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// iqrShare is the quartile distance as a share of the median — the
// run-to-run spread bounds are compared against.
func (s spread) iqrShare() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// ratio is a/b, 0 when b is 0: a share of nothing reads as none.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
