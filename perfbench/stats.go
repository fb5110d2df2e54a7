package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile (pct in (0, 100]) of xs: the
// smallest sample with at least pct% of the samples at or below it. It
// is the convention churn and simfarm use for their own percentiles.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(pct / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// fraction is failed ÷ attempted; 0 when nothing was attempted.
func fraction(failed, attempted int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// meanAbsErr is the mean |got[i] − want[i]| over paired values.
func meanAbsErr(got, want []float64) float64 {
	if len(got) != len(want) || len(got) == 0 {
		return math.NaN()
	}
	var sum float64
	for i := range got {
		sum += math.Abs(got[i] - want[i])
	}
	return sum / float64(len(got))
}

// allEqual reports whether every value in xs is identical.
func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
