package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule, so every reported value is one that was measured.
// It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The small subtraction keeps 99.9 % of 10,000 at rank 9,990 although
	// 99.9/100 is not exact in binary.
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the 50th percentile with the two middle values averaged on
// an even count, the estimator the repetition medians use.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailLadder is the set of tail percentiles a latency may be reported
// at, in rising order and in tenths of a percent so the count below is
// exact.
var tailLadder = []int{500, 900, 950, 990, 999}

// tailPercentile picks the highest percentile of the ladder that has at
// least ten samples beyond it in a sample of n, which is the highest one
// the sample supports. A sample too small for p90 reports its median.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 10
}

// relSpread is the interquartile range of xs as a share of its median,
// with the quartiles taken as Python's statistics.quantiles(xs, n=4)
// takes them (the exclusive method), which is what the driver uses.
func relSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
