// Package stats implements the statistical machinery of Section 4:
// interarrival extraction, linear and logarithmic histograms, exponential
// and lognormal maximum-likelihood fits with goodness-of-fit tests (the
// paper fits these families and finds "heavy tails result in very poor
// statistical goodness-of-fit metrics"), time-series bucketing and
// change-point detection (Figure 2(a)'s regime shifts), per-source
// rankings (Figure 2(b)), and cross-category correlation (Figure 3).
package stats

import (
	"math"
	"sort"
	"time"
)

// Interarrivals returns the successive gaps of a time-sorted event
// sequence, in seconds. n events yield n-1 gaps; gaps of zero are
// preserved (they are common at one-second log granularity and are part
// of the story in Figure 6).
func Interarrivals(times []time.Time) []float64 {
	if len(times) < 2 {
		return nil
	}
	out := make([]float64, 0, len(times)-1)
	for i := 1; i < len(times); i++ {
		out = append(out, times[i].Sub(times[i-1]).Seconds())
	}
	return out
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for fewer than two
// points).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentiles returns the p-th percentile (0 ≤ p ≤ 100) of xs for each
// p in ps, by linear interpolation between order statistics — one
// copy-and-sort shared across all of them, so k quantiles of a large
// sample cost one sort, not k. xs is not modified.
func Percentiles(xs []float64, ps []float64) []float64 {
	if len(ps) == 0 {
		return nil
	}
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	at := func(i int) float64 { return s[i] }
	for i, p := range ps {
		out[i] = SortedPercentile(len(s), at, p)
	}
	return out
}

// SortedPercentile is the interpolation rule behind Percentiles, for a
// caller that already holds its sample in ascending order in some other
// form: the p-th percentile of the n > 0 values at(0) ≤ … ≤ at(n-1).
// Any monotone view of a sorted column qualifies — the query engine
// reads interarrival seconds off its sorted int64 nanosecond gaps.
func SortedPercentile(n int, at func(i int) float64, p float64) float64 {
	if p <= 0 {
		return at(0)
	}
	if p >= 100 {
		return at(n - 1)
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return at(lo)
	}
	frac := pos - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}
