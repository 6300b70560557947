package stats

import (
	"math"
)

// LogHistogram bins a positive-valued sample by log10, the view used in
// Figures 5(b) and 6 ("The log distribution of interarrival times").
// Values ≤ minPositive (including the zero gaps produced by one-second
// timestamps) are collected in the Zero bucket.
type LogHistogram struct {
	// MinExp is the exponent of the first bin; BinsPerDecade subdivides
	// each decade.
	MinExp        int
	BinsPerDecade int
	Counts        []int
	Zero          int
	Over          int
	maxExp        int
	// lo is 10^MinExp: smaller values count as Zero.
	lo float64
}

// NewLogHistogram bins xs into log10 buckets covering [10^minExp,
// 10^maxExp) with binsPerDecade bins per decade.
func NewLogHistogram(xs []float64, minExp, maxExp, binsPerDecade int) *LogHistogram {
	if maxExp <= minExp || binsPerDecade <= 0 {
		return &LogHistogram{MinExp: minExp, BinsPerDecade: 1, Counts: nil, maxExp: minExp}
	}
	n := (maxExp - minExp) * binsPerDecade
	h := &LogHistogram{MinExp: minExp, BinsPerDecade: binsPerDecade, Counts: make([]int, n), maxExp: maxExp,
		lo: math.Pow(10, float64(minExp))}
	for _, x := range xs {
		h.Add(x, 1)
	}
	return h
}

// Add counts k more occurrences of x — one bin lookup however large k
// is, which is what a caller holding a sorted sample with runs of equal
// values saves. A histogram over an empty exponent range counts
// nothing.
func (h *LogHistogram) Add(x float64, k int) {
	n := len(h.Counts)
	if n == 0 {
		return
	}
	if x < h.lo {
		h.Zero += k
		return
	}
	i := int((math.Log10(x) - float64(h.MinExp)) * float64(h.BinsPerDecade))
	if i >= n {
		h.Over += k
		return
	}
	if i < 0 {
		i = 0
	}
	h.Counts[i] += k
}

// BinCenter returns the geometric center (in the original scale) of bin i.
func (h *LogHistogram) BinCenter(i int) float64 {
	exp := float64(h.MinExp) + (float64(i)+0.5)/float64(h.BinsPerDecade)
	return math.Pow(10, exp)
}

// Modes counts the local maxima of the histogram after a moving-average
// smoothing of the given half-width, ignoring peaks below minFrac of the
// tallest peak. This is how the harness distinguishes the bimodal BG/L
// distribution of Figure 6(a) from the unimodal Spirit distribution of
// Figure 6(b).
func (h *LogHistogram) Modes(smoothHalfWidth int, minFrac float64) int {
	sm := smooth(h.Counts, smoothHalfWidth)
	if len(sm) == 0 {
		return 0
	}
	peak := 0.0
	for _, v := range sm {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		return 0
	}
	modes := 0
	for i := range sm {
		if sm[i] < minFrac*peak {
			continue
		}
		left := i == 0 || sm[i] > sm[i-1]
		right := i == len(sm)-1 || sm[i] >= sm[i+1]
		// Require a strict rise on at least one side so plateaus count
		// once: credit the first index of a plateau.
		if left && right {
			if i > 0 && sm[i] == sm[i-1] {
				continue
			}
			modes++
		}
	}
	return modes
}

// smooth applies a centered moving average of half-width w.
func smooth(counts []int, w int) []float64 {
	out := make([]float64, len(counts))
	for i := range counts {
		lo := i - w
		if lo < 0 {
			lo = 0
		}
		hi := i + w
		if hi >= len(counts) {
			hi = len(counts) - 1
		}
		sum := 0
		for j := lo; j <= hi; j++ {
			sum += counts[j]
		}
		out[i] = float64(sum) / float64(hi-lo+1)
	}
	return out
}
