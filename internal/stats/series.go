package stats

import (
	"math"
	"sort"
	"time"
)

// BucketCounts buckets event times into fixed intervals over [start, end),
// the view of Figure 2(a) ("The number of messages, bucketed by hour").
// Events outside the window are ignored.
func BucketCounts(times []time.Time, start, end time.Time, width time.Duration) []int {
	if width <= 0 || !start.Before(end) {
		return nil
	}
	n := int(end.Sub(start) / width)
	if end.Sub(start)%width != 0 {
		n++
	}
	counts := make([]int, n)
	for _, t := range times {
		if t.Before(start) || !t.Before(end) {
			continue
		}
		counts[int(t.Sub(start)/width)]++
	}
	return counts
}

// SourceCount pairs a source with its message count.
type SourceCount struct {
	Source string
	Count  int
}

// RankSources tallies counts per source and returns them sorted in
// descending count (ties by name), the ordering of Figure 2(b).
func RankSources(sources []string) []SourceCount {
	tally := make(map[string]int)
	for _, s := range sources {
		tally[s]++
	}
	out := make([]SourceCount, 0, len(tally))
	for s, c := range tally {
		out = append(out, SourceCount{Source: s, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Source < out[j].Source
	})
	return out
}

// ChangePoint is one detected shift in a count series.
type ChangePoint struct {
	// Index is the bucket at which the new regime begins.
	Index int
	// Before and After are the mean levels on each side.
	Before, After float64
	// Score is the normalized two-sample t-like statistic of the split.
	Score float64
}

// DetectChangePoints finds up to maxPoints abrupt level shifts in a count
// series by recursive binary segmentation: each step picks the split that
// maximizes the standardized mean difference, and recurses into both
// halves while the score stays at or above minScore. This recovers the
// regime shifts of Figure 2(a) — the paper's example is the Liberty OS
// upgrade that "instantaneously increased the average message traffic".
// Results are sorted by index.
func DetectChangePoints(counts []int, maxPoints int, minScore float64) []ChangePoint {
	xs := make([]float64, len(counts))
	for i, c := range counts {
		xs[i] = float64(c)
	}
	var out []ChangePoint
	segment(xs, 0, &out, maxPoints, minScore)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// segment recursively splits xs (which begins at absolute offset off).
func segment(xs []float64, off int, out *[]ChangePoint, budget int, minScore float64) {
	if budget <= 0 || len(*out) >= budget {
		return
	}
	cp, ok := bestSplit(xs, minScore)
	if !ok {
		return
	}
	cp.Index += off
	*out = append(*out, cp)
	local := cp.Index - off
	segment(xs[:local], off, out, budget, minScore)
	segment(xs[local:], cp.Index, out, budget, minScore)
}

// minSegment is the smallest segment length considered on each side of a
// split; splits closer to an edge are noise at hourly resolution.
const minSegment = 8

// bestSplit finds the single best split of xs, if any scores at least
// minScore.
func bestSplit(xs []float64, minScore float64) (ChangePoint, bool) {
	n := len(xs)
	if n < 2*minSegment {
		return ChangePoint{}, false
	}
	// Prefix sums for O(1) segment means.
	prefix := make([]float64, n+1)
	prefixSq := make([]float64, n+1)
	for i, x := range xs {
		prefix[i+1] = prefix[i] + x
		prefixSq[i+1] = prefixSq[i] + x*x
	}
	best := ChangePoint{}
	found := false
	for k := minSegment; k <= n-minSegment; k++ {
		nl, nr := float64(k), float64(n-k)
		ml := prefix[k] / nl
		mr := (prefix[n] - prefix[k]) / nr
		vl := prefixSq[k]/nl - ml*ml
		vr := (prefixSq[n]-prefixSq[k])/nr - mr*mr
		se := math.Sqrt(vl/nl + vr/nr)
		if se == 0 {
			if ml == mr {
				continue
			}
			se = 1e-9
		}
		score := math.Abs(ml-mr) / se
		if score >= minScore && (!found || score > best.Score) {
			best = ChangePoint{Index: k, Before: ml, After: mr, Score: score}
			found = true
		}
	}
	return best, found
}

// PearsonCorrelation returns the Pearson correlation coefficient of two
// equal-length series (0 when degenerate).
func PearsonCorrelation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// CorrelateEventSeries bins two event-time sequences over a common window
// and returns their Pearson correlation — the quantitative form of the
// Figure 3 observation that GM_PAR and GM_LANAI "do not always follow"
// each other "but the correlation is clear".
func CorrelateEventSeries(a, b []time.Time, start, end time.Time, width time.Duration) float64 {
	ca := BucketCounts(a, start, end, width)
	cb := BucketCounts(b, start, end, width)
	fa := make([]float64, len(ca))
	fb := make([]float64, len(cb))
	for i := range ca {
		fa[i] = float64(ca[i])
	}
	for i := range cb {
		fb[i] = float64(cb[i])
	}
	return PearsonCorrelation(fa, fb)
}
