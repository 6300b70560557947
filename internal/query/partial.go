package query

import (
	"slices"
	"time"

	"whatsupersay/internal/stats"
	"whatsupersay/internal/store"
)

// Partial is the mergeable form of an aggregation: everything the
// standard Aggregation needs, carried in a representation that combines
// associatively across disjoint entry sets. It is how the shard router
// computes a cluster-wide /api/aggregate — each shard folds its matched
// entries into a Partial, and MergePartials reassembles the exact
// Aggregation a single store holding the union would have produced.
//
// The pieces split two ways. Counts and the category/type/severity/
// source mixes are plain sums. The interarrival statistics are *not*
// associative over per-shard gap lists — gaps between successive
// entries cross shard boundaries once sets interleave in time — so a
// Partial carries the matched entries' timestamps instead (8 bytes
// each, nondecreasing); the merge re-interleaves the timestamp columns
// and computes the gap statistics over the combined sequence, which is
// exactly the sequence a union scan would have seen. Equal timestamps
// may merge in either order without affecting any statistic: the merged
// value sequence is unique regardless of tie order.
type Partial struct {
	Total      int            `json:"total"`
	Kept       int            `json:"kept"`
	ByCategory map[string]int `json:"by_category"`
	ByType     map[string]int `json:"by_type"`
	BySeverity map[string]int `json:"by_severity"`
	// BySource is the full per-source count map, not a truncated top-k:
	// top-k is the one mix that cannot be merged after truncation (a
	// source just below every shard's cutoff can belong in the union's
	// top-k), so ranking waits until the merge.
	BySource map[string]int `json:"by_source"`
	// Times are the matched entries' timestamps in canonical scan order
	// (nondecreasing), as Unix nanoseconds.
	Times []int64 `json:"times"`
}

// newPartial is the empty Partial, count maps ready to increment.
func newPartial() Partial {
	return Partial{
		ByCategory: map[string]int{},
		ByType:     map[string]int{},
		BySeverity: map[string]int{},
		BySource:   map[string]int{},
	}
}

// PartialOf folds a canonically ordered entry set into its Partial, row
// by row: the reference the columnar fold (addColumns) is pinned to. MergePartials of the result alone reproduces Aggregate(entries,
// opts) byte for byte — Aggregate is implemented that way.
func PartialOf(entries []store.Entry) Partial {
	p := newPartial()
	p.Total = len(entries)
	if len(entries) > 0 {
		p.Times = make([]int64, 0, len(entries))
	}
	for _, en := range entries {
		if en.Kept {
			p.Kept++
		}
		p.ByCategory[en.Category]++
		p.ByType[typeCodeOf(en.Record.System, en.Category)]++
		p.BySeverity[en.Record.Severity.String()]++
		p.BySource[en.Record.Source]++
		p.Times = append(p.Times, en.Record.Time.UnixNano())
	}
	return p
}

// MergePartials combines disjoint partials into the standard
// Aggregation — the same value Aggregate would compute over the
// concatenated, canonically re-sorted entry sets.
func MergePartials(parts []Partial, opts AggregateOptions) Aggregation {
	// Normalize defensively: defaults applied, malformed quantiles
	// (NaN, out of (0, 1], unsorted) scrubbed — the same normalization
	// the cache key uses, so key-equal options always compute
	// byte-identical answers.
	opts = opts.Normalize()
	topK := opts.TopK
	quantiles := opts.Quantiles

	agg := Aggregation{
		ByCategory: map[string]int{},
		ByType:     map[string]int{},
		BySeverity: map[string]int{},
	}
	bySource := map[string]int{}
	var n int
	for _, p := range parts {
		n += len(p.Times)
	}
	times := make([]int64, 0, n)
	for _, p := range parts {
		agg.Total += p.Total
		agg.Kept += p.Kept
		addCounts(agg.ByCategory, p.ByCategory)
		addCounts(agg.ByType, p.ByType)
		addCounts(agg.BySeverity, p.BySeverity)
		addCounts(bySource, p.BySource)
		times = append(times, p.Times...)
	}
	agg.Removed = agg.Total - agg.Kept
	if agg.Total > 0 {
		agg.ReductionRatio = float64(agg.Removed) / float64(agg.Total)
	}
	agg.Categories = len(agg.ByCategory)
	agg.TopSources = topSources(bySource, topK)

	// Each input column is already nondecreasing; sorting the
	// concatenation is the k-way merge.
	slices.Sort(times)
	agg.Interarrival = interarrivalNanos(times, quantiles)
	return agg
}

func addCounts(dst, src map[string]int) {
	for k, v := range src {
		dst[k] += v
	}
}

// interarrivalNanos summarizes the gaps of a nondecreasing timestamp
// column, in seconds. The gaps are int64 nanoseconds, sorted once (a
// copy: mean and variance keep their summation order over the gaps in
// time order). time.Duration.Seconds is monotone, so min, max and every
// quantile are read off that one sort through stats.SortedPercentile,
// and the log-histogram takes one bin lookup per run of equal gaps —
// every value bit-identical to summarizing the gap seconds directly.
// time.Duration(b-a).Seconds() is exactly what stats.Interarrivals
// computes for the equivalent time.Time pair.
func interarrivalNanos(nanos []int64, quantiles []float64) *Interarrival {
	if len(nanos) < 2 {
		return nil
	}
	n := len(nanos) - 1
	gaps := make([]int64, n)
	secs := make([]float64, n)
	for i := range gaps {
		gaps[i] = nanos[i+1] - nanos[i]
		secs[i] = time.Duration(gaps[i]).Seconds()
	}
	slices.Sort(gaps)
	sec := func(i int) float64 { return time.Duration(gaps[i]).Seconds() }
	ia := &Interarrival{
		Count:     n,
		MeanSec:   stats.Mean(secs),
		StddevSec: stats.StdDev(secs),
		MinSec:    sec(0),
		MaxSec:    sec(n - 1),
	}
	for _, q := range quantiles {
		ia.Quantiles = append(ia.Quantiles, QuantileValue{Q: q, Sec: stats.SortedPercentile(n, sec, q*100)})
	}
	h := stats.NewLogHistogram(nil, logHistMinExp, logHistMaxExp, logHistBinsPerDecade)
	for i := 0; i < n; {
		j := i + 1
		for j < n && gaps[j] == gaps[i] {
			j++
		}
		h.Add(sec(i), j-i)
		i = j
	}
	ia.LogHist = &LogHist{
		MinExp:        h.MinExp,
		BinsPerDecade: h.BinsPerDecade,
		Counts:        h.Counts,
		Zero:          h.Zero,
		Over:          h.Over,
	}
	return ia
}
