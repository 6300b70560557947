// Package query is the engine over the alert store (internal/store): it
// plans time-range + predicate scans and computes the paper's Section 4
// aggregations server-side — counts and category/type/severity mixes,
// top-k sources (Figure 2(b)), interarrival statistics and log-bucketed
// histograms with quantiles (Figures 5 and 6, via internal/stats), and
// the filter-reduction ratio of Algorithm 3.1 (Table 2).
//
// The store is an optimization, never a semantics change: every
// aggregation is a pure function over the matched entry set
// (Aggregate), so the result of serving a query from segments is
// byte-identical to computing the same function over the in-memory
// batch pipeline's output on the same records. The differential tests
// in cmd/logstudy pin that equivalence.
package query

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/store"
)

// DefaultTopK is the top-sources list length when a request does not
// choose one.
const DefaultTopK = 10

// DefaultQuantiles are the interarrival quantiles reported when a
// request does not choose its own.
var DefaultQuantiles = []float64{0.5, 0.9, 0.99}

// Interarrival log-histogram shape, matching core.Figure6 so a served
// histogram lines up with the batch figure: decades 10^0..10^7 seconds,
// two bins per decade.
const (
	logHistMinExp        = 0
	logHistMaxExp        = 7
	logHistBinsPerDecade = 2
)

// Scanner is the store surface the engine needs: the row scan select
// materializes from, the columnar scan every aggregate folds, and the
// content fingerprint the cache keys by. *store.Store satisfies it; so
// do the shard router's fault-injectable backends, which is how the
// scatter-gather tier reuses this engine per shard.
type Scanner interface {
	Scan(f store.Filter, fn func(store.Entry) error) (store.ScanStats, error)
	ScanColumns(f store.Filter, v store.ColumnVisitor) (store.ScanStats, error)
	Fingerprint() uint64
}

// Engine executes queries against one store. The zero value (plus a
// Store) works; EnableCache opts in to the aggregate-result cache.
type Engine struct {
	Store Scanner

	// cache, when non-nil, memoizes Aggregate results keyed by the
	// store fingerprint, filter, and options (see cache.go).
	cache *Cache
}

// Select returns the entries matching f in canonical (time, sequence)
// order, truncated to limit when limit > 0, with the scan's work stats.
func (e *Engine) Select(f store.Filter, limit int) ([]store.Entry, store.ScanStats, error) {
	return e.SelectContext(context.Background(), f, limit)
}

// SelectContext is Select with cooperative cancellation: the scan
// checks ctx between entries and aborts with ctx.Err() once the request
// deadline passes, so a stalled client (or a fault-injected stall)
// cannot pin the scanning goroutine past its budget.
//
// It is a bounded, time-ordered read: the collector holds at most limit
// entries and, once full, refuses anything later than the worst it
// holds with store.ErrPastBound, so the scan stops at the first segment
// that cannot contribute. The returned stats are the work actually
// done.
func (e *Engine) SelectContext(ctx context.Context, f store.Filter, limit int) ([]store.Entry, store.ScanStats, error) {
	c := firstK{ctx: ctx, k: limit, held: make([]heldEntry, 0, min(max(limit, 0), firstKPrealloc))}
	st, err := e.Store.Scan(f, c.offer)
	if err != nil {
		return nil, st, err
	}
	// No post-scan ctx re-check: if the scan itself never observed
	// cancellation, the result is complete — a deadline that lapsed
	// between the last entry and this return must not discard finished
	// work (or, in the sharded path, charge a completed shard answer as
	// a failure). The strided poll in offer is the only abort point.
	return c.sorted(), st, nil
}

// Aggregate scans the entries matching f and folds them into the
// standard aggregation. With the cache enabled, a repeat of a recent
// (filter, options) pair against an unmutated store is served without
// scanning — byte-identical to the scanned answer, because the cached
// fingerprint pins the exact entry set the scan would see.
func (e *Engine) Aggregate(f store.Filter, opts AggregateOptions) (Aggregation, store.ScanStats, error) {
	return e.AggregateContext(context.Background(), f, opts)
}

// AggregateContext is Aggregate with cooperative cancellation (see
// SelectContext). Cache hits are served regardless of the deadline —
// they do no scanning.
func (e *Engine) AggregateContext(ctx context.Context, f store.Filter, opts AggregateOptions) (Aggregation, store.ScanStats, error) {
	var key string
	if e.cache != nil {
		key = Key(e.Store.Fingerprint(), f, opts)
		if agg, st, ok := e.cache.Get(key); ok {
			return agg, st, nil
		}
	}
	p, st, err := e.partial(ctx, f)
	if err != nil {
		return Aggregation{}, st, err
	}
	agg := MergePartials([]Partial{p}, opts)
	if e.cache != nil {
		e.cache.Put(key, agg, st)
	}
	return agg, st, nil
}

// PartialContext scans the entries matching f and folds them into the
// mergeable Partial form — the per-shard half of a scatter-gather
// aggregate. The shard router merges these with MergePartials.
func (e *Engine) PartialContext(ctx context.Context, f store.Filter) (Partial, store.ScanStats, error) {
	return e.partial(ctx, f)
}

// partial computes the Partial for f in one columnar scan: sealed
// segments fold per distinct dictionary value, the tail per entry (see
// partialBuilder). A scan that completed without observing cancellation
// returns its finished result even if the deadline lapsed on the way
// out, as in SelectContext.
func (e *Engine) partial(ctx context.Context, f store.Filter) (Partial, store.ScanStats, error) {
	b := partialBuilder{ctx: ctx, p: newPartial()}
	st, err := e.Store.ScanColumns(f, &b)
	if err != nil {
		return Partial{}, st, err
	}
	// Segment columns arrive in seal order and may interleave in time
	// with one another and the tail; restore the nondecreasing order the
	// Partial contract promises. Counts are order-independent, so this
	// sort is the only order-sensitive step.
	slices.Sort(b.p.Times)
	return b.p, st, nil
}

// firstK is select's one collector: the first k matches in canonical
// order (k <= 0: every match). Segments are each internally sorted but
// may interleave in time with one another and with the unsealed tail,
// so order is restored by one sort at the end; with k > 0 what is held
// until then is a max-heap on cmpHeld, whose root is the worst entry
// still in the answer. The scan polls ctx between entries (every
// ctxCheckStride, to keep the common case branch-cheap) and aborts once
// it is done.
type firstK struct {
	ctx  context.Context
	k    int
	seen int
	held []heldEntry
}

// heldEntry is a collected match plus its arrival ordinal: entries tied
// on (time, seq) keep scan order, exactly as a stable sort of every
// match would.
type heldEntry struct {
	en  store.Entry
	ord int
}

// firstKPrealloc caps the collector's initial capacity: limit comes off
// the URL unbounded, so it must not size an allocation by itself.
const firstKPrealloc = 64

// cmpHeld is canonical (time, seq) order, then arrival order.
func cmpHeld(a, b heldEntry) int {
	switch {
	case a.en.Record.Before(&b.en.Record):
		return -1
	case b.en.Record.Before(&a.en.Record):
		return 1
	}
	return cmp.Compare(a.ord, b.ord)
}

// offer is the Scan callback. Once k entries are held, an entry
// strictly later than the worst of them can never enter the answer, nor
// can anything after it in its segment: it is refused with
// store.ErrPastBound, which stops the scan's walk there. An entry at the
// worst's exact time still competes on seq.
func (c *firstK) offer(en store.Entry) error {
	if c.seen++; c.seen%ctxCheckStride == 0 {
		if err := c.ctx.Err(); err != nil {
			return fmt.Errorf("query: scan aborted: %w", err)
		}
	}
	h := heldEntry{en: en, ord: c.seen}
	if c.k <= 0 {
		c.held = append(c.held, h)
		return nil
	}
	if len(c.held) < c.k {
		c.held = append(c.held, h)
		c.siftUp(len(c.held) - 1)
		return nil
	}
	if en.Record.Time.After(c.held[0].en.Record.Time) {
		return store.ErrPastBound
	}
	if cmpHeld(h, c.held[0]) < 0 {
		c.held[0] = h
		c.siftDown(0)
	}
	return nil
}

func (c *firstK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if cmpHeld(c.held[i], c.held[parent]) <= 0 {
			return
		}
		c.held[i], c.held[parent] = c.held[parent], c.held[i]
		i = parent
	}
}

func (c *firstK) siftDown(i int) {
	for {
		worst := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < len(c.held) && cmpHeld(c.held[child], c.held[worst]) > 0 {
				worst = child
			}
		}
		if worst == i {
			return
		}
		c.held[i], c.held[worst] = c.held[worst], c.held[i]
		i = worst
	}
}

// sorted returns what the collector holds in canonical order.
func (c *firstK) sorted() []store.Entry {
	slices.SortFunc(c.held, cmpHeld)
	out := make([]store.Entry, len(c.held))
	for i, h := range c.held {
		out[i] = h.en
	}
	return out
}

// ctxCheckStride is how many matched entries a scan processes between
// context polls: rare enough to stay off the profile, frequent enough
// that a deadline cuts a runaway scan short within microseconds.
const ctxCheckStride = 512

// AggregateOptions shape the aggregation output.
type AggregateOptions struct {
	// TopK bounds the top-sources list (default DefaultTopK).
	TopK int
	// Quantiles are the interarrival quantiles to report, each in
	// (0, 1] (default DefaultQuantiles).
	Quantiles []float64
}

// Normalize resolves the options' defaults and scrubs invalid
// quantiles, returning the canonical options every consumer computes
// under: TopK <= 0 becomes DefaultTopK; quantiles that are NaN,
// infinite, nonpositive, or above 1 are dropped and the survivors
// sorted ascending; an empty survivor list falls back to
// DefaultQuantiles. Both the answer (MergePartials) and the cache key
// normalize through here, so two option values that normalize equal are
// guaranteed to produce byte-identical aggregations — the invariant
// that keeps the cache from storing one answer under many keys.
func (o AggregateOptions) Normalize() AggregateOptions {
	n := AggregateOptions{TopK: o.TopK}
	if n.TopK <= 0 {
		n.TopK = DefaultTopK
	}
	for _, q := range o.Quantiles {
		if math.IsNaN(q) || math.IsInf(q, 0) || q <= 0 || q > 1 {
			continue
		}
		n.Quantiles = append(n.Quantiles, q)
	}
	if len(n.Quantiles) == 0 {
		n.Quantiles = append([]float64(nil), DefaultQuantiles...)
	} else if !sort.Float64sAreSorted(n.Quantiles) {
		sort.Float64s(n.Quantiles)
	}
	return n
}

// ValidateQuantiles checks a request's quantile list strictly: every
// value must be finite and in (0, 1], and the list must be strictly
// increasing. The HTTP layer calls it to reject malformed requests with
// a 400 and a detail message instead of letting them poison answers and
// cache entries; Normalize is the lenient library-side counterpart that
// scrubs rather than rejects.
func ValidateQuantiles(qs []float64) error {
	for i, q := range qs {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("quantile %d is not a finite number", i)
		}
		if q <= 0 || q > 1 {
			return fmt.Errorf("quantile %g out of range: must be in (0, 1]", q)
		}
		if i > 0 && q <= qs[i-1] {
			return fmt.Errorf("quantiles must be strictly increasing: %g after %g", q, qs[i-1])
		}
	}
	return nil
}

// SourceCount is one row of the top-sources ranking.
type SourceCount struct {
	Source string `json:"source"`
	Count  int    `json:"count"`
}

// QuantileValue is one reported interarrival quantile.
type QuantileValue struct {
	Q   float64 `json:"q"`
	Sec float64 `json:"sec"`
}

// LogHist is the serialized log-bucketed interarrival histogram
// (stats.LogHistogram, shaped like Figure 6).
type LogHist struct {
	MinExp        int   `json:"min_exp"`
	BinsPerDecade int   `json:"bins_per_decade"`
	Counts        []int `json:"counts"`
	Zero          int   `json:"zero"`
	Over          int   `json:"over"`
}

// Interarrival summarizes the gaps between successive matched entries,
// in seconds.
type Interarrival struct {
	Count     int             `json:"count"`
	MeanSec   float64         `json:"mean_sec"`
	StddevSec float64         `json:"stddev_sec"`
	MinSec    float64         `json:"min_sec"`
	MaxSec    float64         `json:"max_sec"`
	Quantiles []QuantileValue `json:"quantiles"`
	LogHist   *LogHist        `json:"log_hist,omitempty"`
}

// Aggregation is the standard server-side aggregation over a matched,
// canonically ordered entry set. JSON encoding is deterministic (maps
// marshal with sorted keys), which is what lets the differential tests
// demand byte equality with the batch pipeline.
type Aggregation struct {
	// Total, Kept, Removed count the matched entries and their
	// Algorithm 3.1 fate; ReductionRatio is Removed/Total (Table 2's
	// "after filtering" story for the matched slice).
	Total          int     `json:"total"`
	Kept           int     `json:"kept"`
	Removed        int     `json:"removed"`
	ReductionRatio float64 `json:"reduction_ratio"`
	// Categories is the distinct category count (Table 2's "Categories"
	// column for the matched slice).
	Categories int `json:"categories"`
	// ByCategory, ByType, BySeverity are the count mixes (Tables 3-6).
	ByCategory map[string]int `json:"by_category"`
	ByType     map[string]int `json:"by_type"`
	BySeverity map[string]int `json:"by_severity"`
	// TopSources ranks reporting sources by matched count (Figure 2(b)).
	TopSources []SourceCount `json:"top_sources"`
	// Interarrival covers the gaps between successive matched entries
	// (Figures 5 and 6). Nil when fewer than two entries matched.
	Interarrival *Interarrival `json:"interarrival,omitempty"`
}

// Aggregate folds a canonically ordered entry set into the standard
// aggregation. It is a pure function and the row-form reference: the
// differential tests call it on selected entries, or on entries
// converted straight from the batch pipeline, and the engine's columnar
// answer must agree with it byte-for-byte.
//
// It is implemented as the one-partial merge over PartialOf, so it ends
// in the same MergePartials — accumulation and ranking — as every
// served answer, single-node or gathered across shards.
func Aggregate(entries []store.Entry, opts AggregateOptions) Aggregation {
	return MergePartials([]Partial{PartialOf(entries)}, opts)
}

// typeCodeOf maps a category of sys to its H/S/I code via the catalog,
// or "?" for ad-hoc categories the catalog does not know. The columnar
// fold calls it once per distinct category, not per record.
func typeCodeOf(sys logrec.System, category string) string {
	if c, ok := catalog.Lookup(sys, category); ok {
		return c.Type.Code()
	}
	return "?"
}

// topSources ranks sources by count (descending), breaking ties by
// name so the ranking is deterministic.
func topSources(counts map[string]int, k int) []SourceCount {
	out := make([]SourceCount, 0, len(counts))
	for s, n := range counts {
		out = append(out, SourceCount{Source: s, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Source < out[j].Source
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
