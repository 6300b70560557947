package query

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/store"
)

// Tests for the options-normalization invariant (one canonical form
// feeds both the cache key and the merge, so key-equal options are
// guaranteed byte-identical answers), the strict request-side quantile
// validation, and the late-cancellation regression in select.

func TestNormalizeResolvesDefaultsAndScrubs(t *testing.T) {
	cases := []struct {
		name string
		in   AggregateOptions
		want AggregateOptions
	}{
		{"zero value", AggregateOptions{},
			AggregateOptions{TopK: DefaultTopK, Quantiles: DefaultQuantiles}},
		{"negative topk", AggregateOptions{TopK: -3},
			AggregateOptions{TopK: DefaultTopK, Quantiles: DefaultQuantiles}},
		{"explicit defaults unchanged", AggregateOptions{TopK: DefaultTopK, Quantiles: []float64{0.5, 0.9, 0.99}},
			AggregateOptions{TopK: DefaultTopK, Quantiles: DefaultQuantiles}},
		{"garbage quantiles scrubbed", AggregateOptions{TopK: 2, Quantiles: []float64{math.NaN(), -1, 0, 1.5, math.Inf(1), 0.7}},
			AggregateOptions{TopK: 2, Quantiles: []float64{0.7}}},
		{"all-garbage falls back", AggregateOptions{Quantiles: []float64{math.NaN(), 2}},
			AggregateOptions{TopK: DefaultTopK, Quantiles: DefaultQuantiles}},
		{"unsorted sorted", AggregateOptions{TopK: 1, Quantiles: []float64{0.9, 0.5}},
			AggregateOptions{TopK: 1, Quantiles: []float64{0.5, 0.9}}},
	}
	for _, tc := range cases {
		got := tc.in.Normalize()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Normalize(%+v) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
		// Normalize is idempotent: the canonical form maps to itself.
		if again := got.Normalize(); !reflect.DeepEqual(again, got) {
			t.Errorf("%s: Normalize not idempotent: %+v -> %+v", tc.name, got, again)
		}
	}
}

func TestValidateQuantilesStrict(t *testing.T) {
	bad := [][]float64{
		{math.NaN()},
		{math.Inf(1)},
		{math.Inf(-1)},
		{0},
		{-0.5},
		{1.0001},
		{0.9, 0.5}, // not increasing
		{0.5, 0.5}, // not strictly increasing
		{0.5, math.NaN()},
	}
	for _, qs := range bad {
		if err := ValidateQuantiles(qs); err == nil {
			t.Errorf("ValidateQuantiles(%v) accepted garbage", qs)
		}
	}
	good := [][]float64{
		nil,
		{0.5},
		{0.5, 0.9, 0.99},
		{1},
		{0.000001, 1},
	}
	for _, qs := range good {
		if err := ValidateQuantiles(qs); err != nil {
			t.Errorf("ValidateQuantiles(%v): %v", qs, err)
		}
	}
}

// TestCacheKeyNormalizesOptions pins the regression: option values that
// produce byte-identical answers (defaults spelled implicitly vs
// explicitly) must share one cache key, and genuinely different shapes
// must not.
func TestCacheKeyNormalizesOptions(t *testing.T) {
	f := store.Filter{Categories: []string{"KERNDTLB"}}
	base := Key(7, f, AggregateOptions{})
	same := []AggregateOptions{
		{TopK: DefaultTopK},
		{Quantiles: DefaultQuantiles},
		{TopK: DefaultTopK, Quantiles: []float64{0.5, 0.9, 0.99}},
		{TopK: -1, Quantiles: []float64{math.NaN()}}, // scrubs to defaults
	}
	for _, opts := range same {
		if Key(7, f, opts) != base {
			t.Errorf("Key(%+v) != Key(zero) — duplicate cache entries for one answer", opts)
		}
	}
	diff := []AggregateOptions{
		{TopK: 3},
		{Quantiles: []float64{0.5}},
		{TopK: DefaultTopK, Quantiles: []float64{0.5, 0.9}},
	}
	for _, opts := range diff {
		if Key(7, f, opts) == base {
			t.Errorf("Key(%+v) == Key(zero) — distinct answers share a key", opts)
		}
	}
	if Key(8, f, AggregateOptions{}) == base {
		t.Error("fingerprint not part of the key")
	}
}

// TestCacheSharesEntryAcrossEquivalentOptions drives the same property
// through the engine: implicit and explicit defaults hit one entry.
func TestCacheSharesEntryAcrossEquivalentOptions(t *testing.T) {
	st := openFixtureStore(t)
	eng := &Engine{Store: st}
	eng.EnableCache(8)
	forms := []AggregateOptions{
		{},
		{TopK: DefaultTopK},
		{Quantiles: append([]float64(nil), DefaultQuantiles...)},
		{TopK: DefaultTopK, Quantiles: append([]float64(nil), DefaultQuantiles...)},
	}
	var first []byte
	for i, opts := range forms {
		agg, _, err := eng.Aggregate(store.Filter{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := mustJSON(t, agg)
		if i == 0 {
			first = got
		} else if string(got) != string(first) {
			t.Fatalf("options form %d answer diverges:\n%s\n%s", i, got, first)
		}
	}
	if n := eng.CacheLen(); n != 1 {
		t.Fatalf("equivalent option spellings created %d cache entries, want 1", n)
	}
}

// cancelAtEndScanner wraps a store so that the deadline lapses at the
// instant a scan finishes: every segment and tail entry is delivered,
// then the context is canceled before control returns to the engine.
type cancelAtEndScanner struct {
	Scanner
	cancel context.CancelFunc
}

func (s cancelAtEndScanner) Scan(f store.Filter, fn func(store.Entry) error) (store.ScanStats, error) {
	st, err := s.Scanner.Scan(f, fn)
	s.cancel()
	return st, err
}

func (s cancelAtEndScanner) ScanColumns(f store.Filter, v store.ColumnVisitor) (store.ScanStats, error) {
	st, err := s.Scanner.ScanColumns(f, v)
	s.cancel()
	return st, err
}

// TestCompletedScanSurvivesLateCancellation is the regression test for
// the select-side late-cancel bug, on both scans the engine drives: a
// context that expires after the scan finished — it delivered its last
// segment and tail entry, or it ended through store.ErrPastBound — must
// not discard the finished work. Before the fix, a post-scan ctx.Err()
// re-check turned complete answers into errors — in the sharded path
// that charged healthy shards with failures and degraded whole
// responses right at the deadline boundary.
func TestCompletedScanSurvivesLateCancellation(t *testing.T) {
	entries := columnarCorpus(3 * ctxCheckStride)
	open := func(flushEvery int) *store.Store {
		t.Helper()
		st, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: flushEvery})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		if err := st.Append(entries...); err != nil {
			t.Fatal(err)
		}
		return st
	}
	// One sealed segment plus a tail longer than the poll stride.
	st := open(len(entries) - ctxCheckStride - 1)
	if len(st.Segments()) != 1 || st.TailLen() <= ctxCheckStride {
		t.Fatalf("fixture: %d segments, tail %d", len(st.Segments()), st.TailLen())
	}

	ctx, cancel := context.WithCancel(context.Background())
	eng := &Engine{Store: cancelAtEndScanner{Scanner: st, cancel: cancel}}
	got, stt, err := eng.SelectContext(ctx, store.Filter{}, 0)
	if err != nil {
		t.Fatalf("completed select discarded on late cancel: %v", err)
	}
	if len(got) != len(entries) || stt.Matched != len(entries) {
		t.Fatalf("select returned %d entries (stats %+v), want %d", len(got), stt, len(entries))
	}

	// The same for a select that ended through store.ErrPastBound: it
	// stopped early in the segment and skipped the whole (later) tail,
	// and its answer stands although ctx lapsed on the way out.
	ctx, cancel = context.WithCancel(context.Background())
	eng = &Engine{Store: cancelAtEndScanner{Scanner: st, cancel: cancel}}
	got, stt, err = eng.SelectContext(ctx, store.Filter{}, 10)
	if err != nil {
		t.Fatalf("completed bounded select discarded on late cancel: %v", err)
	}
	if ctx.Err() == nil || stt.Matched >= ctxCheckStride {
		t.Fatalf("the select did not stop early through the hooked scan (ctx %v, stats %+v)", ctx.Err(), stt)
	}
	if !reflect.DeepEqual(got, entries[:10]) {
		t.Fatalf("bounded late-cancel select returned %d entries, want the first 10", len(got))
	}

	ctx, cancel = context.WithCancel(context.Background())
	eng = &Engine{Store: cancelAtEndScanner{Scanner: st, cancel: cancel}}
	agg, _, err := eng.AggregateContext(ctx, store.Filter{}, AggregateOptions{})
	if err != nil {
		t.Fatalf("completed aggregate discarded on late cancel: %v", err)
	}
	if ctx.Err() == nil {
		t.Fatal("the aggregate did not go through the hooked scan")
	}
	want := Aggregate(entries, AggregateOptions{})
	if string(mustJSON(t, agg)) != string(mustJSON(t, want)) {
		t.Fatalf("late-cancel aggregate diverges:\n%s\n%s", mustJSON(t, agg), mustJSON(t, want))
	}

	// A cancellation the scan DOES observe still aborts: the select's
	// strided poll, the aggregate's per-segment poll, and — on a store
	// with nothing sealed — the aggregate's strided poll over the tail.
	doneCtx, doneCancel := context.WithCancel(context.Background())
	doneCancel()
	eng = &Engine{Store: st}
	for _, limit := range []int{0, ctxCheckStride + 1} { // unbounded, and bounded past the stride
		if _, _, err := eng.SelectContext(doneCtx, store.Filter{}, limit); !errors.Is(err, context.Canceled) {
			t.Fatalf("select (limit %d) ignored a mid-scan cancellation: %v", limit, err)
		}
	}
	if _, _, err := eng.AggregateContext(doneCtx, store.Filter{}, AggregateOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate ignored a cancellation at a segment boundary: %v", err)
	}
	tailOnly := open(len(entries) + 1)
	if len(tailOnly.Segments()) != 0 {
		t.Fatal("tail-only fixture sealed a segment")
	}
	if _, _, err := (&Engine{Store: tailOnly}).AggregateContext(doneCtx, store.Filter{}, AggregateOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate ignored a mid-tail cancellation: %v", err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
