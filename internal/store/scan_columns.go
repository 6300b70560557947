package store

import (
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
)

// The columnar read path. Scan materializes an Entry per match — a body
// string allocation and a 100-odd-byte struct copy per record — which
// aggregation immediately boils back down to counts and timestamps.
// ScanColumns serves the same filters without materializing or even
// decoding anything: sealed segments are walked over their column
// projection (projection.go, built once per segment on first walk; see
// segment.walk) and folded into per-segment SegmentColumns —
// dictionary-ordinal count arrays plus a contiguous timestamp slab —
// while the unsealed tail, which has no columnar form, is handed over
// entry by entry. The query engine turns a ColumnVisitor into a
// mergeable Partial in one pass.

var mScanColumnsSegments = obs.Default.Counter("store_scan_columns_segments_total")

// SegmentColumns is one sealed segment's matched records in columnar
// form. Counts are keyed by dictionary ordinal (SrcCounts[i] counts
// matches of Sources[i]) or by raw severity value (SevCounts[v] counts
// matches with Severity v). Times is the matched timestamp column in
// canonical segment order — nondecreasing Unix nanos. The dictionary
// slices are shared with the segment and must not be mutated.
type SegmentColumns struct {
	System     logrec.System
	Sources    []string
	Categories []string

	Matched   int
	Kept      int
	SrcCounts []int
	CatCounts []int
	SevCounts []int
	Times     []int64
}

// ColumnVisitor consumes one columnar scan. SealedColumns is called
// once per scanned segment with at least one match — the SegmentColumns
// is only valid for the duration of the call (its backing arrays are
// not retained by the store, but visitors must copy anything they keep
// beyond the callback, Times included). TailEntry is called once per
// matching unsealed-tail entry, after all segments.
type ColumnVisitor interface {
	SealedColumns(sc *SegmentColumns) error
	TailEntry(en Entry) error
}

// newSegmentColumns sizes a columnar accumulator for one segment.
func newSegmentColumns(g *segment) *SegmentColumns {
	return &SegmentColumns{
		System:     g.sys,
		Sources:    g.sources,
		Categories: g.categories,
		SrcCounts:  make([]int, len(g.sources)),
		CatCounts:  make([]int, len(g.categories)),
		SevCounts:  make([]int, int(g.maxSev)+1),
	}
}

// ScanColumns streams every entry matching f to v in columnar form:
// sealed segments first (in seal order, each folded to a
// SegmentColumns), then the unsealed tail entry by entry. Any filter is
// served, a body predicate included: segment.walk compares the body
// bytes in place, so nothing is materialized for it either. The
// returned stats are identical to what Scan reports for the same filter
// against the same content — the two share Store.scan and segment.walk.
func (s *Store) ScanColumns(f Filter, v ColumnVisitor) (ScanStats, error) {
	sp := obs.Default.StartSpan("store_scan_columns")
	defer sp.End()
	return s.scan(f, mScanColumnsSegments, func(g *segment, st *ScanStats, _ *int64) error {
		sc := newSegmentColumns(g)
		if err := g.scanColumns(f, st, sc); err != nil {
			return err
		}
		if sc.Matched == 0 {
			return nil
		}
		return v.SealedColumns(sc)
	}, v.TailEntry)
}
