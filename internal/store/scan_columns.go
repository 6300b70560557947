package store

import (
	"slices"

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
// and the unsealed tail, which has no projection, is folded into one
// more SegmentColumns with dictionaries of its own (FoldEntries). The
// query engine turns a ColumnVisitor into a mergeable Partial in one
// pass, and builds a standing view's delta from FoldEntries the same
// way.

var mScanColumnsSegments = obs.Default.Counter("store_scan_columns_segments_total")

// SegmentColumns is one set of matched records in columnar form: a
// sealed segment's, or the entries FoldEntries folded. Counts are keyed
// by dictionary ordinal (SrcCounts[i] counts matches of Sources[i]) or
// by raw severity value (SevCounts[v] counts matches with Severity v).
// Times is the matched timestamp column, nondecreasing Unix nanos. A
// segment's dictionary slices are shared with the segment and must not
// be mutated.
type SegmentColumns struct {
	// Segment names the sealed segment the columns came from; it is
	// empty for columns folded from entries (the unsealed tail).
	Segment    string
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
// once per scanned segment with at least one match, then once for the
// unsealed tail if any of it matched — the SegmentColumns is only valid
// for the duration of the call (visitors must copy anything they keep
// beyond the callback, Times included).
type ColumnVisitor interface {
	SealedColumns(sc *SegmentColumns) error
}

// newSegmentColumns sizes a columnar accumulator for one segment.
func newSegmentColumns(g *segment) *SegmentColumns {
	return &SegmentColumns{
		Segment:    g.name,
		System:     g.sys,
		Sources:    g.sources,
		Categories: g.categories,
		SrcCounts:  make([]int, len(g.sources)),
		CatCounts:  make([]int, len(g.categories)),
		SevCounts:  make([]int, int(g.maxSev)+1),
	}
}

// FoldEntries folds the entries matching f into a SegmentColumns whose
// dictionaries are its own, numbered in first-match order: the columnar
// form of entries no segment holds — the unsealed tail, or an appended
// batch. Times come out sorted, as a segment's do. The entries are one
// store's, so they share its system, which System is read from.
func FoldEntries(f Filter, entries []Entry) *SegmentColumns {
	sc := &SegmentColumns{}
	var srcD, catD dict
	for i := range entries {
		en := &entries[i]
		if !f.match(en) {
			continue
		}
		sc.System = en.Record.System
		sc.Matched++
		if en.Kept {
			sc.Kept++
		}
		sc.SrcCounts = countAt(sc.SrcCounts, int(srcD.id(en.Record.Source)))
		sc.CatCounts = countAt(sc.CatCounts, int(catD.id(en.Category)))
		sc.SevCounts = countAt(sc.SevCounts, int(en.Record.Severity))
		sc.Times = append(sc.Times, en.Record.Time.UnixNano())
	}
	sc.Sources, sc.Categories = srcD.vals, catD.vals
	slices.Sort(sc.Times)
	return sc
}

// countAt increments counts[i], growing counts to reach it. Severities
// are at most a byte (Append refuses wider ones), so no count array
// grows far.
func countAt(counts []int, i int) []int {
	for i >= len(counts) {
		counts = append(counts, 0)
	}
	counts[i]++
	return counts
}

// ScanColumns streams every entry matching f to v in columnar form:
// sealed segments first (in seal order, each folded to a
// SegmentColumns), then the unsealed tail, folded by FoldEntries. Any
// filter is served, a body predicate included: segment.walk compares the
// body bytes in place, so nothing is materialized for it either. The
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
	}, func(tail []Entry, st *ScanStats, _ int64) error {
		// No SealedColumns refusal lowers the bound, so it never prunes
		// the tail here.
		sc := FoldEntries(f, tail)
		if sc.Matched == 0 {
			return nil
		}
		st.Matched += sc.Matched
		return v.SealedColumns(sc)
	})
}
