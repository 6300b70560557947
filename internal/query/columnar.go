package query

import (
	"context"
	"fmt"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/store"
)

// The aggregate fold. Aggregate and Partial need only counts, mixes,
// and the timestamp column — none of which require materializing an
// Entry — so Engine.partial folds the store's SegmentColumns straight
// into a Partial: dictionary-ordinal counts become map increments per
// *distinct value* instead of per record, the catalog type lookup runs
// once per distinct category, and the timestamp slabs are concatenated
// and sorted once. Every filter is served this way, a message predicate
// included (the store compares body bytes in place). The row-decode
// composition Aggregate(Select(f, 0)) is what the differential tests
// pin it byte-identical to. The unsealed tail arrives as one more
// SegmentColumns (store.FoldEntries), and a standing view's delta is
// built by the same fold, so every Partial production builds comes out
// of addColumns.

// partialBuilder folds a columnar scan into a Partial. It implements
// store.ColumnVisitor.
type partialBuilder struct {
	ctx context.Context
	p   Partial
}

// SealedColumns folds one segment's (or the tail's) matched columns.
func (b *partialBuilder) SealedColumns(sc *store.SegmentColumns) error {
	// One cancellation poll per segment and one for the tail: a fold is
	// tens of microseconds, well under the deadline resolution anyone
	// sets.
	if err := b.ctx.Err(); err != nil {
		return fmt.Errorf("query: scan aborted: %w", err)
	}
	b.p.addColumns(sc)
	return nil
}

// addColumns folds matched columns into p: every count map is
// incremented once per distinct dictionary value, not once per record.
func (p *Partial) addColumns(sc *store.SegmentColumns) {
	p.Total += sc.Matched
	p.Kept += sc.Kept
	for i, n := range sc.SrcCounts {
		if n > 0 {
			p.BySource[sc.Sources[i]] += n
		}
	}
	for i, n := range sc.CatCounts {
		if n > 0 {
			cat := sc.Categories[i]
			p.ByCategory[cat] += n
			p.ByType[typeCodeOf(sc.System, cat)] += n
		}
	}
	for v, n := range sc.SevCounts {
		if n > 0 {
			p.BySeverity[logrec.Severity(v).String()] += n
		}
	}
	p.Times = append(p.Times, sc.Times...)
}
