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
// pin it byte-identical to.

// partialBuilder folds a columnar scan into a Partial. It implements
// store.ColumnVisitor.
type partialBuilder struct {
	ctx  context.Context
	p    Partial
	seen int
}

// SealedColumns folds one segment's matched columns: every count map is
// incremented once per distinct dictionary value, not once per record.
func (b *partialBuilder) SealedColumns(sc *store.SegmentColumns) error {
	// One cancellation poll per segment: a segment fold is tens of
	// microseconds, well under the deadline resolution anyone sets.
	if err := b.ctx.Err(); err != nil {
		return fmt.Errorf("query: scan aborted: %w", err)
	}
	b.p.Total += sc.Matched
	b.p.Kept += sc.Kept
	for i, n := range sc.SrcCounts {
		if n > 0 {
			b.p.BySource[sc.Sources[i]] += n
		}
	}
	for i, n := range sc.CatCounts {
		if n > 0 {
			cat := sc.Categories[i]
			b.p.ByCategory[cat] += n
			b.p.ByType[typeCodeOf(sc.System, cat)] += n
		}
	}
	for v, n := range sc.SevCounts {
		if n > 0 {
			b.p.BySeverity[logrec.Severity(v).String()] += n
		}
	}
	b.p.Times = append(b.p.Times, sc.Times...)
	return nil
}

// TailEntry folds one matching unsealed-tail entry, exactly as
// PartialOf does per entry.
func (b *partialBuilder) TailEntry(en store.Entry) error {
	if b.seen++; b.seen%ctxCheckStride == 0 {
		if err := b.ctx.Err(); err != nil {
			return fmt.Errorf("query: scan aborted: %w", err)
		}
	}
	b.p.Total++
	if en.Kept {
		b.p.Kept++
	}
	b.p.ByCategory[en.Category]++
	b.p.ByType[typeCode(en)]++
	b.p.BySeverity[en.Record.Severity.String()]++
	b.p.BySource[en.Record.Source]++
	b.p.Times = append(b.p.Times, en.Record.Time.UnixNano())
	return nil
}
