package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"whatsupersay/internal/report"
	"whatsupersay/internal/store"
)

// runCompact performs one on-demand maintenance pass over a store:
// retention first (when -retention is set, dropping whole segments
// whose newest record has aged past the horizon, measured in log time
// relative to the store's newest record), then compaction (merging runs
// of adjacent small segments into large sorted ones until none fits
// under the target). The same pass `logstudy serve -compact-every` runs
// in the background.
func runCompact(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compact", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (required)")
	target := fs.Int("target", 0, "merged-segment size goal, in entries (default 4x the store's flush size)")
	retention := fs.Duration("retention", 0, "drop segments older than this horizon before the newest record (0 = keep everything)")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	if *dir == "" {
		return usageError("compact: -dir is required")
	}

	st, rep, err := store.Open(*dir, store.Options{CompactTarget: *target, Retention: *retention})
	if err != nil {
		return err
	}
	reportOpen(w, st.System().ShortName()+" store", rep)
	before := len(st.Segments())

	start := time.Now()
	cst, rst, err := st.Maintain()
	if err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}

	if rst.SegmentsDropped > 0 {
		fmt.Fprintf(w, "retention dropped %d segments (%s entries) past the %v horizon\n",
			rst.SegmentsDropped, report.Comma(int64(rst.EntriesDropped)), *retention)
	}
	if cst.Compactions > 0 {
		fmt.Fprintf(w, "compacted %d segments into %d (%s entries rewritten) in %v\n",
			cst.SegmentsIn, cst.Compactions, report.Comma(int64(cst.EntriesMerged)), time.Since(start).Round(time.Millisecond))
	}
	if rst.SegmentsDropped == 0 && cst.Compactions == 0 {
		fmt.Fprintf(w, "nothing to do: %d segments already at or above the target\n", before)
	}
	return nil
}

// reportOpen prints the open report's anomalies — the shared accounting
// the serve and compact subcommands both surface.
func reportOpen(w io.Writer, what string, rep *store.OpenReport) {
	if rep == nil {
		return
	}
	fmt.Fprintf(w, "opened %s: %d segments, %d tail entries\n", what, rep.Segments, rep.TailEntries)
	for name, reason := range rep.CorruptSegments {
		fmt.Fprintf(w, "  quarantined %s: %s\n", name, reason)
	}
	if rep.TailDroppedBytes > 0 {
		fmt.Fprintf(w, "  truncated %d torn wal bytes (%s)\n", rep.TailDroppedBytes, rep.TailDamage)
	}
	if rep.TempFilesRemoved > 0 {
		fmt.Fprintf(w, "  swept %d stale temp files\n", rep.TempFilesRemoved)
	}
	if rep.SupersededSegments > 0 {
		fmt.Fprintf(w, "  removed %d segments superseded by an interrupted compaction\n", rep.SupersededSegments)
	}
	if rep.TailDedupedEntries > 0 {
		fmt.Fprintf(w, "  deduplicated %d wal entries already sealed in a segment\n", rep.TailDedupedEntries)
	}
}
