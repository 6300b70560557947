package store

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
)

// Mapping-lifetime tests: maintenance (compaction, retention) must
// never unmap a segment while a scan holds it, and must unmap it once
// the last reader lets go. They run under -race via verify-race, which
// is where a refcount mistake would surface as a use-after-unmap read
// of g.blob. On platforms without mmap the unmap counter never moves
// and the tests reduce to the blocking-scan correctness checks.

// blockingScan starts a Scan whose first emit parks until release is
// closed, then counts the rest. The returned channels report entry to
// the parked state and the final (count, error).
func blockingScan(s *Store, release <-chan struct{}) (entered <-chan struct{}, done <-chan int) {
	ent := make(chan struct{})
	res := make(chan int, 1)
	go func() {
		n := 0
		_, err := s.Scan(Filter{}, func(Entry) error {
			if n == 0 {
				close(ent)
				<-release
			}
			n++
			return nil
		})
		if err != nil {
			n = -1
		}
		res <- n
	}()
	return ent, res
}

// TestCompactionDefersUnmapToLastReader: a scan snapshots the
// pre-compaction segments; compaction supersedes them, removes them
// from the inventory, and unlinks their files — but the unmap must wait
// for the scan to finish, and the scan must read every entry intact
// from the superseded mappings.
func TestCompactionDefersUnmapToLastReader(t *testing.T) {
	entries := makeEntries(t, 600, 11)
	s, err := Create(t.TempDir(), logrec.Thunderbird, Options{FlushEvery: 100, CompactTarget: 600})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	segsBefore := len(s.Segments())
	if segsBefore < 2 {
		t.Fatalf("need several segments, have %d", segsBefore)
	}

	release := make(chan struct{})
	entered, done := blockingScan(s, release)
	<-entered

	before := unmapCount.Load()
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.SegmentsIn != segsBefore {
		t.Fatalf("compaction consumed %d segments, want %d", cs.SegmentsIn, segsBefore)
	}
	if d := unmapCount.Load() - before; d != 0 {
		t.Fatalf("%d segments unmapped while a scan held them", d)
	}

	close(release)
	if n := <-done; n != len(entries) {
		t.Fatalf("scan under compaction saw %d entries, want %d", n, len(entries))
	}
	// The scan's release was the last reference to each superseded
	// segment; every one of their mappings must now be gone.
	if mmapSupported {
		if d := unmapCount.Load() - before; d != int64(segsBefore) {
			t.Fatalf("unmapped %d segments after scan release, want %d", d, segsBefore)
		}
	}
}

// TestRetentionDefersUnmapToLastReader is the same contract for
// retention drops: the horizon removes every sealed segment from the
// inventory, the in-flight scan still completes over the dropped
// mappings, and the unmaps land only on its release.
func TestRetentionDefersUnmapToLastReader(t *testing.T) {
	entries := makeEntries(t, 400, 12)
	s, err := Create(t.TempDir(), logrec.Thunderbird, Options{FlushEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	segsBefore := len(s.Segments())

	release := make(chan struct{})
	entered, done := blockingScan(s, release)
	<-entered

	before := unmapCount.Load()
	horizon := entries[len(entries)-1].Record.Time.Add(time.Hour)
	rs, err := s.ApplyRetention(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SegmentsDropped != segsBefore {
		t.Fatalf("retention dropped %d segments, want %d", rs.SegmentsDropped, segsBefore)
	}
	if d := unmapCount.Load() - before; d != 0 {
		t.Fatalf("%d segments unmapped while a scan held them", d)
	}

	close(release)
	if n := <-done; n != len(entries) {
		t.Fatalf("scan under retention saw %d entries, want %d", n, len(entries))
	}
	if mmapSupported {
		if d := unmapCount.Load() - before; d != int64(segsBefore) {
			t.Fatalf("unmapped %d segments after scan release, want %d", d, segsBefore)
		}
	}
}

// TestCloseUnmapsInventory: closing the store (which seals the tail)
// drops every inventory reference and unmaps every sealed segment.
func TestCloseUnmapsInventory(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	entries := makeEntries(t, 300, 13)
	s, err := Create(t.TempDir(), logrec.Thunderbird, Options{FlushEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	segs := len(s.Segments())
	before := unmapCount.Load()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := unmapCount.Load() - before; d != int64(segs) {
		t.Fatalf("close unmapped %d segments, want %d", d, segs)
	}
}

// countingVisitor tallies a ScanColumns pass, the sealed segments'
// columns apart from the tail's.
type countingVisitor struct {
	sealedMatched int
	sealedKept    int
	tail          int
	tailKept      int
}

func (v *countingVisitor) SealedColumns(sc *SegmentColumns) error {
	if sc.Segment == "" {
		v.tail += sc.Matched
		v.tailKept += sc.Kept
	} else {
		v.sealedMatched += sc.Matched
		v.sealedKept += sc.Kept
	}
	if len(sc.Times) != sc.Matched {
		return errors.New("times length diverges from matched count")
	}
	return nil
}

// TestScanColumnsStatsMatchScan: the columnar walk reports the exact
// ScanStats the row scan does — same pruning, same records scanned,
// same matches — for a spread of filters, over segments plus a tail.
func TestScanColumnsStatsMatchScan(t *testing.T) {
	entries := makeEntries(t, 500, 14)
	s, err := Create(t.TempDir(), logrec.Thunderbird, Options{FlushEvery: 150})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if s.TailLen() == 0 {
		t.Fatal("fixture needs a wal tail")
	}

	kept := true
	mid := entries[250].Record.Time
	for i, f := range []Filter{
		{},
		{Categories: []string{"ECC"}},
		{Sources: []string{"sn373", "cn12"}},
		{Severities: []logrec.Severity{logrec.SevFatal}},
		{Kept: &kept},
		{From: mid},
		{To: mid},
		{Categories: []string{"GM_PAR"}, From: mid, Kept: &kept},
	} {
		rowStats, err := s.Scan(f, func(Entry) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		var v countingVisitor
		colStats, err := s.ScanColumns(f, &v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rowStats, colStats) {
			t.Errorf("filter %d: stats diverged\ncolumnar: %+v\nrow:      %+v", i, colStats, rowStats)
		}
		if v.sealedMatched+v.tail != rowStats.Matched {
			t.Errorf("filter %d: visitor saw %d+%d matches, scan matched %d",
				i, v.sealedMatched, v.tail, rowStats.Matched)
		}
	}
}

// TestScanColumnsBodyFilterEqualsScan: a body predicate is served by
// the columnar walk exactly as by the row scan — same matches, same
// Kept tally, same ScanStats — on every store shape, with the needle
// only in the tail, only in sealed segments, nowhere, and combined with
// a category (the postings walk), the Kept flag, and a time window that
// cuts a segment.
func TestScanColumnsBodyFilterEqualsScan(t *testing.T) {
	const flush = 150
	entries := makeEntries(t, 500, 21)
	for i := range entries {
		switch {
		case i < 2*flush && i%11 == 0:
			entries[i].Record.Body += " needle-sealed"
		case i >= 3*flush && i%5 == 0:
			entries[i].Record.Body += " needle-tail"
		}
	}
	kept := true
	filters := []Filter{
		{BodyContains: "needle-tail"},
		{BodyContains: "needle-sealed"},
		{BodyContains: "no such needle"},
		{BodyContains: "needle", Categories: []string{"ECC"}},
		{BodyContains: "needle", Kept: &kept},
		{BodyContains: "synthetic body", From: entries[flush+50].Record.Time, To: entries[2*flush+100].Record.Time},
	}

	check := func(shape string, s *Store) {
		t.Helper()
		for i, f := range filters {
			var rowKept int
			rowStats, err := s.Scan(f, func(en Entry) error {
				if en.Kept {
					rowKept++
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s filter %d: Scan: %v", shape, i, err)
			}
			var v countingVisitor
			colStats, err := s.ScanColumns(f, &v)
			if err != nil {
				t.Fatalf("%s filter %d: ScanColumns: %v", shape, i, err)
			}
			if !reflect.DeepEqual(rowStats, colStats) {
				t.Errorf("%s filter %d: stats diverged\ncolumnar: %+v\nrow:      %+v", shape, i, colStats, rowStats)
			}
			want := len(linearFilter(entries, f))
			if rowStats.Matched != want || v.sealedMatched+v.tail != want {
				t.Errorf("%s filter %d: Scan matched %d, visitor saw %d+%d, linear reference %d",
					shape, i, rowStats.Matched, v.sealedMatched, v.tail, want)
			}
			if v.sealedKept+v.tailKept != rowKept {
				t.Errorf("%s filter %d: visitor kept %d+%d, Scan kept %d", shape, i, v.sealedKept, v.tailKept, rowKept)
			}
			if shape != "wal-tail" {
				continue
			}
			// The fixture means what the case names say.
			switch f.BodyContains {
			case "needle-tail":
				if v.sealedMatched != 0 || v.tail == 0 {
					t.Errorf("needle-tail matched %d sealed, %d tail", v.sealedMatched, v.tail)
				}
			case "needle-sealed":
				if v.sealedMatched == 0 || v.tail != 0 {
					t.Errorf("needle-sealed matched %d sealed, %d tail", v.sealedMatched, v.tail)
				}
			case "synthetic body":
				if colStats.SegmentsScanned != 2 || colStats.Matched == 0 || colStats.Matched >= 2*flush {
					t.Errorf("window filter does not cut two segments: %+v", colStats)
				}
			}
		}
	}

	s, err := Create(t.TempDir(), logrec.Thunderbird, Options{FlushEvery: flush})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if len(s.Segments()) != 3 || s.TailLen() != len(entries)-3*flush {
		t.Fatalf("fixture: %d segments, tail %d", len(s.Segments()), s.TailLen())
	}
	check("wal-tail", s)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	check("sealed", s)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(s.Segments()) >= 4 {
		t.Fatalf("compaction left %d segments", len(s.Segments()))
	}
	check("post-compaction", s)

	tailOnly, err := Create(t.TempDir(), logrec.Thunderbird, Options{FlushEvery: len(entries) + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tailOnly.Close()
	if err := tailOnly.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if len(tailOnly.Segments()) != 0 {
		t.Fatal("tail-only shape sealed a segment")
	}
	check("tail-only", tailOnly)
}
