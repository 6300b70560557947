package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"whatsupersay/internal/logrec"
)

// summaryVisitor resolves a columnar scan to dictionary values, so two
// scans compare equal across segment layouts (a compacted segment
// numbers its dictionaries differently).
type summaryVisitor struct {
	Matched, Kept int
	Sources       map[string]int
	Categories    map[string]int
	Severities    map[int]int
	Times         []int64
}

func newSummaryVisitor() *summaryVisitor {
	return &summaryVisitor{Sources: map[string]int{}, Categories: map[string]int{}, Severities: map[int]int{}}
}

func (v *summaryVisitor) SealedColumns(sc *SegmentColumns) error {
	v.Matched += sc.Matched
	v.Kept += sc.Kept
	for i, n := range sc.SrcCounts {
		if n > 0 {
			v.Sources[sc.Sources[i]] += n
		}
	}
	for i, n := range sc.CatCounts {
		if n > 0 {
			v.Categories[sc.Categories[i]] += n
		}
	}
	for sev, n := range sc.SevCounts {
		if n > 0 {
			v.Severities[sev] += n
		}
	}
	v.Times = append(v.Times, sc.Times...)
	return nil
}

// TestProjectionBuiltOnceUnderConcurrentFirstTouch: Open, seal and
// compaction build no projection; eight scans that reach a fresh
// segment at once build its projection exactly once, even while a
// compaction supersedes the segment mid-build, and all answer alike —
// as the compacted segment does afterwards. The mapping still unmaps
// exactly once per dropped segment, after the last scan lets go, and
// the projection's bytes leave the gauge with it.
func TestProjectionBuiltOnceUnderConcurrentFirstTouch(t *testing.T) {
	const flush, scans = 100, 8
	entries := makeEntries(t, 2*flush, 31)
	dir := t.TempDir()
	builds := mColumnBuilds.Value()
	s, err := Create(dir, logrec.Thunderbird, Options{FlushEvery: flush, CompactTarget: 4 * flush})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, _, err = Open(dir, Options{FlushEvery: flush, CompactTarget: 4 * flush})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := len(s.Segments()); n != 2 {
		t.Fatalf("fixture has %d segments, want 2", n)
	}
	if d := mColumnBuilds.Value() - builds; d != 0 {
		t.Fatalf("seal and Open built %d projections", d)
	}

	// The window reaches the first segment only; the second is pruned.
	f := Filter{To: entries[flush].Record.Time}
	started, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	beforeProjectionBuild = func(*segment) {
		once.Do(func() { close(started) })
		<-resume
	}
	defer func() { beforeProjectionBuild = nil }()

	bytesBefore := gColumnBytes.Value()
	unmaps := unmapCount.Load()
	got := make([]*summaryVisitor, scans)
	stats := make([]ScanStats, scans)
	errs := make([]error, scans)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = newSummaryVisitor()
			stats[i], errs[i] = s.ScanColumns(f, got[i])
		}(i)
	}
	// Compact only once every scan holds its snapshot (one reference
	// each beside the inventory's), so none of them can see the output.
	<-started
	s.mu.RLock()
	first := s.segs[0]
	s.mu.RUnlock()
	for first.ref.refs.Load() != 1+scans {
		runtime.Gosched()
	}
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.SegmentsIn != 2 {
		t.Fatalf("compaction consumed %d segments, want 2", cs.SegmentsIn)
	}
	if d := unmapCount.Load() - unmaps; d != 0 {
		t.Fatalf("%d segments unmapped while scans held them", d)
	}
	close(resume)
	wg.Wait()
	beforeProjectionBuild = nil

	if d := mColumnBuilds.Value() - builds; d != 1 {
		t.Fatalf("%d concurrent scans built %d projections, want 1", scans, d)
	}
	if mmapSupported {
		if d := unmapCount.Load() - unmaps; d != 2 {
			t.Fatalf("unmapped %d segments after the scans released, want 2", d)
		}
	}
	if v := gColumnBytes.Value(); v != bytesBefore {
		t.Fatalf("store_column_bytes %v after the dropped segment's last release, want %v", v, bytesBefore)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("scan %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], got[0]) || stats[i] != stats[0] {
			t.Fatalf("scan %d answered %+v %+v, scan 0 %+v %+v", i, got[i], stats[i], got[0], stats[0])
		}
	}
	if got[0].Matched == 0 || stats[0].SegmentsScanned != 1 {
		t.Fatalf("the window must reach exactly one segment with matches: %+v", stats[0])
	}

	after := newSummaryVisitor()
	if _, err := s.ScanColumns(f, after); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, got[0]) {
		t.Fatalf("compacted segment answers %+v, the superseded one %+v", after, got[0])
	}
	if d := mColumnBuilds.Value() - builds; d != 2 {
		t.Fatalf("%d projections after scanning the compaction output, want 2", d)
	}
	if want := bytesBefore + float64(2*flush*projectionBytesPerRecord+4); gColumnBytes.Value() != want {
		t.Fatalf("store_column_bytes %v with the compaction output projected, want %v", gColumnBytes.Value(), want)
	}
}

// TestProjectionErrorIsSticky: a checksum-valid segment with an
// out-of-range dictionary id near its end fails every scan that
// reaches it — a window over its first records and a postings filter
// alike, row and columnar — with the same error each time, one build
// attempt in all, and not one of its records served.
func TestProjectionErrorIsSticky(t *testing.T) {
	const n = 100
	entries := makeEntries(t, n, 32)
	dir := t.TempDir()
	s, err := Create(dir, logrec.Thunderbird, Options{FlushEvery: n})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(paths) != 1 {
		t.Fatalf("fixture has %d segments", len(paths))
	}
	corruptSourceID(t, paths[0], n-5)

	builds := mColumnBuilds.Value()
	s, rep, err := Open(dir, Options{FlushEvery: n})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(rep.CorruptSegments) != 0 || rep.Segments != 1 {
		t.Fatalf("the damage is past the checksum, so Open must keep the segment: %+v", rep)
	}
	var first string
	for i, f := range []Filter{
		{To: entries[10].Record.Time},
		{Sources: []string{entries[0].Record.Source}},
		{To: entries[10].Record.Time},
	} {
		served := 0
		_, err := s.Scan(f, func(Entry) error { served++; return nil })
		v := newSummaryVisitor()
		_, cerr := s.ScanColumns(f, v)
		if err == nil || cerr == nil || served != 0 || v.Matched != 0 {
			t.Fatalf("filter %d: Scan err %v served %d, ScanColumns err %v served %d", i, err, served, cerr, v.Matched)
		}
		if first == "" {
			first = err.Error()
		}
		if err.Error() != first || cerr.Error() != first {
			t.Fatalf("filter %d: errors %q / %q, first %q", i, err, cerr, first)
		}
	}
	if d := mColumnBuilds.Value() - builds; d != 1 {
		t.Fatalf("%d build attempts, want 1", d)
	}
}

// corruptSourceID points record k's source id of the segment file at
// path one past its dictionary and recomputes the footer checksum: the
// segment still opens, and only decoding record k fails.
func corruptSourceID(t *testing.T, path string, k int) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := parseSegment("probe", blob)
	if err != nil {
		t.Fatal(err)
	}
	// Skip record k's seq and time varints; the id itself is a one-byte
	// varint.
	off := g.recordsOff
	for i := 0; i < k; i++ {
		if _, off, err = g.decodeRawAt(off); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 2; j++ {
		_, w := binary.Uvarint(blob[off:])
		off += w
	}
	if len(g.sources) >= 0x80 || blob[off] >= 0x80 {
		t.Fatal("fixture's source ids are not one-byte varints")
	}
	blob[off] = byte(len(g.sources))
	binary.LittleEndian.PutUint32(blob[len(blob)-8:], crc32.ChecksumIEEE(blob[:len(blob)-8]))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}
