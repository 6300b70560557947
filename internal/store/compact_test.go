package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
)

// buildSealed creates a store whose entries are all sealed into small
// segments (flushEvery each), plus an optional unsealed tail.
func buildSealed(t *testing.T, dir string, entries []Entry, flushEvery, tail int) *Store {
	t.Helper()
	st, err := Create(dir, logrec.Thunderbird, Options{FlushEvery: flushEvery})
	if err != nil {
		t.Fatal(err)
	}
	sealed := entries[:len(entries)-tail]
	if err := st.Append(sealed...); err != nil {
		t.Fatal(err)
	}
	for st.TailLen() > 0 {
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if tail > 0 {
		if err := st.Append(entries[len(entries)-tail:]...); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestCompactMergesAdjacentSegments(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 1000, 31)
	st := buildSealed(t, dir, entries, 100, 50)
	defer st.Close()
	if n := len(st.Segments()); n != 10 {
		t.Fatalf("precondition: want 10 segments, got %d", n)
	}

	cst, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	// Target = 4×100, so 10 segments of ~100 merge into runs of ≤400
	// entries: at least one merge must have happened, and the final
	// inventory must be strictly smaller.
	if cst.Compactions == 0 || cst.SegmentsIn < 2 {
		t.Fatalf("no merge happened: %+v", cst)
	}
	after := st.Segments()
	if len(after) >= 10 {
		t.Fatalf("segments not reduced: %d", len(after))
	}
	// No merged segment exceeds the target; no run of two adjacent
	// segments still fits under it (Compact runs to fixpoint).
	for i, g := range after {
		if g.Records > 400 {
			t.Errorf("segment %d has %d entries, target 400", i, g.Records)
		}
		if i > 0 && after[i-1].Records+g.Records <= 400 {
			t.Errorf("segments %d,%d (%d+%d entries) still mergeable", i-1, i, after[i-1].Records, g.Records)
		}
	}
	// Content is untouched: every entry exactly once, tail intact.
	if got := collect(t, st, Filter{}); !reflect.DeepEqual(got, entriesNoRaw(entries)) {
		t.Fatalf("compaction changed the entry set: got %d, want %d", len(got), len(entries))
	}
	if st.TailLen() != 50 {
		t.Fatalf("tail = %d, want 50", st.TailLen())
	}
	// A second pass is a no-op.
	cst, err = st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Compactions != 0 {
		t.Fatalf("second compact not a no-op: %+v", cst)
	}
	// No staging or manifest leftovers.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("temp files left: %v", tmps)
	}
	cm, err := readCompactManifest(dir)
	if err != nil || len(cm.Pending) != 0 {
		t.Fatalf("manifest not cleared: %+v err %v", cm, err)
	}
}

// TestCompactedStoreAnswersFiltersIdentically is the property test: for
// a battery of filters, a compacted store and an uncompacted copy of
// the same data return identical results — compaction is a pure layout
// optimization.
func TestCompactedStoreAnswersFiltersIdentically(t *testing.T) {
	entries := makeEntries(t, 1500, 33)
	plain := buildSealed(t, t.TempDir(), entries, 128, 70)
	defer plain.Close()
	compacted := buildSealed(t, t.TempDir(), entries, 128, 70)
	defer compacted.Close()
	if _, err := compacted.Compact(); err != nil {
		t.Fatal(err)
	}
	if a, b := len(plain.Segments()), len(compacted.Segments()); b >= a {
		t.Fatalf("compaction did not reduce segments: %d vs %d", a, b)
	}

	mid := entries[len(entries)/2].Record.Time
	late := entries[3*len(entries)/4].Record.Time
	kept, notKept := true, false
	filters := []Filter{
		{},
		{From: mid},
		{To: mid},
		{From: mid, To: late},
		{Categories: []string{"ECC"}},
		{Sources: []string{"sn373", "cn12"}},
		{Severities: []logrec.Severity{logrec.SevFatal}},
		{Kept: &kept},
		{Kept: &notKept, Categories: []string{"KERNDTLB"}, From: mid},
		{Sources: []string{"sm0"}, Severities: []logrec.Severity{logrec.SevErr}, From: mid, To: late},
	}
	ref := entriesNoRaw(entries)
	for i, f := range filters {
		want := linearFilter(ref, f)
		a := collect(t, plain, f)
		b := collect(t, compacted, f)
		if len(a) == 0 && len(b) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("filter %d: plain %d entries, compacted %d — diverged", i, len(a), len(b))
		}
		if !reflect.DeepEqual(b, want) {
			t.Errorf("filter %d: compacted store diverges from linear reference", i)
		}
	}
}

func TestCompactedStoreReopens(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 800, 35)
	st := buildSealed(t, dir, entries, 100, 30)
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rep.SupersededSegments != 0 || rep.TailDedupedEntries != 0 || len(rep.CorruptSegments) != 0 {
		t.Fatalf("clean reopen reported anomalies: %+v", rep)
	}
	if got := collect(t, st2, Filter{}); !reflect.DeepEqual(got, entriesNoRaw(entries)) {
		t.Fatalf("reopened compacted store lost entries: %d of %d", len(got), len(entries))
	}
}

func TestApplyRetentionDropsOldSegments(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 900, 37)
	st := buildSealed(t, dir, entries, 150, 0)
	defer st.Close()
	segs := st.Segments()
	if len(segs) != 6 {
		t.Fatalf("want 6 segments, got %d", len(segs))
	}
	// Horizon between the 2nd and 3rd segments: the first two age out.
	horizon := segs[2].Start
	rst, err := st.ApplyRetention(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if rst.SegmentsDropped == 0 {
		t.Fatalf("nothing dropped: %+v", rst)
	}
	for _, g := range st.Segments() {
		if g.End.Before(horizon) {
			t.Errorf("segment %s (end %v) survived a %v horizon", g.Name, g.End, horizon)
		}
	}
	// Survivors are exactly the entries of the kept segments.
	wantLen := len(entries)
	for _, g := range segs[:rst.SegmentsDropped] {
		wantLen -= g.Records
	}
	if got := collect(t, st, Filter{}); len(got) != wantLen || st.Len() != wantLen {
		t.Fatalf("retained %d entries, want %d", len(got), wantLen)
	}
	// Idempotent at the same horizon.
	rst, err = st.ApplyRetention(horizon)
	if err != nil || rst.SegmentsDropped != 0 {
		t.Fatalf("second pass dropped %+v (err %v)", rst, err)
	}
}

func TestRetentionHorizonIsDataRelative(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 600, 39) // 2004-era data
	st := buildSealed(t, dir, entries, 100, 0)
	defer st.Close()
	st.opts.Retention = time.Hour
	horizon, ok := st.retentionHorizon()
	if !ok {
		t.Fatal("retention configured but no horizon")
	}
	newest := entries[len(entries)-1].Record.Time
	if want := newest.Add(-time.Hour); !horizon.Equal(want) {
		t.Fatalf("horizon %v, want newest-1h %v (log time, not wall time)", horizon, want)
	}
	// A wall-clock horizon would be ~22 years past this data and drop
	// everything; the data-relative one must keep the newest segment.
	if _, err := st.ApplyRetention(horizon); err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 {
		t.Fatal("data-relative retention emptied a historical store")
	}
}

func TestBackgroundMaintenanceCompacts(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 600, 41)
	st := buildSealed(t, dir, entries, 60, 0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := Open(dir, Options{CompactEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(st2.Segments()) > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("background loop never compacted: %d segments", len(st2.Segments()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := collect(t, st2, Filter{}); !reflect.DeepEqual(got, entriesNoRaw(entries)) {
		t.Fatalf("background compaction changed the entry set")
	}
}

func TestAppendDoesNotMutateCallerSlice(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, logrec.Thunderbird, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	batch := makeEntries(t, 5, 43)
	for i := range batch {
		batch[i].Record.System = logrec.Liberty // wrong on purpose
		batch[i].Record.Raw = fmt.Sprintf("raw line %d", i)
	}
	want := append([]Entry(nil), batch...)
	if err := st.Append(batch...); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, want) {
		t.Fatal("Append mutated the caller's slice")
	}
	// The store still normalized its own copy.
	got := collect(t, st, Filter{})
	for _, en := range got {
		if en.Record.System != logrec.Thunderbird || en.Record.Raw != "" {
			t.Fatalf("stored entry not normalized: %+v", en.Record)
		}
	}
}

func TestFingerprintTracksMutations(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, logrec.Thunderbird, Options{FlushEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	entries := makeEntries(t, 450, 45)

	fp0 := st.Fingerprint()
	if fp1 := st.Fingerprint(); fp1 != fp0 {
		t.Fatal("fingerprint not stable on an unchanged store")
	}
	if err := st.Append(entries...); err != nil {
		t.Fatal(err)
	}
	fp1 := st.Fingerprint()
	if fp1 == fp0 {
		t.Fatal("append did not change the fingerprint")
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	fp2 := st.Fingerprint()
	if fp2 == fp1 {
		t.Fatal("seal did not change the fingerprint")
	}
	if cst, err := st.Compact(); err != nil || cst.Compactions == 0 {
		t.Fatalf("compact: %+v err %v", cst, err)
	}
	if fp3 := st.Fingerprint(); fp3 == fp2 {
		t.Fatal("compaction did not change the fingerprint")
	}
}

func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 100, 47)
	st := buildSealed(t, dir, entries, 100, 0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A crashed seal and a crashed wal rewrite leave these behind.
	for _, name := range []string{"seg-00000009.seg.tmp", walName + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rep.TempFilesRemoved != 2 {
		t.Fatalf("TempFilesRemoved = %d, want 2", rep.TempFilesRemoved)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("stale temp files survived open: %v", tmps)
	}
	if got := collect(t, st2, Filter{}); !reflect.DeepEqual(got, entriesNoRaw(entries)) {
		t.Fatal("sweep touched live data")
	}
}

// TestConcurrentAppendScanSealCompact is the -race stress test: four
// appenders, two scanners, a sealer, and a compactor hammer one store;
// afterwards every acknowledged entry is present exactly once.
func TestConcurrentAppendScanSealCompact(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, logrec.Thunderbird, Options{FlushEvery: 200, CompactTarget: 800})
	if err != nil {
		t.Fatal(err)
	}

	const (
		appenders  = 4
		perBatch   = 25
		numBatches = 16
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex
	var appended []Entry

	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for b := 0; b < numBatches; b++ {
				batch := makeEntries(t, perBatch, int64(100+a*numBatches+b))
				for i := range batch {
					// Disambiguate across goroutines: unique seq per appender.
					batch[i].Record.Seq = uint64(a*1_000_000 + b*1_000 + i)
				}
				if err := st.Append(batch...); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				appended = append(appended, batch...)
				mu.Unlock()
			}
		}(a)
	}
	wg.Add(1)
	go func() { // compactor
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // sealer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Seal(); err != nil {
				t.Errorf("seal: %v", err)
				return
			}
		}
	}()
	for sc := 0; sc < 2; sc++ {
		wg.Add(1)
		go func() { // scanner
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := st.Scan(Filter{Sources: []string{"sn373"}}, func(Entry) error { return nil }); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		}()
	}

	// Wait for the appenders (first 4 Adds), then stop the loops.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		mu.Lock()
		n := len(appended)
		mu.Unlock()
		if n == appenders*perBatch*numBatches {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(rep.CorruptSegments) != 0 || rep.TailDroppedBytes != 0 {
		t.Fatalf("dirty reopen after clean close: %+v", rep)
	}
	got := collect(t, st2, Filter{})
	want := entriesNoRaw(appended)
	sortEntries(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exactly-once violated: got %d entries, want %d", len(got), len(want))
	}
}

// seqScan is one scan's answer: the sequence number it reported and the
// timestamps it matched, sorted.
type seqScan struct {
	how   string
	seq   uint64
	times []int64
}

// timesVisitor collects a columnar scan's matched timestamps.
type timesVisitor struct{ times []int64 }

func (v *timesVisitor) SealedColumns(sc *SegmentColumns) error {
	v.times = append(v.times, sc.Times...)
	return nil
}

// TestScanSeqIsExact: ScanStats.Seq is exactly the mutation sequence
// number of the snapshot a scan read. With appenders, a sealer and a
// compactor racing them, every Scan and every ScanColumns matched
// precisely the batches whose notified Seq is at most the scan's Seq;
// and FingerprintSeq, taken at quiet points, pairs the fingerprint with
// the number of the last mutation, which a scan then reports too.
func TestScanSeqIsExact(t *testing.T) {
	st, err := Create(t.TempDir(), logrec.Thunderbird, Options{FlushEvery: 40, CompactTarget: 160})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var mu sync.Mutex
	batches := map[uint64][]int64{} // append Seq -> the batch's timestamps
	var last uint64                 // highest notified Seq, any kind
	st.SetObserver(func(m Mutation) {
		mu.Lock()
		defer mu.Unlock()
		last = max(last, m.Seq)
		if m.Kind == MutationAppend {
			for _, en := range m.Entries {
				batches[m.Seq] = append(batches[m.Seq], en.Record.Time.UnixNano())
			}
		}
	})
	scanOnce := func(columns bool) (seqScan, error) {
		var out seqScan
		var stats ScanStats
		var err error
		if columns {
			var v timesVisitor
			stats, err = st.ScanColumns(Filter{}, &v)
			out = seqScan{how: "ScanColumns", times: v.times}
		} else {
			out.how = "Scan"
			stats, err = st.Scan(Filter{}, func(en Entry) error {
				out.times = append(out.times, en.Record.Time.UnixNano())
				return nil
			})
		}
		out.seq = stats.Seq
		slices.Sort(out.times)
		return out, err
	}
	// check compares a scan with the union of the batches at or under its
	// Seq; call it once every mutation it could have seen was notified.
	check := func(s seqScan) {
		t.Helper()
		mu.Lock()
		var want []int64
		for seq, times := range batches {
			if seq <= s.seq {
				want = append(want, times...)
			}
		}
		mu.Unlock()
		slices.Sort(want)
		if !slices.Equal(s.times, want) {
			t.Fatalf("%s at Seq %d matched %d entries, the batches at or under it hold %d", s.how, s.seq, len(s.times), len(want))
		}
	}
	quiet := func(step string) {
		t.Helper()
		fp, seq := st.FingerprintSeq()
		mu.Lock()
		lastSeq := last
		mu.Unlock()
		if seq != lastSeq || fp != st.Fingerprint() {
			t.Fatalf("%s: FingerprintSeq (%x, %d), want (%x, %d)", step, fp, seq, st.Fingerprint(), lastSeq)
		}
		for _, columns := range []bool{false, true} {
			s, err := scanOnce(columns)
			if err != nil {
				t.Fatal(err)
			}
			if s.seq != seq {
				t.Fatalf("%s: quiet %s reported Seq %d, FingerprintSeq %d", step, s.how, s.seq, seq)
			}
			check(s)
		}
	}

	const appenders, perAppender, perBatch = 3, 30, 7
	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	stop := make(chan struct{})
	var writers, loops sync.WaitGroup
	for a := 0; a < appenders; a++ {
		writers.Add(1)
		go func(a int) {
			defer writers.Done()
			for b := 0; b < perAppender; b++ {
				batch := makeEntries(t, perBatch, int64(a*perAppender+b))
				for i := range batch {
					// Unique timestamps identify entries in both read paths.
					id := (a*perAppender+b)*perBatch + i
					batch[i].Record.Time = base.Add(time.Duration(id) * time.Second)
				}
				if err := st.Append(batch...); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	loop := func(step func() error) {
		loops.Add(1)
		go func() {
			defer loops.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	loop(st.Seal)
	loop(func() error { _, err := st.Compact(); return err })
	var scans []seqScan
	var scansMu sync.Mutex
	for _, columns := range []bool{false, true} {
		loop(func() error {
			s, err := scanOnce(columns)
			scansMu.Lock()
			scans = append(scans, s)
			scansMu.Unlock()
			return err
		})
	}
	writers.Wait()
	close(stop)
	loops.Wait()

	// Every Append has returned, so every batch a scan saw was notified.
	if len(scans) == 0 {
		t.Fatal("no scan ran against the writers")
	}
	for _, s := range scans {
		check(s)
	}
	quiet("after the race")
	if err := st.Append(makeEntries(t, 3, 99)...); err != nil {
		t.Fatal(err)
	}
	quiet("after an append")
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	quiet("after a seal")
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	quiet("after a compaction")
}

// mergeInputs draws k canonically sorted inputs holding n entries in
// all (each input at least one) for the merge differential. Times come
// from one shared span, a quarter of them a year early, so the inputs'
// time ranges overlap; seqs come from a small range, and ties (in
// 256ths) is the chance an entry takes the time and seq of an earlier
// one, most often one that went to another input. The corrupted and
// kept flags vary, and each input meets the strings of every dictionary
// in its own order, so each numbers them differently.
func mergeInputs(rng *rand.Rand, k, n int, ties uint8) [][]Entry {
	sources := []string{"sn373", "admin1", "cn12", "cn13", "sm0"}
	cats := []string{"ECC", "KERNDTLB", "PBS_CON", "GM_PAR"}
	progs := []string{"kernel", "pbs_mom", ""}
	facs := []string{"kern", "daemon", ""}
	sevs := []logrec.Severity{logrec.SeverityUnknown, logrec.SevErr, logrec.SevFatal, logrec.SevInfo}
	base := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	k = max(1, min(k, n))
	out := make([][]Entry, k)
	var all []Entry
	for i := 0; i < n; i++ {
		en := Entry{
			Record: logrec.Record{
				Seq:       uint64(rng.Intn(max(1, n/2))),
				Time:      base.Add(time.Duration(rng.Int63n(int64(n) * int64(time.Second)))),
				System:    logrec.Thunderbird,
				Source:    sources[rng.Intn(len(sources))],
				Severity:  sevs[rng.Intn(len(sevs))],
				Program:   progs[rng.Intn(len(progs))],
				Facility:  facs[rng.Intn(len(facs))],
				Body:      fmt.Sprintf("body %d", i),
				Corrupted: rng.Intn(4) == 0,
			},
			Category: cats[rng.Intn(len(cats))],
			Kept:     rng.Intn(2) == 0,
		}
		if rng.Intn(4) == 0 {
			en.Record.Time = en.Record.Time.AddDate(-1, 0, 0)
		}
		if rng.Intn(8) == 0 {
			en.Record.Body = ""
		}
		if len(all) > 0 && rng.Intn(256) < int(ties) {
			p := &all[rng.Intn(len(all))].Record
			en.Record.Time, en.Record.Seq = p.Time, p.Seq
		}
		all = append(all, en)
		in := i
		if i >= k {
			in = rng.Intn(k)
		}
		out[in] = append(out[in], en)
	}
	for _, in := range out {
		sortEntries(in)
	}
	return out
}

// checkMergeDifferential merges the segments built from inputs, in
// input order, and requires the output to be byte for byte what
// buildSegment makes of the stable-sorted concatenation of the entries
// those segments hold — what compaction wrote when it decoded, sorted
// and re-encoded.
func checkMergeDifferential(t *testing.T, inputs [][]Entry) {
	t.Helper()
	var run []*segment
	var concat []Entry
	for i, in := range inputs {
		g, err := parseSegment(fmt.Sprintf(segPattern, i), buildSegment(logrec.Thunderbird, in))
		if err != nil {
			t.Fatal(err)
		}
		ents, err := g.entries()
		if err != nil {
			t.Fatal(err)
		}
		concat = append(concat, ents...)
		run = append(run, g)
	}
	sortEntries(concat)
	want := buildSegment(logrec.Thunderbird, concat)
	got, n, err := mergeSegments(logrec.Thunderbird, run)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(concat) {
		t.Fatalf("merge reports %d records, want %d", n, len(concat))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merge of %d inputs (%d records): %d bytes differ from the %d-byte reference", len(inputs), n, len(got), len(want))
	}
}

// TestCompactMergeMatchesBuildSegment pins the k-way merge compaction
// runs to the decode-sort-encode it replaced, byte for byte: inputs
// whose time ranges overlap or arrive latest-first, equal (time, seq)
// keys across inputs, every corrupted/kept combination, and inputs that
// number the same strings differently.
func TestCompactMergeMatchesBuildSegment(t *testing.T) {
	at := func(sec int, seq uint64, src, cat string, corrupted, kept bool) Entry {
		return Entry{
			Record: logrec.Record{
				Seq: seq, Time: time.Date(2005, 6, 1, 0, 0, sec, 0, time.UTC), System: logrec.Thunderbird,
				Source: src, Program: "kernel", Facility: "kern", Severity: logrec.SevErr,
				Body: fmt.Sprintf("%s %d %d", src, sec, seq), Corrupted: corrupted,
			},
			Category: cat,
			Kept:     kept,
		}
	}
	rng := rand.New(rand.NewSource(36))
	cases := []struct {
		name   string
		inputs [][]Entry
	}{
		{"overlapping", mergeInputs(rng, 4, 600, 0)},
		{"equal-keys", mergeInputs(rng, 3, 400, 200)},
		{"many-small", mergeInputs(rng, 40, 90, 64)},
		{"one-input", mergeInputs(rng, 1, 150, 32)},
		{"latest-first", [][]Entry{
			{at(10, 5, "cn12", "ECC", false, true), at(11, 6, "cn13", "ECC", true, false)},
			{at(1, 1, "cn13", "GM_PAR", true, true), at(2, 2, "cn12", "ECC", false, false)},
		}},
		// Every flag combination, with the same (time, seq) in each input:
		// the tie goes to the earlier input.
		{"flags-tied", [][]Entry{
			{at(5, 1, "a", "X", false, false), at(5, 1, "b", "Y", true, false)},
			{at(5, 1, "c", "X", false, true), at(5, 1, "a", "Y", true, true)},
			{at(5, 1, "b", "Y", true, true), at(6, 0, "c", "X", false, false)},
		}},
		// The same strings, numbered in opposite orders by the two inputs.
		{"renumbered-dicts", [][]Entry{
			{at(1, 1, "a", "X", false, false), at(3, 3, "b", "Y", false, true), at(5, 5, "c", "Z", false, false)},
			{at(2, 2, "c", "Z", true, false), at(4, 4, "b", "Y", false, false), at(6, 6, "a", "X", false, true)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkMergeDifferential(t, tc.inputs) })
	}
}

// FuzzCompactMerge is TestCompactMergeMatchesBuildSegment's property
// over random runs: k inputs, n entries, the tie rate in 256ths.
func FuzzCompactMerge(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(600), uint8(0))
	f.Add(int64(2), uint8(2), uint16(300), uint8(255))
	f.Add(int64(3), uint8(12), uint16(40), uint8(128))
	f.Add(int64(4), uint8(1), uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, k uint8, n uint16, ties uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkMergeDifferential(t, mergeInputs(rng, 1+int(k)%16, 1+int(n)%1000, ties))
	})
}

// TestCompactCorruptInputFailsCleanly: a checksum-valid input holding
// one undecodable record (an out-of-range source id) fails the merge
// before anything is staged. Compact returns an error naming that
// segment and leaves no temp file and no COMPACT record; the inventory
// and every answer are what they were.
func TestCompactCorruptInputFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 500, 37)
	st := buildSealed(t, dir, entries, 100, 0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	bad := fmt.Sprintf(segPattern, 1)
	corruptSourceID(t, filepath.Join(dir, bad), 50)
	st, rep, err := Open(dir, Options{FlushEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rep.Segments != 5 || len(rep.CorruptSegments) != 0 {
		t.Fatalf("the damage is past the checksum, so Open must keep every segment: %+v", rep)
	}
	answers := func() []string {
		var out []string
		for _, f := range []Filter{
			{},
			{To: entries[100].Record.Time},
			{From: entries[250].Record.Time},
			{Sources: []string{"cn12"}},
			{BodyContains: "body 4"},
		} {
			var keys []string
			_, err := st.Scan(f, func(en Entry) error { keys = append(keys, entryKey(en)); return nil })
			v := newSummaryVisitor()
			_, cerr := st.ScanColumns(f, v)
			out = append(out, fmt.Sprintf("%q %v | %+v %v", keys, err, *v, cerr))
		}
		return out
	}
	segs, fp, before := st.Segments(), st.Fingerprint(), answers()

	_, err = st.Compact()
	if err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("Compact over a run holding %s: err %v, want one naming it", bad, err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left: %v", tmps)
	}
	if cm, err := readCompactManifest(dir); err != nil || len(cm.Pending) != 0 {
		t.Fatalf("COMPACT holds %+v (err %v), want no record", cm, err)
	}
	if !reflect.DeepEqual(st.Segments(), segs) || st.Fingerprint() != fp {
		t.Fatalf("inventory changed: %+v, want %+v", st.Segments(), segs)
	}
	if after := answers(); !reflect.DeepEqual(after, before) {
		t.Fatalf("answers changed:\n%q\nwant\n%q", after, before)
	}
}
