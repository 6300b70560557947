package store

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
)

// makeEntries builds a deterministic synthetic entry stream: n entries
// over a few hours, a handful of sources/categories/severities, ~40%
// kept, already in canonical order.
func makeEntries(t *testing.T, n int, seed int64) []Entry {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	sources := []string{"sn373", "admin1", "cn12", "cn13", "sm0"}
	cats := []string{"ECC", "KERNDTLB", "PBS_CON", "GM_PAR"}
	sevs := []logrec.Severity{logrec.SeverityUnknown, logrec.SevErr, logrec.SevFatal}
	out := make([]Entry, 0, n)
	cur := base
	for i := 0; i < n; i++ {
		cur = cur.Add(time.Duration(rng.Intn(30)) * time.Second)
		out = append(out, Entry{
			Record: logrec.Record{
				Seq:      uint64(i),
				Time:     cur,
				System:   logrec.Thunderbird,
				Source:   sources[rng.Intn(len(sources))],
				Severity: sevs[rng.Intn(len(sevs))],
				Program:  "kernel",
				Body:     fmt.Sprintf("synthetic body %d %08x", i, rng.Uint32()),
			},
			Category: cats[rng.Intn(len(cats))],
			Kept:     rng.Float64() < 0.4,
		})
	}
	return out
}

// sortEntries sorts entries into canonical order, stably: the order a
// seal and a compaction write their records in.
func sortEntries(entries []Entry) {
	sort.SliceStable(entries, func(i, j int) bool { return entryBefore(&entries[i], &entries[j]) })
}

// collect scans the store with f and returns the matches in canonical
// order (the engine's contract, replicated here for direct store tests).
func collect(t *testing.T, s *Store, f Filter) []Entry {
	t.Helper()
	var got []Entry
	if _, err := s.Scan(f, func(en Entry) error {
		got = append(got, en)
		return nil
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	sortEntries(got)
	return got
}

// linearFilter is the reference implementation Scan must agree with.
func linearFilter(entries []Entry, f Filter) []Entry {
	var out []Entry
	for _, en := range entries {
		if f.Match(en) {
			out = append(out, en)
		}
	}
	return out
}

func TestRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 1000, 1)
	st, err := Create(dir, logrec.Thunderbird, Options{FlushEvery: 300})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(entries...); err != nil {
		t.Fatal(err)
	}
	// 1000 entries at FlushEvery=300 → 3 sealed segments + 100 in the tail.
	if got := len(st.Segments()); got != 3 {
		t.Fatalf("segments = %d, want 3", got)
	}
	if got := st.TailLen(); got != 100 {
		t.Fatalf("tail = %d, want 100", got)
	}
	if got := collect(t, st, Filter{}); !reflect.DeepEqual(got, entriesNoRaw(entries)) {
		t.Fatalf("pre-close scan mismatch: got %d entries", len(got))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rep.Segments != 4 || rep.TailEntries != 0 || len(rep.CorruptSegments) != 0 {
		t.Fatalf("open report = %+v", rep)
	}
	if st2.System() != logrec.Thunderbird {
		t.Fatalf("system = %v", st2.System())
	}
	if got := collect(t, st2, Filter{}); !reflect.DeepEqual(got, entriesNoRaw(entries)) {
		t.Fatalf("post-reopen scan mismatch: got %d entries, want %d", len(got), len(entries))
	}
}

// entriesNoRaw strips the fields the store intentionally does not
// persist (Record.Raw) so DeepEqual compares what the store promises.
func entriesNoRaw(entries []Entry) []Entry {
	out := make([]Entry, len(entries))
	for i, en := range entries {
		en.Record.Raw = ""
		out[i] = en
	}
	return out
}

func TestScanMatchesLinearReference(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 2000, 7)
	st, err := Create(dir, logrec.Thunderbird, Options{FlushEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(entries...); err != nil {
		t.Fatal(err)
	}
	ref := entriesNoRaw(entries)
	mid := entries[len(entries)/2].Record.Time
	late := entries[3*len(entries)/4].Record.Time
	kept, notKept := true, false
	filters := []Filter{
		{},
		{From: mid},
		{To: mid},
		{From: mid, To: late},
		{Categories: []string{"ECC"}},
		{Categories: []string{"ECC", "GM_PAR"}},
		{Sources: []string{"sn373"}},
		{Sources: []string{"sn373", "cn12"}, Categories: []string{"PBS_CON"}},
		{Severities: []logrec.Severity{logrec.SevFatal}},
		{Kept: &kept},
		{Kept: &notKept, Categories: []string{"KERNDTLB"}, From: mid},
		{Sources: []string{"no-such-node"}},
		{Categories: []string{"ECC"}, Severities: []logrec.Severity{logrec.SevErr, logrec.SeverityUnknown}, From: mid, To: late},
	}
	for i, f := range filters {
		want := linearFilter(ref, f)
		got := collect(t, st, f)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("filter %d: got %d entries, want %d", i, len(got), len(want))
		}
	}
}

func TestScanStatsPruning(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 900, 3)
	st, err := Create(dir, logrec.Thunderbird, Options{FlushEvery: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	// A window entirely before the log prunes every segment.
	stt, err := st.Scan(Filter{To: entries[0].Record.Time}, func(Entry) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stt.SegmentsPruned != stt.Segments || stt.SegmentsScanned != 0 {
		t.Errorf("want all %d segments pruned, got %+v", stt.Segments, stt)
	}
	// A narrow window in the last segment prunes the earlier ones.
	last := entries[len(entries)-1].Record.Time
	stt, err = st.Scan(Filter{From: last}, func(Entry) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stt.SegmentsScanned != 1 || stt.SegmentsPruned != 2 {
		t.Errorf("want 1 scanned / 2 pruned, got %+v", stt)
	}
	// A predicate scan examines only its candidates.
	stt, err = st.Scan(Filter{Sources: []string{"sm0"}}, func(Entry) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stt.Matched == 0 || stt.RecordsScanned >= len(entries) {
		t.Errorf("postings scan should skip blocks: %+v", stt)
	}
}

func TestTailSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 120, 5)
	st, err := Create(dir, logrec.Thunderbird, Options{FlushEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(entries...); err != nil {
		t.Fatal(err)
	}
	// Simulated crash: drop the store without Close, so nothing sealed.
	st2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rep.Segments != 0 || rep.TailEntries != len(entries) || rep.TailDroppedBytes != 0 {
		t.Fatalf("open report = %+v", rep)
	}
	if got := collect(t, st2, Filter{}); !reflect.DeepEqual(got, entriesNoRaw(entries)) {
		t.Fatalf("tail recovery mismatch: got %d entries", len(got))
	}
}

func TestCreateRefusesOtherSystem(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, logrec.Spirit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := Create(dir, logrec.Liberty, Options{}); err == nil {
		t.Fatal("creating a liberty store over a spirit store must fail")
	}
	// Same system reopens.
	st2, err := Create(dir, logrec.Spirit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
}

func TestOpenWithoutManifestFails(t *testing.T) {
	if _, _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("open of a non-store directory must fail")
	}
}

func TestSealIsAtomicOnDisk(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 100, 9)
	st, err := Create(dir, logrec.Thunderbird, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("want 1 sealed segment, got %v", segs)
	}
}

// TestMultiSealAppendLayout: an Append that fills several segments at
// once writes exactly the files a seal per FlushEvery would have — each
// segment a FlushEvery cut of the canonically sorted tail, in order —
// and leaves the wal at the new epoch holding the remainder's frames in
// canonical order. The cases cover an out-of-order tail (shuffled, out
// of order across two appends, or holding equal (time, seq) keys in
// different batches, which must keep their append order) and one sealed
// as it stands.
func TestMultiSealAppendLayout(t *testing.T) {
	const flush = 100
	shuffled := func(seed int64) []Entry {
		en := makeEntries(t, 350, seed)
		rand.New(rand.NewSource(seed)).Shuffle(len(en), func(i, j int) { en[i], en[j] = en[j], en[i] })
		return en
	}
	cases := []struct {
		name    string
		batches [][]Entry
	}{
		{"shuffled", [][]Entry{shuffled(71)}},
		{"sorted", [][]Entry{makeEntries(t, 350, 72)}},
		{"tail-then-batch", func() [][]Entry { en := shuffled(73); return [][]Entry{en[:30], en[30:]} }()},
		// Equal (time, seq) in different batches of an out-of-order tail:
		// each of 175 entries twice, the copy with its own body and flags.
		// Two short batches (no seal yet) hold some originals and some
		// copies, the last batch the rest of both, so either copy of a
		// pair can be the one appended first.
		{"ties-across-batches", func() [][]Entry {
			orig := makeEntries(t, 175, 75)
			dup := slices.Clone(orig)
			for i := range dup {
				dup[i].Record.Body = "copy of " + dup[i].Record.Body
				dup[i].Record.Corrupted = true
				dup[i].Kept = !dup[i].Kept
			}
			rng := rand.New(rand.NewSource(75))
			rng.Shuffle(len(orig), func(i, j int) { orig[i], orig[j] = orig[j], orig[i] })
			rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
			last := append(slices.Clone(orig[40:]), dup[50:]...)
			rng.Shuffle(len(last), func(i, j int) { last[i], last[j] = last[j], last[i] })
			return [][]Entry{orig[:40], dup[:50], last}
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Create(dir, logrec.Thunderbird, Options{FlushEvery: flush})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			var ref []Entry
			for _, b := range tc.batches {
				if err := st.Append(b...); err != nil {
					t.Fatal(err)
				}
				ref = append(ref, b...)
			}
			// The reference order, computed independently of sortEntries.
			slices.SortStableFunc(ref, func(a, b Entry) int {
				if c := a.Record.Time.Compare(b.Record.Time); c != 0 {
					return c
				}
				return cmp.Compare(a.Record.Seq, b.Record.Seq)
			})
			nSegs := len(ref) / flush
			for k := 0; k <= nSegs; k++ {
				got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(segPattern, k)))
				if k == nSegs {
					if !errors.Is(err, fs.ErrNotExist) {
						t.Fatalf("segment %d of %d written (err %v)", k+1, nSegs, err)
					}
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, buildSegment(logrec.Thunderbird, ref[k*flush:(k+1)*flush])) {
					t.Fatalf("segment %d differs from the reference cut", k)
				}
			}
			want := appendWalHeader(nil, nSegs)
			for i := nSegs * flush; i < len(ref); i++ {
				want = appendWalFrame(want, &ref[i])
			}
			got, err := os.ReadFile(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("wal: %d bytes, want the header at epoch %d and %d frames (%d bytes)", len(got), nSegs, len(ref)-nSegs*flush, len(want))
			}
			if n := st.TailLen(); n != len(ref)-nSegs*flush {
				t.Fatalf("tail holds %d entries, want %d", n, len(ref)-nSegs*flush)
			}
		})
	}
}

// TestWalFrameLenIsExact: the length Append and the wal rewrite size
// their buffers by is the length appendWalFrame writes.
func TestWalFrameLenIsExact(t *testing.T) {
	entries := makeEntries(t, 200, 74)
	entries[0].Record.Time = time.Unix(0, -1).UTC() // a negative varint
	entries[1].Record.Seq = math.MaxUint64
	entries[2].Record.Body = strings.Repeat("x", 300) // a two-byte length
	for i := range entries {
		if got, want := len(appendWalFrame(nil, &entries[i])), walFrameLen(&entries[i]); got != want {
			t.Fatalf("entry %d: frame is %d bytes, walFrameLen says %d", i, got, want)
		}
	}
	if got := len(appendWalHeader(nil, math.MaxInt)); got > walHeaderLen {
		t.Fatalf("header is %d bytes, over walHeaderLen %d", got, walHeaderLen)
	}
}

func TestPostingsCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		var ords []uint32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.3 {
				ords = append(ords, uint32(i))
			}
		}
		var e enc
		appendPostings(&e, ords, n)
		d := &dec{b: e.b}
		got := decodePostings(d)
		if d.err != nil {
			t.Fatalf("trial %d: decode error %v", trial, d.err)
		}
		if len(got) == 0 && len(ords) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, ords) {
			t.Fatalf("trial %d: postings round-trip mismatch", trial)
		}
	}
}

// TestFromOnBlockStartInstantSealedEqualsTail pins the time seeks
// against a run of same-instant records longer than one block of the
// written sparse index (where the decode-era walk lost records): the
// run ends block 0 and starts block 1, so block 1's index point is
// exactly the run's instant. A window opening on, just before, or just
// after that instant must match the same records sealed as it did in
// the tail — through the range walk (time-only filter) and the postings
// walk (category filter), for Scan and ScanColumns alike.
func TestFromOnBlockStartInstantSealedEqualsTail(t *testing.T) {
	instant := time.Date(2004, 8, 15, 1, 8, 58, 0, time.UTC)
	var entries []Entry
	for i := 0; i < 3*indexInterval; i++ {
		tm := instant
		switch {
		case i < indexInterval/2:
			tm = instant.Add(time.Duration(i-indexInterval/2) * time.Second)
		case i > 2*indexInterval-10:
			tm = instant.Add(time.Duration(i-(2*indexInterval-10)) * time.Second)
		}
		entries = append(entries, Entry{
			Record: logrec.Record{
				Seq: uint64(i), Time: tm, System: logrec.Liberty,
				Source: fmt.Sprintf("ln%d", i%3), Severity: logrec.SevErr, Body: "x",
			},
			Category: []string{"GM_PAR", "PBS_CHK"}[i%2],
			Kept:     i%4 == 0,
		})
	}
	s, err := Create(t.TempDir(), logrec.Liberty, Options{FlushEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(entries...); err != nil {
		t.Fatal(err)
	}

	type answer struct {
		entries          []Entry
		matched, columns int
	}
	ask := func(f Filter) answer {
		t.Helper()
		var a answer
		st, err := s.Scan(f, func(en Entry) error {
			a.entries = append(a.entries, en)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sortEntries(a.entries)
		a.matched = st.Matched
		var v countingVisitor
		cst, err := s.ScanColumns(f, &v)
		if err != nil {
			t.Fatal(err)
		}
		if cst.Matched != st.Matched {
			t.Fatalf("%+v: ScanColumns matched %d, Scan %d", f, cst.Matched, st.Matched)
		}
		a.columns = v.sealedMatched + v.tail
		return a
	}

	var filters []Filter
	for _, from := range []time.Time{instant, instant.Add(-time.Nanosecond), instant.Add(time.Nanosecond)} {
		filters = append(filters, Filter{From: from}, Filter{From: from, Categories: []string{"GM_PAR"}})
	}
	tail := make([]answer, len(filters))
	for i, f := range filters {
		tail[i] = ask(f)
		if want := linearFilter(entries, f); !reflect.DeepEqual(tail[i].entries, want) {
			t.Fatalf("%+v: tail scan returns %d entries, linear reference %d", f, len(tail[i].entries), len(want))
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if s.TailLen() != 0 || len(s.Segments()) != 1 {
		t.Fatalf("seal left tail %d, segments %d", s.TailLen(), len(s.Segments()))
	}
	for i, f := range filters {
		sealed := ask(f)
		if !reflect.DeepEqual(sealed.entries, tail[i].entries) || sealed.matched != tail[i].matched || sealed.columns != tail[i].columns {
			t.Errorf("%+v: sealed answer (%d entries, matched %d, columns %d) differs from the tail's (%d, %d, %d)",
				f, len(sealed.entries), sealed.matched, sealed.columns, len(tail[i].entries), tail[i].matched, tail[i].columns)
		}
	}
}

// TestPastBoundTiesAcrossSegments pins ErrPastBound's tie rule on
// entries that share one instant T across two segments and the tail, so
// that only seq orders them. The callback wants every entry up to the
// pivot (T, 7) in canonical order and refuses the first one after it —
// (T, 11), early in segment A — which bounds the scan at T. Segment B
// starts at exactly T and holds (T, 5); the tail holds (T, 4): both sort
// before the pivot and must still be handed over, while the rest of A,
// segment C (starting at T+1s) and the tail's later entry must not be.
// A segment skip or tail skip at the bound's own time (>= instead of >)
// loses (T, 5) or (T, 4) here.
func TestPastBoundTiesAcrossSegments(t *testing.T) {
	at := time.Date(2005, 6, 1, 12, 0, 0, 0, time.UTC)
	mk := func(seq uint64, d time.Duration) Entry {
		return Entry{
			Record:   logrec.Record{Seq: seq, Time: at.Add(d), System: logrec.Thunderbird, Source: "cn1", Body: "x"},
			Category: "ECC",
		}
	}
	s, err := Create(t.TempDir(), logrec.Thunderbird, Options{FlushEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, batch := range [][]Entry{
		{mk(3, 0), mk(11, 0), mk(12, time.Second), mk(13, 2*time.Second)}, // A
		{mk(5, 0)}, // B: starts at T, sealed after A
		{mk(1, time.Second), mk(2, 3*time.Second)}, // C: starts after T
	} {
		if err := s.Append(batch...); err != nil {
			t.Fatal(err)
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(mk(4, 0), mk(0, 4*time.Second)); err != nil { // tail
		t.Fatal(err)
	}
	if segs := s.Segments(); len(segs) != 3 || !segs[1].Start.Equal(at) || !segs[2].Start.After(at) {
		t.Fatalf("fixture: segments %+v", segs)
	}

	pivot := mk(7, 0).Record
	for _, f := range []Filter{{}, {Categories: []string{"ECC"}}} { // range walk, postings walk
		var got []uint64
		refused := false
		st, err := s.Scan(f, func(en Entry) error {
			if refused && en.Record.Time.After(at) {
				t.Errorf("%+v: handed (%v, %d) after the scan was bounded at T", f, en.Record.Time, en.Record.Seq)
			}
			if pivot.Before(&en.Record) {
				refused = true
				return ErrPastBound
			}
			got = append(got, en.Record.Seq)
			return nil
		})
		if err != nil {
			t.Fatalf("%+v: the sentinel escaped the scan: %v", f, err)
		}
		slices.Sort(got)
		if want := []uint64{3, 4, 5}; !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: kept seqs %v, want %v", f, got, want)
		}
		if st.SegmentsScanned != 2 || st.SegmentsPruned != 1 || st.Segments != st.SegmentsScanned+st.SegmentsPruned {
			t.Errorf("%+v: stats %+v, want 2 scanned + 1 pruned by the bound", f, st)
		}
	}
}

// TestSizeGaugesSumOverStores: store_segments and store_tail_entries sum
// over every open store in the process, and a closed store retires its
// share — rather than reading whichever store published last.
func TestSizeGaugesSumOverStores(t *testing.T) {
	segs0, tail0 := gSegments.Value(), gTailEntries.Value()
	open := func(n int) *Store {
		t.Helper()
		s, err := Create(t.TempDir(), logrec.Thunderbird, Options{FlushEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(makeEntries(t, n, int64(n))...); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := open(53) // 5 segments, 3 tail entries
	defer a.Close()
	b := open(24) // 2 segments, 4 tail entries
	if segs, tail := gSegments.Value()-segs0, gTailEntries.Value()-tail0; segs != 7 || tail != 7 {
		t.Fatalf("two stores: store_segments %v, store_tail_entries %v, want 7 and 7", segs, tail)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, tail := gSegments.Value()-segs0, gTailEntries.Value()-tail0; segs != 5 || tail != 3 {
		t.Fatalf("after a close: store_segments %v, store_tail_entries %v, want 5 and 3", segs, tail)
	}
}

// TestTailSnapshotUnderAppendAndSeal: a scan reads the unsealed tail in
// place, without copying it, while appends grow the tail and seals sort
// a copy of it away. Scan and ScanColumns, racing two appenders and a
// sealer over batches that arrive out of time order, each answer
// exactly the entries acknowledged as of their ScanStats.Seq: every
// entry whole, none twice. Under -race the test also fails if anything
// writes a tail element a scan may be reading.
func TestTailSnapshotUnderAppendAndSeal(t *testing.T) {
	st, err := Create(t.TempDir(), logrec.Thunderbird, Options{FlushEvery: 45})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var mu sync.Mutex
	acked := map[uint64][]Entry{} // append Seq -> the normalized batch
	st.SetObserver(func(m Mutation) {
		if m.Kind == MutationAppend {
			mu.Lock()
			acked[m.Seq] = m.Entries
			mu.Unlock()
		}
	})
	// summaryOf is what a ScanColumns pass over entries must report.
	summaryOf := func(entries []Entry) *summaryVisitor {
		v := newSummaryVisitor()
		for _, en := range entries {
			v.Matched++
			if en.Kept {
				v.Kept++
			}
			v.Sources[en.Record.Source]++
			v.Categories[en.Category]++
			v.Severities[int(en.Record.Severity)]++
			v.Times = append(v.Times, en.Record.Time.UnixNano())
		}
		slices.Sort(v.Times)
		return v
	}
	type answer struct {
		seq  uint64
		keys []string        // Scan: every match's full content
		cols *summaryVisitor // ScanColumns
	}
	scanOnce := func(columns bool) (answer, error) {
		var a answer
		var stats ScanStats
		var err error
		if columns {
			a.cols = newSummaryVisitor()
			stats, err = st.ScanColumns(Filter{}, a.cols)
			slices.Sort(a.cols.Times)
		} else {
			stats, err = st.Scan(Filter{}, func(en Entry) error {
				a.keys = append(a.keys, entryKey(en))
				return nil
			})
			sort.Strings(a.keys)
		}
		a.seq = stats.Seq
		return a, err
	}

	const appenders, perAppender, perBatch = 2, 40, 6
	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	stop := make(chan struct{})
	var writers, loops sync.WaitGroup
	for w := 0; w < appenders; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for b := 0; b < perAppender; b++ {
				batch := makeEntries(t, perBatch, int64(w*perAppender+b))
				for i := range batch {
					// Each batch is older than the one before it, newest
					// entry first, so every seal reorders the tail.
					id := (w*perAppender+b)*perBatch + i
					batch[i].Record.Seq = uint64(id)
					batch[i].Record.Time = base.Add(-time.Duration(id) * time.Second)
				}
				if err := st.Append(batch...); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
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
	var answers []answer
	var answersMu sync.Mutex
	for _, columns := range []bool{false, true} {
		loop(func() error {
			a, err := scanOnce(columns)
			answersMu.Lock()
			answers = append(answers, a)
			answersMu.Unlock()
			return err
		})
	}
	writers.Wait()
	close(stop)
	loops.Wait()

	// Every Append has returned, so every batch a scan saw was notified.
	if len(answers) == 0 {
		t.Fatal("no scan ran against the writers")
	}
	for _, a := range answers {
		var want []Entry
		for seq, batch := range acked {
			if seq <= a.seq {
				want = append(want, batch...)
			}
		}
		if a.cols != nil {
			if !reflect.DeepEqual(a.cols, summaryOf(want)) {
				t.Fatalf("ScanColumns at Seq %d: %d matched, %d acknowledged", a.seq, a.cols.Matched, len(want))
			}
			continue
		}
		keys := make([]string, len(want))
		for i, en := range want {
			keys[i] = entryKey(en)
		}
		sort.Strings(keys)
		if !slices.Equal(a.keys, keys) {
			t.Fatalf("Scan at Seq %d: %d entries, %d acknowledged", a.seq, len(a.keys), len(keys))
		}
	}
}

// TestAppendRefusesWideSeverity: a severity the column projection
// cannot hold in a byte is refused at Append, before the wal, rather
// than sealed into a segment every later scan would fail on.
func TestAppendRefusesWideSeverity(t *testing.T) {
	s, err := Create(t.TempDir(), logrec.Thunderbird, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, sev := range []logrec.Severity{-1, 256} {
		batch := makeEntries(t, 3, 1)
		batch[1].Record.Severity = sev
		if err := s.Append(batch...); err == nil {
			t.Fatalf("severity %d appended", sev)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("a refused batch left %d entries", s.Len())
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
}
