package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"whatsupersay/internal/logrec"
)

// Byte-exact kill simulation: crashHook makes the production code
// return at a named window between durability steps without any
// cleanup, the test abandons the store (no Close), and reopening the
// directory must recover to exactly-once — every acknowledged entry
// present, none duplicated, regardless of which window the kill hit.

var errKill = errors.New("simulated kill")

// killAt installs a hook that simulates a kill at the named window and
// uninstalls it when the test ends (and before any reopen).
func killAt(t *testing.T, point string) {
	t.Helper()
	SetCrashHook(func(_, p string) error {
		if p == point {
			return errKill
		}
		return nil
	})
	t.Cleanup(func() { SetCrashHook(nil) })
}

// reopenAndCheck clears the hook, reopens dir, and asserts the full
// scan returns exactly want (each acknowledged entry once).
func reopenAndCheck(t *testing.T, dir string, want []Entry) *OpenReport {
	t.Helper()
	SetCrashHook(nil)
	st, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer st.Close()
	got := collect(t, st, Filter{})
	wantSorted := entriesNoRaw(want)
	sortEntries(wantSorted)
	if !reflect.DeepEqual(got, wantSorted) {
		t.Fatalf("exactly-once violated: recovered %d entries, want %d", len(got), len(wantSorted))
	}
	// Recovery must also leave a normalized directory: no temp files, no
	// pending compaction records.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left after recovery: %v", tmps)
	}
	if cm, err := readCompactManifest(dir); err != nil || len(cm.Pending) != 0 {
		t.Fatalf("compact manifest not cleared: %+v err %v", cm, err)
	}
	return rep
}

// sealKilledStore appends entries, then triggers a seal that dies at
// the point window. The hook is installed only for the seal itself:
// Create also rewrites the wal (normalizing a fresh store), and a kill
// there would fail setup, not the operation under test.
func sealKilledStore(t *testing.T, dir string, entries []Entry, point string) {
	t.Helper()
	st, err := Create(dir, logrec.Thunderbird, Options{FlushEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(entries...); err != nil {
		t.Fatal(err)
	}
	killAt(t, point)
	if err := st.Seal(); !errors.Is(err, errKill) {
		t.Fatalf("seal survived the kill: %v", err)
	}
	// Abandoned: no Close, like a real process death.
}

func TestKillBeforeSegmentWrite(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 150, 51)
	sealKilledStore(t, dir, entries, crashSealBeforeSegment)
	rep := reopenAndCheck(t, dir, entries)
	// Nothing sealed; everything rides the wal.
	if rep.Segments != 0 || rep.TailEntries != len(entries) || rep.TailDedupedEntries != 0 {
		t.Fatalf("report: %+v", rep)
	}
}

// TestKillAfterSegmentRenamed covers the dup window: the segment is
// durable but the wal still carries the sealed batch. Recovery must
// subtract the wal copies rather than serve them twice.
func TestKillAfterSegmentRenamed(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 150, 53)
	sealKilledStore(t, dir, entries, crashSealSegmentRenamed)
	rep := reopenAndCheck(t, dir, entries)
	if rep.Segments != 1 || rep.TailEntries != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.TailDedupedEntries != len(entries) {
		t.Fatalf("TailDedupedEntries = %d, want %d (the whole sealed batch)", rep.TailDedupedEntries, len(entries))
	}
}

// TestKillAfterWalTmpWritten is the window the old truncate-then-write
// protocol lost acknowledged entries in: the replacement wal is staged
// but not yet renamed. Both wals exist; the old one is still live.
func TestKillAfterWalTmpWritten(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 150, 55)
	sealKilledStore(t, dir, entries, crashWalTmpWritten)
	rep := reopenAndCheck(t, dir, entries)
	// Segment committed; the stale wal's frames are subtracted, and the
	// staged wal.log.tmp is swept.
	if rep.Segments != 1 || rep.TailDedupedEntries != len(entries) || rep.TempFilesRemoved != 1 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestKillAfterWalRenamed(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 150, 57)
	sealKilledStore(t, dir, entries, crashWalRenamed)
	rep := reopenAndCheck(t, dir, entries)
	// The rewrite completed before the kill: steady state, no repair.
	if rep.Segments != 1 || rep.TailEntries != 0 || rep.TailDedupedEntries != 0 || rep.TempFilesRemoved != 0 {
		t.Fatalf("report: %+v", rep)
	}
}

// TestKillDuringAppendSealWindows drives the same windows through
// Append's automatic seal (tail reaching FlushEvery), with a remainder
// left in the tail — the remainder must survive alongside the sealed
// prefix. The multi cases append 3.5 segments' worth of shuffled entries
// at once: Append seals three segments and then rewrites the wal once,
// so the seal windows are hit three times and the wal windows once. A
// kill at the k-th hit leaves a wal whose epoch trails the inventory by
// up to k segments, and Open must subtract exactly their entries.
func TestKillDuringAppendSealWindows(t *testing.T) {
	points := []string{
		crashSealBeforeSegment,
		crashSealSegmentRenamed,
		crashWalTmpWritten,
		crashWalRenamed,
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			entries := makeEntries(t, 130, 59)
			st, err := Create(dir, logrec.Thunderbird, Options{FlushEvery: 100})
			if err != nil {
				t.Fatal(err)
			}
			killAt(t, point)
			// The 130-entry batch crosses FlushEvery, so Append seals 100
			// and dies at the window; 30 remain unsealed.
			if err := st.Append(entries...); !errors.Is(err, errKill) {
				t.Fatalf("append survived the kill: %v", err)
			}
			reopenAndCheck(t, dir, entries)
		})
	}
	for _, point := range points {
		hitsPerAppend := 3
		if point == crashWalTmpWritten || point == crashWalRenamed {
			hitsPerAppend = 1
		}
		for occ := 1; occ <= 3; occ++ {
			t.Run(fmt.Sprintf("multi/%s/%d", point, occ), func(t *testing.T) {
				dir := t.TempDir()
				entries := makeEntries(t, 350, int64(60+occ))
				rand.New(rand.NewSource(int64(occ))).Shuffle(len(entries), func(i, j int) {
					entries[i], entries[j] = entries[j], entries[i]
				})
				st, err := Create(dir, logrec.Thunderbird, Options{FlushEvery: 100})
				if err != nil {
					t.Fatal(err)
				}
				hits := map[string]int{}
				SetCrashHook(func(_, p string) error {
					if hits[p]++; p == point && hits[p] == occ {
						return errKill
					}
					return nil
				})
				t.Cleanup(func() { SetCrashHook(nil) })
				err = st.Append(entries...)
				switch killed := occ <= hitsPerAppend; {
				case killed && !errors.Is(err, errKill):
					t.Fatalf("append survived the kill at hit %d: %v", occ, err)
				case !killed && err != nil:
					t.Fatalf("append: %v", err)
				case !killed && hits[point] != hitsPerAppend:
					t.Fatalf("%s hit %d times in one Append, want %d", point, hits[point], hitsPerAppend)
				}
				// Abandoned: no Close, like a real process death. Every
				// segment committed before the kill is still in the wal.
				committed := map[string]int{
					crashSealBeforeSegment:  occ - 1,
					crashSealSegmentRenamed: occ,
					crashWalTmpWritten:      3,
				}[point]
				if occ > hitsPerAppend {
					committed = 0
				}
				want := dupWindow(t, dir)
				if want != committed*100 {
					t.Fatalf("the wal trails %d entries of segments, want %d", want, committed*100)
				}
				rep := reopenAndCheck(t, dir, entries)
				if rep.TailDedupedEntries != want {
					t.Fatalf("TailDedupedEntries = %d, want %d (the entries of segments at or after the wal's epoch)", rep.TailDedupedEntries, want)
				}
			})
		}
	}
}

// dupWindow counts the entries of the segments in dir numbered at or
// after the wal's epoch: the ones a seal committed before the kill
// stopped it from rewriting the wal, which still holds their frames.
func dupWindow(t *testing.T, dir string) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	_, epoch, _, damage := replayWal(raw, logrec.Thunderbird)
	if damage != nil || epoch < 0 {
		t.Fatalf("wal after the kill: epoch %d, damage %v", epoch, damage)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, path := range paths {
		if segNum(filepath.Base(path)) < epoch {
			continue
		}
		g, err := openSegmentFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n += g.count
		g.release()
	}
	return n
}

// compactKilledStore builds a sealed multi-segment store and triggers a
// compaction that dies at the point window (installed only once setup
// is done — seals also cross the wal crash points). Returns the number
// of segments the doomed merge consumed.
func compactKilledStore(t *testing.T, dir string, entries []Entry, point string) int {
	t.Helper()
	st := buildSealed(t, dir, entries, 100, 0)
	killAt(t, point)
	nIn, _, _ := func() (int, int, bool) {
		st.mu.RLock()
		defer st.mu.RUnlock()
		a, b, ok := pickCompactRun(st.segs, st.opts.compactTarget())
		return b - a, a, ok
	}()
	if nIn < 2 {
		t.Fatalf("no compactable run in fixture (%d)", nIn)
	}
	if _, err := st.Compact(); !errors.Is(err, errKill) {
		t.Fatalf("compact survived the kill: %v", err)
	}
	return nIn
}

func TestKillMidCompaction(t *testing.T) {
	cases := []struct {
		point string
		// wantSuperseded: the kill left committed-but-undeleted inputs
		// that recovery must remove (the never-double-serve half of the
		// contract); elsewhere the inputs are still authoritative (the
		// never-lose half).
		wantSuperseded bool
	}{
		{crashCompactTmpWritten, false},
		{crashCompactManifestWritten, false},
		{crashCompactOutputRenamed, true},
		{crashCompactInputsRemoved, false},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			entries := makeEntries(t, 800, 61)
			nIn := compactKilledStore(t, dir, entries, tc.point)
			rep := reopenAndCheck(t, dir, entries)
			if tc.wantSuperseded && rep.SupersededSegments != nIn {
				t.Fatalf("SupersededSegments = %d, want %d", rep.SupersededSegments, nIn)
			}
			if !tc.wantSuperseded && rep.SupersededSegments != 0 {
				t.Fatalf("SupersededSegments = %d, want 0", rep.SupersededSegments)
			}
		})
	}
}

// TestKillMidCompactionThenCompactAgain reopens after every kill window
// and finishes the job: the store must compact cleanly on the second
// attempt, ending in the same state an uninterrupted run reaches.
func TestKillMidCompactionThenCompactAgain(t *testing.T) {
	for _, point := range []string{
		crashCompactTmpWritten,
		crashCompactManifestWritten,
		crashCompactOutputRenamed,
		crashCompactInputsRemoved,
	} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			entries := makeEntries(t, 800, 63)
			compactKilledStore(t, dir, entries, point)
			SetCrashHook(nil)
			st, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			got := collect(t, st, Filter{})
			want := entriesNoRaw(entries)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("post-recovery compaction broke the entry set: %d of %d", len(got), len(want))
			}
		})
	}
}
