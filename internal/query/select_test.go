package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/store"
)

// The bounded-select differential: Select(f, limit) must equal the
// test-side reference — a linear filter over the whole record list, a
// canonical sort, then truncation — whatever the store's shape, while
// its ScanStats account exactly for the segments it skipped.

// selectReference is that reference.
func selectReference(model []store.Entry, f store.Filter, limit int) []store.Entry {
	var out []store.Entry
	for _, en := range model {
		if f.Match(en) {
			out = append(out, en)
		}
	}
	slices.SortStableFunc(out, func(a, b store.Entry) int {
		switch {
		case a.Record.Before(&b.Record):
			return -1
		case b.Record.Before(&a.Record):
			return 1
		}
		return 0
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// selectLimits covers the first entry, small prefixes, the benchmark's
// 50, limits larger than any match count here, and unbounded.
var selectLimits = []int{1, 2, 7, 50, 100, 5000, 0}

// selectFilters is the filter matrix: none, an unindexed flag, postings,
// postings plus the flag, a body predicate, and a window that cuts
// segments.
func selectFilters(model []store.Entry) []store.Filter {
	kept := true
	times := make([]time.Time, len(model))
	for i, en := range model {
		times[i] = en.Record.Time
	}
	slices.SortFunc(times, func(a, b time.Time) int { return a.Compare(b) })
	from, to := times[len(times)/3], times[2*len(times)/3]
	return []store.Filter{
		{},
		{Kept: &kept},
		{Sources: []string{"R00-M1"}},
		{Categories: []string{"KERNDTLB"}, Kept: &kept},
		{BodyContains: "TLB error"},
		{From: from, To: to},
	}
}

// checkSelect runs the filter × limit matrix against one store state
// and returns how many of its selects the bound cut short (pruned a
// segment the unbounded select walked).
func checkSelect(t *testing.T, label string, st *store.Store, model []store.Entry) (cut int) {
	t.Helper()
	eng := &Engine{Store: st}
	for _, f := range selectFilters(model) {
		_, full, err := eng.Select(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range selectLimits {
			got, stt, err := eng.Select(f, limit)
			if err != nil {
				t.Fatalf("%s %+v limit %d: %v", label, f, limit, err)
			}
			want := selectReference(model, f, limit)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s %+v limit %d: got %d entries %s, want %d %s", label, f, limit, len(got), seqs(got), len(want), seqs(want))
			}
			if stt.Segments != stt.SegmentsScanned+stt.SegmentsPruned || stt.Segments != full.Segments {
				t.Fatalf("%s %+v limit %d: segment accounting %+v", label, f, limit, stt)
			}
			if stt.RecordsScanned > full.RecordsScanned || stt.Matched > full.Matched {
				t.Fatalf("%s %+v limit %d: bounded select did more work (%+v) than the unbounded one (%+v)", label, f, limit, stt, full)
			}
			if stt.SegmentsPruned > full.SegmentsPruned {
				cut++
			}
		}
	}
	return cut
}

func seqs(entries []store.Entry) string {
	if len(entries) > 8 {
		return fmt.Sprint(seqs(entries[:8]), "...")
	}
	out := make([]uint64, len(entries))
	for i, en := range entries {
		out[i] = en.Record.Seq
	}
	return fmt.Sprint(out)
}

// lateCorpus is a seeded history with whole-second timestamps (so equal
// times are common), a share of late arrivals stamped up to a minute
// before their neighbours, and an arrival order that is only locally
// seq-ordered — so seals overlap in time and a later segment can hold
// the smaller seq at a shared instant.
func lateCorpus(rng *rand.Rand, n int) []store.Entry {
	base := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	sources := []string{"R00-M0", "R00-M1", "R12-M0", "R31-M1"}
	cats := []string{"KERNDTLB", "KERNMNTF", "APPSEV"}
	out := make([]store.Entry, n)
	at := base
	for i := range out {
		at = at.Add(time.Duration(rng.Intn(3)) * time.Second)
		tm := at
		if rng.Intn(6) == 0 {
			tm = at.Add(-time.Duration(rng.Intn(60)) * time.Second)
		}
		body := fmt.Sprintf("event %d payload", i)
		if i%5 == 0 {
			body = fmt.Sprintf("data TLB error interrupt %d", i)
		}
		out[i] = store.Entry{
			Record: logrec.Record{
				Seq: uint64(i), Time: tm, System: logrec.BlueGeneL,
				Source: sources[rng.Intn(len(sources))], Severity: logrec.SevFatal, Body: body,
			},
			Category: cats[rng.Intn(len(cats))],
			Kept:     rng.Intn(3) > 0,
		}
	}
	for i := range out { // local shuffle: each entry moves at most a few places
		j := min(len(out)-1, i+rng.Intn(8))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// contents is everything st holds, read by an unbounded scan.
func contents(t *testing.T, st *store.Store) []store.Entry {
	t.Helper()
	var all []store.Entry
	if _, err := st.Scan(store.Filter{}, func(en store.Entry) error {
		all = append(all, en)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return all
}

// TestBoundedSelectEqualsFullSort is the seeded differential across
// store histories: appends in random batch splits that seal overlapping
// segments, a full seal, compaction, retention, and a tail-only store.
func TestBoundedSelectEqualsFullSort(t *testing.T) {
	overlapped, retained, cut := false, false, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		entries := lateCorpus(rng, 200+rng.Intn(300))
		st, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: 16 + rng.Intn(48)})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for rest := entries; len(rest) > 0; {
			n := 1 + rng.Intn(min(len(rest), 80))
			if err := st.Append(rest[:n]...); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		segs := st.Segments()
		for i := 1; i < len(segs); i++ {
			overlapped = overlapped || !segs[i].Start.After(segs[i-1].End)
		}
		label := fmt.Sprintf("seed %d", seed)
		cut += checkSelect(t, label+" appended", st, entries)
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
		cut += checkSelect(t, label+" sealed", st, entries)
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		cut += checkSelect(t, label+" compacted", st, entries)
		// Re-delivered records: copies that tie their originals on
		// (time, seq), which a stable sort keeps in scan order.
		redelivered := slices.Clone(entries[:len(entries)/4])
		for i := range redelivered {
			redelivered[i].Record.Body = "redelivered"
		}
		if err := st.Append(redelivered...); err != nil {
			t.Fatal(err)
		}
		segs = st.Segments()
		rs, err := st.ApplyRetention(segs[len(segs)-1].Start)
		if err != nil {
			t.Fatal(err)
		}
		retained = retained || rs.SegmentsDropped > 0
		cut += checkSelect(t, label+" retention", st, contents(t, st))
	}
	if !overlapped || !retained || cut == 0 {
		t.Fatalf("fixture: overlapping seals %v, retention dropped a segment %v, selects cut short by the bound %d", overlapped, retained, cut)
	}

	tailOnly, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer tailOnly.Close()
	entries := lateCorpus(rand.New(rand.NewSource(99)), 300)
	if err := tailOnly.Append(entries...); err != nil {
		t.Fatal(err)
	}
	checkSelect(t, "tail-only", tailOnly, entries)
}

// TestBoundedSelectTiesAcrossSegments: four entries at one instant, the
// larger seqs sealed first, the smaller ones in the next segment, one
// more in the tail. Only seq decides, so every first-k is a mix the
// collector must reach by walking past a full heap whose worst shares
// the instant; refusing at the worst's own time (>= instead of >) stops
// the walk at segment A and returns seqs 10, 11.
func TestBoundedSelectTiesAcrossSegments(t *testing.T) {
	at := time.Date(2005, 6, 1, 12, 0, 0, 0, time.UTC)
	mk := func(seq uint64, d time.Duration) store.Entry {
		return store.Entry{Record: logrec.Record{Seq: seq, Time: at.Add(d), System: logrec.BlueGeneL, Source: "R00-M0"}, Category: "KERNDTLB", Kept: true}
	}
	st, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	model := []store.Entry{mk(10, 0), mk(11, 0), mk(5, 0), mk(6, 0), mk(7, 0), mk(2, time.Second)}
	for _, batch := range [][]store.Entry{model[:2], model[2:4]} {
		if err := st.Append(batch...); err != nil {
			t.Fatal(err)
		}
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append(model[4:]...); err != nil {
		t.Fatal(err)
	}
	for _, f := range []store.Filter{{}, {Sources: []string{"R00-M0"}}} {
		for limit := 0; limit <= len(model)+1; limit++ {
			got, _, err := (&Engine{Store: st}).Select(f, limit)
			if err != nil {
				t.Fatal(err)
			}
			if want := selectReference(model, f, limit); !reflect.DeepEqual(got, want) {
				t.Errorf("%+v limit %d: got seqs %s, want %s", f, limit, seqs(got), seqs(want))
			}
		}
	}
}

// TestBoundedSelectWorkBound: the benchmark's main select shape,
// kept=true&limit=50, over a store of many sealed segments reads the
// first segment or two and prunes the rest — under a tenth of the
// records the unbounded select scans.
func TestBoundedSelectWorkBound(t *testing.T) {
	entries := columnarCorpus(5000)
	st, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: 250})
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
	kept := true
	f := store.Filter{Kept: &kept}
	eng := &Engine{Store: st}
	_, full, err := eng.Select(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, bounded, err := eng.Select(f, 50)
	if err != nil {
		t.Fatal(err)
	}
	if want := selectReference(entries, f, 50); !reflect.DeepEqual(got, want) {
		t.Fatalf("bounded answer diverges: %s vs %s", seqs(got), seqs(want))
	}
	if full.Segments < 10 || 10*bounded.RecordsScanned >= full.RecordsScanned {
		t.Fatalf("limit 50 scanned %d records of the unbounded %d (%d segments)", bounded.RecordsScanned, full.RecordsScanned, full.Segments)
	}
	if bounded.SegmentsPruned < bounded.Segments-2 || bounded.Matched >= full.Matched/10 {
		t.Fatalf("bound did not prune: %+v (unbounded %+v)", bounded, full)
	}
}
