package query

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/store"
)

// The columnar differential: for every filter, body predicates
// included, the engine's zero-materialization aggregate must reproduce
// the row-decode reference byte for byte — Aggregation JSON, Partial
// JSON, and ScanStats — across every segment shape the store can be in
// (many small segments, a compacted segment, a wal tail, mixes).

// decodeReference is the row-decode aggregate the engine is pinned to:
// Select (Scan, materialize every match, canonical sort) fed to the
// pure folds. It lives here, not in Engine — production has one
// aggregate implementation.
func decodeReference(t *testing.T, st Scanner, f store.Filter, opts AggregateOptions) (Aggregation, Partial, store.ScanStats) {
	t.Helper()
	entries, stats, err := (&Engine{Store: st}).Select(f, 0)
	if err != nil {
		t.Fatalf("decode reference (%+v): %v", f, err)
	}
	return Aggregate(entries, opts), PartialOf(entries), stats
}

// columnarCorpus builds a deterministic, deliberately messy entry set:
// several sources, categories, and severities, duplicate timestamps,
// and a mix of kept/removed, with recognizable body substrings for the
// body-predicate cases.
func columnarCorpus(n int) []store.Entry {
	rng := rand.New(rand.NewSource(7))
	base := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	sources := []string{"R00-M0", "R00-M1", "R12-M0", "R31-M1", "R31-M1-N2"}
	cats := []string{"KERNDTLB", "KERNMNTF", "APPSEV", "MASABNORM"}
	sevs := []logrec.Severity{logrec.SevFatal, logrec.SevFailure, logrec.SevSevere, logrec.SevInfoBGL}
	out := make([]store.Entry, 0, n)
	at := base
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 { // duplicate timestamps ~1/3 of the time
			at = at.Add(time.Duration(rng.Intn(5000)) * time.Millisecond)
		}
		body := fmt.Sprintf("event %d payload", i)
		if i%7 == 0 {
			body = fmt.Sprintf("data TLB error interrupt %d", i)
		}
		out = append(out, store.Entry{
			Record: logrec.Record{
				Seq: uint64(i), Time: at, System: logrec.BlueGeneL,
				Source:   sources[rng.Intn(len(sources))],
				Severity: sevs[rng.Intn(len(sevs))],
				Body:     body,
			},
			Category: cats[rng.Intn(len(cats))],
			Kept:     rng.Intn(4) > 0,
		})
	}
	return out
}

// columnarFilters is the filter matrix the differential runs: every
// indexed dimension alone, combinations, empty-result shapes, and body
// predicates alone and combined with each kind of other predicate.
func columnarFilters(entries []store.Entry) []store.Filter {
	kept := true
	removed := false
	mid := entries[len(entries)/2].Record.Time
	late := entries[3*len(entries)/4].Record.Time
	return []store.Filter{
		{},
		{Categories: []string{"KERNDTLB"}},
		{Categories: []string{"KERNDTLB", "APPSEV"}},
		{Sources: []string{"R00-M0"}},
		{Severities: []logrec.Severity{logrec.SevFatal}},
		{Kept: &kept},
		{Kept: &removed},
		{From: mid, To: late},
		{From: mid, Categories: []string{"KERNMNTF"}, Kept: &kept},
		{Categories: []string{"NO_SUCH_CATEGORY"}},
		{From: late.Add(time.Hour)},
		// Body predicates: compared in place by the segment walk.
		{BodyContains: "TLB error"},
		{BodyContains: "TLB error", Severities: []logrec.Severity{logrec.SevFatal}},
		{BodyContains: "no such substring anywhere"},
		{BodyContains: "payload", Kept: &removed},
		{BodyContains: "TLB error", From: mid, To: late},
	}
}

// columnarShapes seals the corpus into stores of every shape the
// differential must cover and hands each to check.
func columnarShapes(t *testing.T, entries []store.Entry, check func(name string, st *store.Store)) {
	t.Helper()

	// Many small sealed segments, no tail.
	st, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: 32})
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
	check("pre-compaction", st)

	// The same store compacted: fewer, larger segments.
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	check("post-compaction", st)

	// Sealed segments plus an unsealed wal tail.
	st2, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: len(entries)/3 + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if st2.TailLen() == 0 {
		t.Fatal("shape 'wal tail' has no tail entries")
	}
	check("wal-tail", st2)

	// Tail only: nothing sealed at all.
	st3, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: len(entries) + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if err := st3.Append(entries[:40]...); err != nil {
		t.Fatal(err)
	}
	check("tail-only", st3)
}

// TestColumnarDecodeDifferential pins columnar == decode across the
// shape × filter matrix, at both the Aggregation and Partial layers.
func TestColumnarDecodeDifferential(t *testing.T) {
	entries := columnarCorpus(300)
	opts := AggregateOptions{TopK: 3, Quantiles: []float64{0.5, 0.95}}
	columnarShapes(t, entries, func(shape string, st *store.Store) {
		columnar := &Engine{Store: st}
		for i, f := range columnarFilters(entries) {
			wantAgg, wantP, wantStats := decodeReference(t, st, f, opts)
			gotAgg, gotStats, err := columnar.Aggregate(f, opts)
			if err != nil {
				t.Fatalf("%s filter %d: columnar: %v", shape, i, err)
			}
			wantJSON, _ := json.Marshal(wantAgg)
			gotJSON, _ := json.Marshal(gotAgg)
			if string(wantJSON) != string(gotJSON) {
				t.Errorf("%s filter %d (%+v): aggregation diverged\ncolumnar: %s\ndecode:   %s",
					shape, i, f, gotJSON, wantJSON)
			}
			if !reflect.DeepEqual(wantStats, gotStats) {
				t.Errorf("%s filter %d (%+v): scan stats diverged\ncolumnar: %+v\ndecode:   %+v",
					shape, i, f, gotStats, wantStats)
			}

			gotP, _, err := columnar.PartialContext(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			wantPJ, _ := json.Marshal(wantP)
			gotPJ, _ := json.Marshal(gotP)
			if string(wantPJ) != string(gotPJ) {
				t.Errorf("%s filter %d (%+v): partial diverged\ncolumnar: %s\ndecode:   %s",
					shape, i, f, gotPJ, wantPJ)
			}
		}
	})
}

// benchStore seals a high-cardinality corpus (BG/L-like: thousands of
// distinct sources) for the aggregate-path benchmarks.
func benchStore(b *testing.B, n int) *store.Store {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	base := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	cats := []string{"KERNDTLB", "KERNMNTF", "APPSEV", "MASABNORM"}
	sevs := []logrec.Severity{logrec.SevFatal, logrec.SevFailure, logrec.SevSevere, logrec.SevInfoBGL}
	entries := make([]store.Entry, 0, n)
	at := base
	for i := 0; i < n; i++ {
		at = at.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
		entries = append(entries, store.Entry{
			Record: logrec.Record{
				Seq: uint64(i), Time: at, System: logrec.BlueGeneL,
				Source:   fmt.Sprintf("R%02d-M%d-N%d", rng.Intn(64), rng.Intn(2), rng.Intn(16)),
				Severity: sevs[rng.Intn(len(sevs))],
				Body:     fmt.Sprintf("instruction cache parity error corrected %d", i),
			},
			Category: cats[rng.Intn(len(cats))],
			Kept:     rng.Intn(4) > 0,
		})
	}
	dir := b.TempDir()
	st, err := store.Create(dir, logrec.BlueGeneL, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	if err := st.Append(entries...); err != nil {
		b.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		b.Fatal(err)
	}
	return st
}

func BenchmarkAggregateColumnar(b *testing.B) {
	eng := Engine{Store: benchStore(b, 30000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Aggregate(store.Filter{}, AggregateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateBody is the same aggregate under a body predicate
// every record satisfies: what the in-place substring check adds.
func BenchmarkAggregateBody(b *testing.B) {
	eng := Engine{Store: benchStore(b, 30000)}
	f := store.Filter{BodyContains: "parity error"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Aggregate(f, AggregateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
