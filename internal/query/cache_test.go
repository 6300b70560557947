package query

import (
	"encoding/json"
	"reflect"
	"testing"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/store"
)

// openFixtureStore seals the fixture entries into a store the cache
// tests can mutate.
func openFixtureStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.Append(fixture()...); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCacheHitIsByteIdentical pins the differential property: the
// cached answer (aggregation AND scan stats) marshals to exactly the
// bytes a fresh scan of the unchanged store produces.
func TestCacheHitIsByteIdentical(t *testing.T) {
	st := openFixtureStore(t)
	cold := &Engine{Store: st}
	warm := &Engine{Store: st}
	warm.EnableCache(8)

	f := store.Filter{Categories: []string{"KERNDTLB"}}
	opts := AggregateOptions{TopK: 2}

	wantAgg, wantStats, err := cold.Aggregate(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Miss, then hit.
	for pass, label := range []string{"miss", "hit"} {
		agg, stats, err := warm.Aggregate(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(map[string]any{"stats": stats, "aggregate": agg})
		b, _ := json.Marshal(map[string]any{"stats": wantStats, "aggregate": wantAgg})
		if string(a) != string(b) {
			t.Fatalf("%s (pass %d) response diverges:\ngot:  %s\nwant: %s", label, pass, a, b)
		}
	}
	if n := warm.CacheLen(); n != 1 {
		t.Fatalf("cache entries = %d, want 1", n)
	}
}

// TestCacheInvalidatedByMutation checks staleness is impossible: any
// append (and any seal it triggers) moves the store to a new
// fingerprint, so the next aggregate reflects the new data.
func TestCacheInvalidatedByMutation(t *testing.T) {
	st := openFixtureStore(t)
	eng := &Engine{Store: st}
	eng.EnableCache(8)

	before, _, err := eng.Aggregate(store.Filter{}, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	extra := fixture()
	for i := range extra {
		extra[i].Record.Seq += 100
	}
	if err := st.Append(extra...); err != nil {
		t.Fatal(err)
	}
	after, _, err := eng.Aggregate(store.Filter{}, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Total != 2*before.Total {
		t.Fatalf("post-append aggregate served stale: total %d, want %d", after.Total, 2*before.Total)
	}
	// The stale pre-append entry coexists under its own fingerprint.
	if n := eng.CacheLen(); n != 2 {
		t.Fatalf("cache entries = %d, want 2", n)
	}
}

// TestCacheSurvivesCompaction: compaction changes the fingerprint (new
// inventory) but not the answers — a recompute after compaction equals
// the pre-compaction answer.
func TestCacheSurvivesCompaction(t *testing.T) {
	st := openFixtureStore(t)
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Store: st}
	eng.EnableCache(8)

	before, _, err := eng.Aggregate(store.Filter{}, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cst, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Compactions == 0 {
		t.Fatal("fixture produced no compactable run")
	}
	after, _, err := eng.Aggregate(store.Filter{}, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(before)
	b, _ := json.Marshal(after)
	if string(a) != string(b) {
		t.Fatalf("aggregate changed across compaction:\nbefore: %s\nafter:  %s", a, b)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", Aggregation{Total: 1}, store.ScanStats{})
	c.Put("b", Aggregation{Total: 2}, store.ScanStats{})
	if _, _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", Aggregation{Total: 3}, store.ScanStats{})
	if _, _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b not evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted wrongly", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestCacheKeyDistinguishesFilters(t *testing.T) {
	kept := true
	base := Key(1, store.Filter{}, AggregateOptions{})
	variants := []string{
		Key(2, store.Filter{}, AggregateOptions{}),
		Key(1, store.Filter{Sources: []string{"a"}}, AggregateOptions{}),
		Key(1, store.Filter{Categories: []string{"a"}}, AggregateOptions{}),
		Key(1, store.Filter{Severities: []logrec.Severity{logrec.SevErr}}, AggregateOptions{}),
		Key(1, store.Filter{Kept: &kept}, AggregateOptions{}),
		Key(1, store.Filter{}, AggregateOptions{TopK: 3}),
		Key(1, store.Filter{}, AggregateOptions{Quantiles: []float64{0.5}}),
	}
	seen := map[string]bool{base: true}
	for i, k := range variants {
		if seen[k] {
			t.Errorf("variant %d collides with another key", i)
		}
		seen[k] = true
	}
	// A source and a category with the same value must not collide.
	a := Key(1, store.Filter{Sources: []string{"x"}}, AggregateOptions{})
	b := Key(1, store.Filter{Categories: []string{"x"}}, AggregateOptions{})
	if a == b {
		t.Error("source/category keys collide")
	}
	if !reflect.DeepEqual(
		Key(1, store.Filter{Sources: []string{"x"}}, AggregateOptions{}),
		a,
	) {
		t.Error("Key not deterministic")
	}
}
