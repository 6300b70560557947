package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/query"
	"whatsupersay/internal/store"
)

// makeEntries builds a deterministic synthetic entry set spread over
// enough distinct sources that every shard count under test gets data
// on every shard.
func makeEntries(t *testing.T, n int, seed int64) []store.Entry {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	cats := []string{"ECC", "KERNDTLB", "PBS_CON", "GM_PAR"}
	sevs := []logrec.Severity{logrec.SeverityUnknown, logrec.SevErr, logrec.SevFatal}
	out := make([]store.Entry, 0, n)
	cur := base
	for i := 0; i < n; i++ {
		cur = cur.Add(time.Duration(rng.Intn(30)) * time.Second)
		out = append(out, store.Entry{
			Record: logrec.Record{
				Seq:      uint64(i),
				Time:     cur,
				System:   logrec.Thunderbird,
				Source:   fmt.Sprintf("cn%d", rng.Intn(40)),
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

// matchesFilter replicates store.Filter semantics as an independent
// reference for building expected result sets.
func matchesFilter(f store.Filter, en store.Entry) bool {
	tm := en.Record.Time
	if !f.From.IsZero() && tm.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && !tm.Before(f.To) {
		return false
	}
	if len(f.Sources) > 0 && !containsString(f.Sources, en.Record.Source) {
		return false
	}
	if len(f.Categories) > 0 && !containsString(f.Categories, en.Category) {
		return false
	}
	if len(f.Severities) > 0 {
		ok := false
		for _, sev := range f.Severities {
			ok = ok || sev == en.Record.Severity
		}
		if !ok {
			return false
		}
	}
	if f.Kept != nil && *f.Kept != en.Kept {
		return false
	}
	return strings.Contains(en.Record.Body, f.BodyContains)
}

func containsString(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// newTestCluster creates a cluster, appends entries through the routed
// ingest path, and registers cleanup.
func newTestCluster(t *testing.T, shards int, entries []store.Entry, opts Options) *Cluster {
	t.Helper()
	c, rep, err := Create(t.TempDir(), logrec.Thunderbird, shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if len(rep.Quarantined) != 0 {
		t.Fatalf("fresh cluster has quarantined shards: %v", rep.Quarantined)
	}
	if len(entries) > 0 {
		ar, err := c.Append(entries)
		if err != nil {
			t.Fatal(err)
		}
		if ar.Appended != len(entries) || len(ar.Errors) != 0 || len(ar.Rejected) != 0 {
			t.Fatalf("append did not land cleanly: %+v", ar)
		}
	}
	return c
}

func TestShardForDeterministicAndSpread(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		hit := map[int]bool{}
		for i := 0; i < 200; i++ {
			src := fmt.Sprintf("cn%d", i)
			id := ShardFor(src, n)
			if id < 0 || id >= n {
				t.Fatalf("ShardFor(%q, %d) = %d out of range", src, n, id)
			}
			if id != ShardFor(src, n) {
				t.Fatalf("ShardFor(%q, %d) unstable", src, n)
			}
			// The ring is an on-disk contract: FNV-1a, as hash/fnv computes it.
			h := fnv.New32a()
			h.Write([]byte(src))
			if want := int(h.Sum32() % uint32(n)); id != want {
				t.Fatalf("ShardFor(%q, %d) = %d, hash/fnv says %d", src, n, id, want)
			}
			hit[id] = true
		}
		if len(hit) != n {
			t.Fatalf("200 sources hit only %d of %d shards", len(hit), n)
		}
	}
}

func TestRoutedAppendLandsOnHashedShards(t *testing.T) {
	entries := makeEntries(t, 400, 11)
	c := newTestCluster(t, 4, entries, Options{Store: store.Options{FlushEvery: 50}})

	want := map[int]int{}
	for _, en := range entries {
		want[ShardFor(en.Record.Source, 4)]++
	}
	for _, h := range c.Health() {
		if h.Entries != want[h.ID] {
			t.Errorf("shard %d holds %d entries, want %d", h.ID, h.Entries, want[h.ID])
		}
	}
	if c.Len() != len(entries) {
		t.Errorf("cluster Len %d, want %d", c.Len(), len(entries))
	}
}

// TestMergedAggregateMatchesSingleStore is the merge-correctness
// property: across shard counts, the cluster's scatter-gathered
// aggregate must be byte-identical to a single-store aggregate over the
// union of the same records — for every filter and option shape.
func TestMergedAggregateMatchesSingleStore(t *testing.T) {
	entries := makeEntries(t, 600, 13)
	kept := true
	mid := entries[len(entries)/2].Record.Time
	late := entries[3*len(entries)/4].Record.Time
	cases := []struct {
		name string
		f    store.Filter
		opts query.AggregateOptions
	}{
		{"everything", store.Filter{}, query.AggregateOptions{}},
		{"one source", store.Filter{Sources: []string{entries[0].Record.Source}}, query.AggregateOptions{}},
		{"three sources", store.Filter{Sources: []string{"cn1", "cn7", "cn23"}}, query.AggregateOptions{}},
		{"survivors", store.Filter{Kept: &kept}, query.AggregateOptions{}},
		{"time window", store.Filter{From: mid, To: late}, query.AggregateOptions{}},
		{"custom shape", store.Filter{}, query.AggregateOptions{TopK: 3, Quantiles: []float64{0.5, 0.95}}},
		{"body", store.Filter{BodyContains: "body 1"}, query.AggregateOptions{}},
		{"body nowhere", store.Filter{BodyContains: "no such body"}, query.AggregateOptions{}},
		{"body + survivors + category", store.Filter{BodyContains: "body 2", Kept: &kept, Categories: []string{"ECC", "GM_PAR"}}, query.AggregateOptions{TopK: 3}},
		{"body + window + source", store.Filter{BodyContains: "synthetic", From: mid, To: late, Sources: []string{"cn1", "cn7", "cn23"}}, query.AggregateOptions{}},
	}
	for _, shards := range []int{1, 2, 4, 7} {
		// A small flush plus a partial tail makes every shard hold both
		// sealed segments and an unsealed tail.
		c := newTestCluster(t, shards, entries, Options{Store: store.Options{FlushEvery: 37}})
		for _, tc := range cases {
			agg, cov, _, err := c.Aggregate(context.Background(), tc.f, tc.opts)
			if err != nil {
				t.Fatalf("%d shards/%s: %v", shards, tc.name, err)
			}
			if cov.Partial || cov.ShardsAnswered != cov.ShardsQueried {
				t.Fatalf("%d shards/%s: unexpected degraded coverage %+v", shards, tc.name, cov)
			}
			if len(tc.f.Sources) == 0 && cov.ShardsQueried != shards {
				t.Fatalf("%d shards/%s: queried %d shards", shards, tc.name, cov.ShardsQueried)
			}
			var ref []store.Entry
			for _, en := range entries {
				if matchesFilter(tc.f, en) {
					ref = append(ref, en)
				}
			}
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].Record.Before(ref[j].Record) })
			want, err := json.Marshal(query.Aggregate(ref, tc.opts))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(agg)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%d shards/%s: merged aggregate diverges\nmerged: %s\nsingle: %s", shards, tc.name, got, want)
			}
		}
	}
}

// TestSelectMergesCanonicalOrderAcrossShards: across shard counts, the
// merged select — each shard's bounded read pre-truncated to limit —
// is the canonical prefix of a linear filter over the union, for every
// filter × limit row, and its stats account for every segment.
func TestSelectMergesCanonicalOrderAcrossShards(t *testing.T) {
	entries := makeEntries(t, 600, 17)
	kept := true
	mid := entries[len(entries)/3].Record.Time
	late := entries[2*len(entries)/3].Record.Time
	cases := []struct {
		name  string
		f     store.Filter
		limit int
	}{
		{"everything", store.Filter{}, 0},
		{"first", store.Filter{}, 1},
		{"prefix", store.Filter{}, 25},
		{"survivors", store.Filter{Kept: &kept}, 50},
		{"survivors, first two", store.Filter{Kept: &kept}, 2},
		{"one source", store.Filter{Sources: []string{entries[0].Record.Source}}, 7},
		{"category + survivors", store.Filter{Categories: []string{"ECC"}, Kept: &kept}, 100},
		{"body", store.Filter{BodyContains: "body 1"}, 7},
		{"window", store.Filter{From: mid, To: late}, 50},
		{"limit past every match", store.Filter{Categories: []string{"GM_PAR"}}, 5000},
	}
	for _, shards := range []int{1, 2, 4, 7} {
		c := newTestCluster(t, shards, entries, Options{Store: store.Options{FlushEvery: 23}})
		for _, tc := range cases {
			got, cov, st, err := c.Select(context.Background(), tc.f, tc.limit)
			if err != nil || cov.Partial || cov.ShardsAnswered != cov.ShardsQueried {
				t.Fatalf("%d shards/%s: %v, coverage %+v", shards, tc.name, err, cov)
			}
			var want []store.Entry
			for _, en := range entries {
				if matchesFilter(tc.f, en) {
					want = append(want, en)
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].Record.Before(want[j].Record) })
			if tc.limit > 0 && len(want) > tc.limit {
				want = want[:tc.limit]
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%d shards/%s: merged select (%d entries) is not the canonical prefix (%d)", shards, tc.name, len(got), len(want))
			}
			if st.Segments != st.SegmentsScanned+st.SegmentsPruned {
				t.Fatalf("%d shards/%s: segment accounting %+v", shards, tc.name, st)
			}
		}
	}
}

func TestSourceRoutingPrunesFanout(t *testing.T) {
	entries := makeEntries(t, 200, 19)
	c := newTestCluster(t, 4, entries, Options{Store: store.Options{FlushEvery: 1000}})

	src := entries[0].Record.Source
	_, cov, _, err := c.Aggregate(context.Background(), store.Filter{Sources: []string{src}}, query.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cov.ShardsQueried != 1 || cov.ShardsAnswered != 1 || cov.Partial {
		t.Fatalf("source-pinned query fanned out: %+v", cov)
	}
	if cov.ShardsTotal != 4 {
		t.Fatalf("coverage total %d", cov.ShardsTotal)
	}
}

// TestReopenedClusterServesSameAnswers closes a populated cluster and
// reopens it cold: the merged aggregate must survive the round trip.
func TestReopenedClusterServesSameAnswers(t *testing.T) {
	entries := makeEntries(t, 250, 23)
	dir := t.TempDir()
	c, _, err := Create(dir, logrec.Thunderbird, 3, Options{Store: store.Options{FlushEvery: 60}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(entries); err != nil {
		t.Fatal(err)
	}
	before, _, _, err := c.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if len(rep.Quarantined) != 0 {
		t.Fatalf("reopen quarantined: %v", rep.Quarantined)
	}
	after, _, _, err := c2.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(before)
	b2, _ := json.Marshal(after)
	if string(b1) != string(b2) {
		t.Fatalf("reopened cluster diverges:\nbefore: %s\nafter:  %s", b1, b2)
	}

	// The shape is pinned: reopening with a different count must fail.
	if _, _, err := Create(dir, logrec.Thunderbird, 5, Options{}); err == nil {
		t.Fatal("create over a 3-shard cluster as 5 shards succeeded")
	}
}

func TestCombinedFingerprintCache(t *testing.T) {
	// Two sources pinned to different shards of a 2-shard cluster.
	var srcA, srcB string
	for i := 0; srcA == "" || srcB == ""; i++ {
		src := fmt.Sprintf("cn%d", i)
		if ShardFor(src, 2) == 0 && srcA == "" {
			srcA = src
		}
		if ShardFor(src, 2) == 1 && srcB == "" {
			srcB = src
		}
	}
	entries := makeEntries(t, 200, 29)
	c := newTestCluster(t, 2, entries, Options{Store: store.Options{FlushEvery: 1000}, CacheSize: 16})

	aggOf := func(f store.Filter) query.Aggregation {
		t.Helper()
		agg, cov, _, err := c.Aggregate(context.Background(), f, query.AggregateOptions{})
		if err != nil || cov.Partial {
			t.Fatalf("aggregate: %v (coverage %+v)", err, cov)
		}
		return agg
	}
	fA := store.Filter{Sources: []string{srcA}}

	aggOf(fA) // miss, populates
	aggOf(fA) // hit
	hits, misses := c.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("warmup: hits %d misses %d", hits, misses)
	}

	// Mutate shard 1 only: srcA's cache entry (shard 0) must survive,
	// while anything whose routing touched shard 1 must recompute.
	extra := store.Entry{Record: logrec.Record{Seq: 9999, Time: time.Date(2004, 4, 1, 0, 0, 0, 0, time.UTC),
		System: logrec.Thunderbird, Source: srcB, Severity: logrec.SevErr}, Category: "ECC", Kept: true}
	if ar, err := c.Append([]store.Entry{extra}); err != nil || ar.Appended != 1 {
		t.Fatalf("append: %v %+v", err, ar)
	}

	aggOf(fA)
	hits, _ = c.CacheStats()
	if hits != 2 {
		t.Fatalf("source-pinned query on the unmutated shard missed: hits %d", hits)
	}

	// The regression under test: a query whose routing touches the
	// mutated shard must NOT serve the pre-mutation answer.
	wantB := 0
	for _, en := range entries {
		if en.Record.Source == srcB {
			wantB++
		}
	}
	got := aggOf(store.Filter{Sources: []string{srcB}})
	if got.Total != wantB+1 {
		t.Fatalf("stale cross-shard hit: srcB total %d, want %d", got.Total, wantB+1)
	}
	all := aggOf(store.Filter{})
	if all.Total != len(entries)+1 {
		t.Fatalf("stale cluster-wide hit: total %d, want %d", all.Total, len(entries)+1)
	}
}

// TestFlatLayoutIsAPlainStoreDirectory pins the one-shard layouts. A
// directory made by store.Create opens in place as a one-shard cluster
// and nothing cluster-shaped is written into it; Create with one shard
// makes exactly that layout; a CLUSTER file naming one shard (the older
// layout) still opens, its shard in shard-00/. All three answer alike.
func TestFlatLayoutIsAPlainStoreDirectory(t *testing.T) {
	entries := makeEntries(t, 200, 29)
	want, _ := json.Marshal(query.Aggregate(entries, query.AggregateOptions{}))
	check := func(c *Cluster, rep *OpenReport, wantDir string) {
		t.Helper()
		if c.NumShards() != 1 || len(rep.Quarantined) != 0 || c.Health()[0].Dir != wantDir {
			t.Fatalf("opened %d shards (quarantined %v), shard 0 in %s, want one in %s",
				c.NumShards(), rep.Quarantined, c.Health()[0].Dir, wantDir)
		}
		agg, cov, _, err := c.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{})
		if err != nil || cov.Partial {
			t.Fatalf("aggregate: %v, coverage %+v", err, cov)
		}
		if got, _ := json.Marshal(agg); string(got) != string(want) {
			t.Fatalf("aggregate diverges from the batch reference\n got: %s\nwant: %s", got, want)
		}
	}
	entriesOf := func(dir string) []string {
		t.Helper()
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}

	// A plain store directory, served in place.
	plain := t.TempDir()
	st, err := store.Create(plain, logrec.Thunderbird, store.Options{FlushEvery: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if sys, n, err := Shape(plain); err != nil || sys != logrec.Thunderbird || n != 1 {
		t.Fatalf("Shape(plain store) = %v, %d, %v", sys, n, err)
	}
	c, rep, err := Open(plain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(c, rep, plain)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range entriesOf(plain) {
		if name == clusterManifestName || strings.HasPrefix(name, "shard-") {
			t.Fatalf("serving a plain store in place left %s behind", name)
		}
	}
	if st, _, err = store.Open(plain, store.Options{}); err != nil {
		t.Fatalf("store.Open after the cluster closed: %v", err)
	}
	st.Close()

	// Create with one shard writes the same layout.
	flat := filepath.Join(t.TempDir(), "flat")
	if c, rep, err = Create(flat, logrec.Thunderbird, 1, Options{Store: store.Options{FlushEvery: 60}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(entries); err != nil {
		t.Fatal(err)
	}
	check(c, rep, flat)
	c.Close()
	if _, err := os.Stat(filepath.Join(flat, clusterManifestName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("one-shard Create wrote a %s file (stat: %v)", clusterManifestName, err)
	}
	if _, _, err := Create(flat, logrec.Thunderbird, 2, Options{}); err == nil {
		t.Fatal("create over a flat one-shard cluster as 2 shards succeeded")
	}

	// The manifest layout with one shard.
	legacy := t.TempDir()
	if err := writeClusterManifest(legacy, clusterManifest{Version: clusterVersion, Shards: 1, System: "tbird"}); err != nil {
		t.Fatal(err)
	}
	if c, rep, err = Create(legacy, logrec.Thunderbird, 1, Options{Store: store.Options{FlushEvery: 60}}); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Append(entries); err != nil {
		t.Fatal(err)
	}
	check(c, rep, ShardDir(legacy, 0))

	if _, _, err := Shape(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Shape(empty dir) = %v, want os.ErrNotExist", err)
	}
}

// TestClusterCloseLeavesNoGoroutines: everything Create starts — shard
// workers, the standing evaluator, one registry rebuild worker and one
// miner rebuild worker per shard — is gone once Close returns, on every
// layout, after a retention pass has made the rebuild workers
// re-baseline (a worker that never ran proves nothing about its exit).
func TestClusterCloseLeavesNoGoroutines(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			before := runtime.NumGoroutine()
			c, _, err := Create(t.TempDir(), logrec.Liberty, shards, Options{Store: store.Options{FlushEvery: 3}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Subscribe(store.Filter{}, query.AggregateOptions{}, 0); err != nil {
				t.Fatal(err)
			}
			base := time.Date(2004, 3, 1, 12, 0, 0, 0, time.UTC)
			if _, err := c.Append(correlateClusterEntries(base, 0, 44)); err != nil {
				t.Fatal(err)
			}
			if err := c.Seal(); err != nil {
				t.Fatal(err)
			}
			var retained []int
			for _, sh := range c.shards {
				rst, err := sh.backend.(*store.Store).ApplyRetention(base.Add(22 * time.Minute))
				if err != nil {
					t.Fatal(err)
				}
				if rst.SegmentsDropped > 0 {
					retained = append(retained, sh.id)
				}
			}
			if len(retained) == 0 {
				t.Fatal("no shard dropped a segment; test needs a real retention mutation")
			}
			waitCorrelateSettled(t, c)
			waitClusterStanding(t, c)
			for _, id := range retained {
				if st := c.correlate.miners[id].Stats(); st.Rebuilds == 0 {
					t.Fatalf("shard %d: the miner's rebuild worker never ran: %+v", id, st)
				}
				if info := c.standing.regs[id].List()[0]; info.Rebuilds == 0 {
					t.Fatalf("shard %d: the registry's rebuild worker never ran: %+v", id, info)
				}
			}

			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines before Create, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
