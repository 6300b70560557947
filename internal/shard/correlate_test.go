package shard

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"whatsupersay/internal/correlate"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/store"
)

// The cluster correlate differential: the merged cluster graph must be
// byte-identical to a from-scratch batch mine over the union of every
// shard's entries, after every mutation class, at shard counts
// {1, 2, 4, 7}. Cross-shard precedence pairs are the hard part — the
// merge goes through columns, not per-shard edges, exactly so those
// pairs are counted.

func waitCorrelateSettled(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !c.CorrelateSettled() {
		if time.Now().After(deadline) {
			t.Fatalf("cluster miners did not settle: %+v", c.CorrelateStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clusterUnionEntries scans every healthy shard and returns the union.
func clusterUnionEntries(t *testing.T, c *Cluster) []store.Entry {
	t.Helper()
	var out []store.Entry
	for _, sh := range c.shards {
		if sh.backend == nil {
			continue
		}
		if _, err := sh.backend.Scan(store.Filter{}, func(en store.Entry) error {
			out = append(out, en)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func checkClusterCorrelateDifferential(t *testing.T, step string, c *Cluster) {
	t.Helper()
	waitCorrelateSettled(t, c)
	want := correlate.MineEntries(c.CorrelateConfig(), clusterUnionEntries(t, c))
	got := c.CorrelationGraph()
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if string(g) != string(w) {
		t.Fatalf("%s: cluster graph diverges from union batch mine\nmerged: %s\nbatch:  %s",
			step, g, w)
	}
}

// correlateClusterEntries spreads categories across many sources so
// entries land on different shards and windowed pairs cross shard
// boundaries.
func correlateClusterEntries(base time.Time, startSeq uint64, n int) []store.Entry {
	cats := []string{"GM_PAR", "GM_LANAI", "PBS_CHK"}
	out := make([]store.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, store.Entry{
			Record: logrec.Record{
				Seq:    startSeq + uint64(i),
				Time:   base.Add(time.Duration(i) * time.Minute),
				System: logrec.Liberty,
				Source: fmt.Sprintf("ln%d", i%11),
			},
			Category: cats[i%len(cats)],
			Kept:     i%5 != 4,
		})
	}
	return out
}

func TestClusterCorrelateDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, _, err := Create(t.TempDir(), logrec.Liberty, shards, Options{
				Store: store.Options{FlushEvery: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			base := time.Date(2004, 3, 1, 12, 0, 0, 0, time.UTC)
			checkClusterCorrelateDifferential(t, "empty baseline", c)

			// Appends with per-shard auto-seals.
			if _, err := c.Append(correlateClusterEntries(base, 0, 21)); err != nil {
				t.Fatal(err)
			}
			checkClusterCorrelateDifferential(t, "append+autoseal", c)

			// Explicit seal on every shard.
			if err := c.Seal(); err != nil {
				t.Fatal(err)
			}
			checkClusterCorrelateDifferential(t, "seal", c)

			// Per-shard compaction: entry sets unchanged, every miner
			// keeps its columns.
			if _, err := c.Append(correlateClusterEntries(base.Add(40*time.Minute), 100, 13)); err != nil {
				t.Fatal(err)
			}
			if err := c.Seal(); err != nil {
				t.Fatal(err)
			}
			compactions := 0
			for _, sh := range c.shards {
				cst, err := sh.backend.(*store.Store).Compact()
				if err != nil {
					t.Fatal(err)
				}
				compactions += cst.Compactions
			}
			if compactions == 0 {
				t.Fatal("no shard compacted; test needs a real compact mutation")
			}
			checkClusterCorrelateDifferential(t, "compaction", c)

			// Retention decays old segments on every shard.
			if _, err := c.Append(correlateClusterEntries(base.Add(3*time.Hour), 200, 18)); err != nil {
				t.Fatal(err)
			}
			if err := c.Seal(); err != nil {
				t.Fatal(err)
			}
			dropped := 0
			for _, sh := range c.shards {
				rst, err := sh.backend.(*store.Store).ApplyRetention(base.Add(2 * time.Hour))
				if err != nil {
					t.Fatal(err)
				}
				dropped += rst.SegmentsDropped
			}
			if dropped == 0 {
				t.Fatal("retention dropped nothing; test needs a real retention mutation")
			}
			checkClusterCorrelateDifferential(t, "retention rebuild", c)

			// Deltas resume on the new baselines.
			if _, err := c.Append(correlateClusterEntries(base.Add(4*time.Hour), 300, 9)); err != nil {
				t.Fatal(err)
			}
			checkClusterCorrelateDifferential(t, "post-retention append", c)
		})
	}
}

// TestClusterCorrelateWarmStart: a clean close leaves per-shard
// artifacts that the reopen installs without scans, and the merged view
// still matches the batch mine.
func TestClusterCorrelateWarmStart(t *testing.T) {
	dir := t.TempDir()
	c, _, err := Create(dir, logrec.Liberty, 3, Options{Store: store.Options{FlushEvery: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2004, 3, 1, 12, 0, 0, 0, time.UTC)
	if _, err := c.Append(correlateClusterEntries(base, 0, 17)); err != nil {
		t.Fatal(err)
	}
	waitCorrelateSettled(t, c)
	want, _ := json.Marshal(c.CorrelationGraph())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, _, err := Open(dir, Options{Store: store.Options{FlushEvery: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for id, st := range c2.CorrelateStats() {
		if !st.WarmStart {
			t.Fatalf("shard %d did not warm-start: %+v", id, st)
		}
	}
	got, _ := json.Marshal(c2.CorrelationGraph())
	if string(got) != string(want) {
		t.Fatalf("warm-started cluster graph diverges\ngot:  %s\nwant: %s", got, want)
	}
	checkClusterCorrelateDifferential(t, "warm start", c2)

	if _, err := c2.Append(correlateClusterEntries(base.Add(2*time.Hour), 100, 8)); err != nil {
		t.Fatal(err)
	}
	checkClusterCorrelateDifferential(t, "post-warm-start append", c2)
}

// TestClusterPredictionReport: the merged prediction view is cached on
// the miner version vector and recomputes when any shard moves.
func TestClusterPredictionReport(t *testing.T) {
	c, _, err := Create(t.TempDir(), logrec.Liberty, 2, Options{Store: store.Options{FlushEvery: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := time.Date(2004, 3, 1, 12, 0, 0, 0, time.UTC)
	if _, err := c.Append(correlateClusterEntries(base, 0, 24)); err != nil {
		t.Fatal(err)
	}
	waitCorrelateSettled(t, c)
	r1 := c.PredictionReport(correlate.PredictOptions{})
	if r1.Events == 0 {
		t.Fatalf("merged report empty: %+v", r1)
	}
	r2 := c.PredictionReport(correlate.PredictOptions{})
	if !r1.AsOf.Equal(r2.AsOf) || r1.Events != r2.Events {
		t.Fatalf("cached report differs: %+v vs %+v", r1, r2)
	}
	if _, err := c.Append(correlateClusterEntries(base.Add(2*time.Hour), 100, 6)); err != nil {
		t.Fatal(err)
	}
	waitCorrelateSettled(t, c)
	r3 := c.PredictionReport(correlate.PredictOptions{})
	if r3.Events <= r1.Events {
		t.Fatalf("report did not advance after append: %+v", r3)
	}
}

// TestClusterPredictionCacheNeverStale: the report cache is keyed on the
// miner version vector, so columns and version must come from one
// critical section per miner. Read apart, an append folded between the
// two reads files the pre-append report under the post-append version,
// and the next ask is served that stale report from the cache. Readers
// race the appends to open that window; after every append returns
// (Append has run the observers by then) the served report
// must count every event appended so far.
func TestClusterPredictionCacheNeverStale(t *testing.T) {
	c, _, err := Create(t.TempDir(), logrec.Liberty, 2, Options{Store: store.Options{FlushEvery: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitCorrelateSettled(t, c)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.PredictionReport(correlate.PredictOptions{})
				}
			}
		}()
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()

	base := time.Date(2004, 3, 1, 12, 0, 0, 0, time.UTC)
	const batch = 4
	for i := 0; i < 150; i++ {
		entries := correlateClusterEntries(base.Add(time.Duration(i*batch)*time.Minute), uint64(i*batch), batch)
		if _, err := c.Append(entries); err != nil {
			t.Fatal(err)
		}
		want := (i + 1) * batch
		if got := c.PredictionReport(correlate.PredictOptions{}).Events; got != want {
			t.Fatalf("after append %d: served report covers %d events, the miners hold %d (stale cache entry)", i, got, want)
		}
	}
}
