package correlate

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
	"whatsupersay/internal/query"
	"whatsupersay/internal/store"
)

// The correlate differential: after every mutation class — append,
// seal, compaction, retention — the online miner's graph must marshal
// to exactly the bytes a from-scratch batch mine over the same store
// produces. Same discipline as the standing-query suite.

func waitSettled(t *testing.T, miners ...*Miner) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		settled := true
		for _, m := range miners {
			if !m.Settled() {
				settled = false
				break
			}
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("miner did not settle")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func checkMinerDifferential(t *testing.T, step string, st *store.Store, miners []*Miner) {
	t.Helper()
	waitSettled(t, miners...)
	for _, m := range miners {
		want, err := MineStore(st, m.Config())
		if err != nil {
			t.Fatalf("%s: batch mine: %v", step, err)
		}
		g, _ := json.Marshal(m.Snapshot())
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Fatalf("%s: cfg %s diverges from batch mine\nincremental: %s\nbatch:       %s",
				step, m.Config().Key(), g, w)
		}
	}
}

// openMiners wires one multiplexed observer across all miners (the
// store supports a single observer) and installs their baselines.
func openMiners(t *testing.T, st *store.Store, cfgs []Config) []*Miner {
	t.Helper()
	miners := make([]*Miner, len(cfgs))
	for i, cfg := range cfgs {
		miners[i] = NewMiner(st, cfg, "")
	}
	st.SetObserver(func(mu store.Mutation) {
		for _, m := range miners {
			m.OnMutation(mu)
		}
	})
	for _, m := range miners {
		if err := m.Init(); err != nil {
			t.Fatal(err)
		}
	}
	return miners
}

func closeMiners(st *store.Store, miners []*Miner) {
	st.SetObserver(nil)
	for _, m := range miners {
		m.Close()
	}
}

// minerEntries fabricates a stream with several categories and sources
// at minute spacing so windowed pairs exist across batches.
func minerEntries(base time.Time, startSeq uint64, n int) []store.Entry {
	cats := []string{"GM_PAR", "GM_LANAI", "PBS_CHK"}
	srcs := []string{"ladm1", "ln12"}
	out := make([]store.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, store.Entry{
			Record: logrec.Record{
				Seq:    startSeq + uint64(i),
				Time:   base.Add(time.Duration(i) * time.Minute),
				System: logrec.Liberty,
				Source: srcs[i%len(srcs)],
				Body:   "unit check failed",
			},
			Category: cats[i%len(cats)],
			Kept:     i%4 != 3,
		})
	}
	return out
}

func TestMinerDifferential(t *testing.T) {
	st, err := store.Create(t.TempDir(), logrec.Liberty, store.Options{FlushEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	miners := openMiners(t, st, []Config{
		{},
		{Window: 2 * time.Minute},
		{NodeMode: NodeSourceCategory},
		{IncludeRemoved: true},
	})
	defer closeMiners(st, miners)

	base := time.Date(2004, 3, 1, 12, 0, 0, 0, time.UTC)
	checkMinerDifferential(t, "empty baseline", st, miners)

	// Appends with auto-seal every 3 entries (append + seal mutations).
	if err := st.Append(minerEntries(base, 0, 7)...); err != nil {
		t.Fatal(err)
	}
	checkMinerDifferential(t, "append+autoseal", st, miners)

	// A second era, then an explicit seal.
	if err := st.Append(minerEntries(base.Add(40*time.Minute), 100, 5)...); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	checkMinerDifferential(t, "seal", st, miners)

	// Compaction: entry set unchanged, the miner keeps its columns.
	cst, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Compactions == 0 {
		t.Fatal("compaction did not run; test needs a real compact mutation")
	}
	checkMinerDifferential(t, "compaction", st, miners)

	// Retention drops the oldest segment — the graph's decay: aged-out
	// events must leave the columns and every touched edge must shrink
	// to exactly the batch mine of what remains.
	if err := st.Append(minerEntries(base.Add(3*time.Hour), 200, 6)...); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	before := miners[0].Snapshot().Events
	rst, err := st.ApplyRetention(base.Add(2 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if rst.SegmentsDropped == 0 {
		t.Fatal("retention dropped nothing; test needs a real retention mutation")
	}
	checkMinerDifferential(t, "retention rebuild", st, miners)
	if after := miners[0].Snapshot().Events; after >= before {
		t.Fatalf("retention did not decay the graph: %d events before, %d after", before, after)
	}

	// Deltas resume on the new baseline.
	if err := st.Append(minerEntries(base.Add(4*time.Hour), 300, 4)...); err != nil {
		t.Fatal(err)
	}
	checkMinerDifferential(t, "post-retention append", st, miners)

	stats := miners[0].Stats()
	if stats.DeltasApplied == 0 || stats.Rebuilds == 0 {
		t.Fatalf("exercise did not cover both paths: %+v", stats)
	}
}

// TestMinerInitDuringAppends races Init's fenced baseline against a
// concurrent append stream: every entry must land exactly once.
func TestMinerInitDuringAppends(t *testing.T) {
	st, err := store.Create(t.TempDir(), logrec.Liberty, store.Options{FlushEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := NewMiner(st, Config{}, "")
	st.SetObserver(m.OnMutation)
	defer func() {
		st.SetObserver(nil)
		m.Close()
	}()

	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	const batches, per = 40, 7
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			batch := minerEntries(base.Add(time.Duration(i)*time.Hour), uint64(i*per), per)
			if err := st.Append(batch...); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	checkMinerDifferential(t, "quiesced", st, []*Miner{m})
	// minerEntries keeps 6 of every 7-entry batch (index 3 is removed).
	total := batches * (per - 1)
	if got := m.Snapshot().Events; got != total {
		t.Fatalf("events = %d, want %d", got, total)
	}
}

// TestMinerVersionAdvances pins the cache key: the version moves on
// applied deltas and installed rebuilds, not on no-op mutations.
func TestMinerVersionAdvances(t *testing.T) {
	st, err := store.Create(t.TempDir(), logrec.Liberty, store.Options{FlushEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := NewMiner(st, Config{}, "")
	st.SetObserver(m.OnMutation)
	defer func() {
		st.SetObserver(nil)
		m.Close()
	}()
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	_, v0 := m.ColumnsSnapshot()
	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	if err := st.Append(minerEntries(base, 0, 4)...); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, m)
	_, v1 := m.ColumnsSnapshot()
	if v1 <= v0 {
		t.Fatalf("append did not advance version: %d -> %d", v0, v1)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, m)
	if _, v := m.ColumnsSnapshot(); v != v1 {
		t.Fatalf("seal changed version: %d -> %d", v1, v)
	}
}

// waitRegistrySettled polls until the registry's first view is settled.
func waitRegistrySettled(t *testing.T, reg *query.Registry) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); reg.List()[0].Dirty; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("subscription did not settle")
		}
	}
}

// countingStore counts the scans run through it: the miner baselines
// with Scan, a standing registry with ScanColumns.
type countingStore struct {
	*store.Store
	scans, columnScans atomic.Int64
}

func (c *countingStore) Scan(f store.Filter, fn func(store.Entry) error) (store.ScanStats, error) {
	c.scans.Add(1)
	return c.Store.Scan(f, fn)
}

func (c *countingStore) ScanColumns(f store.Filter, v store.ColumnVisitor) (store.ScanStats, error) {
	c.columnScans.Add(1)
	return c.Store.ScanColumns(f, v)
}

// TestRebuildsUnderWritesWasteNoScan: a miner and a standing
// subscription over one store, rebuilt by retention passes while a
// writer commits every millisecond, scan exactly once per build — the first
// install, each rebuild, each counted failure — because a scan's own
// snapshot is its fence and no commit can overtake it. Both still equal
// a from-scratch answer once the writes stop.
func TestRebuildsUnderWritesWasteNoScan(t *testing.T) {
	st, err := store.Create(t.TempDir(), logrec.Liberty, store.Options{FlushEvery: 200, CompactTarget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	// A baseline long enough that every rebuild scan spans several commits.
	if err := st.Append(minerEntries(base, 0, 10_000)...); err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: st}
	reg := query.NewRegistry(cs)
	m := NewMiner(cs, Config{}, "")
	st.SetObserver(func(mu store.Mutation) {
		reg.OnMutation(mu)
		m.OnMutation(mu)
	})
	defer func() {
		st.SetObserver(nil)
		m.Close()
		reg.Close()
	}()
	standingFailures := obs.Default.Counter("standing_rebuild_failures_total")
	baselines0, minerFailures0, standingFailures0 := mCorrelateBaselines.Value(), correlateCounters.Failures.Value(), standingFailures.Value()
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	h, err := reg.Register(store.Filter{}, query.AggregateOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if err := st.Append(minerEntries(base.Add(time.Duration(20_000+i*10)*time.Minute), uint64(20_000+i*10), 10)...); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // retention: each pass drops the oldest baseline segment
		defer wg.Done()
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := st.ApplyRetention(base.Add(time.Duration(k*200) * time.Minute)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	waitSettled(t, m)
	waitRegistrySettled(t, reg)

	ms := m.Stats()
	minerBuilds := 1 + int64(ms.Rebuilds) + correlateCounters.Failures.Value() - minerFailures0
	if ms.Rebuilds == 0 {
		t.Fatal("no retention pass rebuilt the miner; the test needs rebuilds under writes")
	}
	if got := mCorrelateBaselines.Value() - baselines0; got != minerBuilds || cs.scans.Load() != minerBuilds {
		t.Fatalf("miner: %d baseline scans (%d through the store) for %d builds", got, cs.scans.Load(), minerBuilds)
	}
	info := reg.List()[0]
	subBuilds := 1 + int64(info.Rebuilds) + standingFailures.Value() - standingFailures0
	if got := cs.columnScans.Load(); got != subBuilds {
		t.Fatalf("registry: %d scans for %d builds", got, subBuilds)
	}

	checkMinerDifferential(t, "after writes", st, []*Miner{m})
	want, _, err := (&query.Engine{Store: st}).Aggregate(store.Filter{}, query.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := query.MergePartials([]query.Partial{h.Snapshot()}, query.AggregateOptions{})
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if string(g) != string(w) {
		t.Fatalf("standing aggregate diverges from a scan\nstanding: %s\nscan:     %s", g, w)
	}
}

// TestCompactionRebuildsNoView: compaction keeps the entry set, so a
// miner and a standing view over a compacting store scan once each —
// their first install — and never rebuild, while both answers stay
// equal to a from-scratch one.
func TestCompactionRebuildsNoView(t *testing.T) {
	st, err := store.Create(t.TempDir(), logrec.Liberty, store.Options{FlushEvery: 4, CompactTarget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cs := &countingStore{Store: st}
	reg := query.NewRegistry(cs)
	m := NewMiner(cs, Config{}, "")
	st.SetObserver(func(mu store.Mutation) {
		reg.OnMutation(mu)
		m.OnMutation(mu)
	})
	defer func() {
		st.SetObserver(nil)
		m.Close()
		reg.Close()
	}()
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	h, err := reg.Register(store.Filter{}, query.AggregateOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}

	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	const rounds = 5
	for i := 0; i < rounds; i++ {
		// 12 entries seal three segments for the compaction to merge.
		if err := st.Append(minerEntries(base.Add(time.Duration(i)*time.Hour), uint64(i*100), 12)...); err != nil {
			t.Fatal(err)
		}
		if cst, err := st.Compact(); err != nil || cst.Compactions == 0 {
			t.Fatalf("round %d: need a real compact mutation: %+v, %v", i, cst, err)
		}
	}

	checkMinerDifferential(t, "after compactions", st, []*Miner{m})
	waitRegistrySettled(t, reg)
	if ms := m.Stats(); ms.Rebuilds != 0 || cs.scans.Load() != 1 {
		t.Fatalf("miner: %d rebuilds, %d scans; want 0 and its Init's 1", ms.Rebuilds, cs.scans.Load())
	}
	if info := reg.List()[0]; info.Rebuilds != 0 || cs.columnScans.Load() != 1 {
		t.Fatalf("registry: %d rebuilds, %d scans; want 0 and its Init's 1", info.Rebuilds, cs.columnScans.Load())
	}
	want, _, err := (&query.Engine{Store: st}).Aggregate(store.Filter{}, query.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := query.MergePartials([]query.Partial{h.Snapshot()}, query.AggregateOptions{})
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if string(g) != string(w) {
		t.Fatalf("standing aggregate diverges from a scan\nstanding: %s\nscan:     %s", g, w)
	}
}
