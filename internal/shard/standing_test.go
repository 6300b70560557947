package shard

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
	"whatsupersay/internal/query"
	"whatsupersay/internal/store"
)

// Cluster standing-query differential: after every mutation class —
// routed appends, seals, per-shard compaction, per-shard retention —
// and across shard counts, a subscription's merged materialization must
// marshal to exactly the bytes a from-scratch aggregate over the union
// of the same records produces. One threshold crossing spread across
// shards must fire exactly one cluster-level event.

// standingSpread fabricates n entries starting at base spaced a second
// apart, over enough sources that every shard count under test gets
// data, cycling categories, severities, and the kept flag.
func standingSpread(base time.Time, startSeq uint64, n int) []store.Entry {
	cats := []string{"ECC", "KERNDTLB", "PBS_CON"}
	sevs := []logrec.Severity{logrec.SevErr, logrec.SevFatal, logrec.SeverityUnknown}
	out := make([]store.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, store.Entry{
			Record: logrec.Record{
				Seq:      startSeq + uint64(i),
				Time:     base.Add(time.Duration(i) * time.Second),
				System:   logrec.Thunderbird,
				Source:   fmt.Sprintf("node%d", i%14),
				Severity: sevs[i%len(sevs)],
				Program:  "kernel",
				Body:     fmt.Sprintf("standing event %d", i),
			},
			Category: cats[i%len(cats)],
			Kept:     i%3 != 0,
		})
	}
	return out
}

// waitClusterStanding polls until every per-shard registry has no dirty
// subscription — rebuilds after compaction/retention are asynchronous.
func waitClusterStanding(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !c.StandingSettled() {
		if time.Now().After(deadline) {
			t.Fatal("cluster standing registries did not settle")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkClusterStandingDifferential asserts every cluster subscription's
// merged materialization is byte-identical to a from-scratch aggregate
// over the reference entry set.
func checkClusterStandingDifferential(t *testing.T, step string, c *Cluster, all []store.Entry) {
	t.Helper()
	waitClusterStanding(t, c)
	for _, info := range c.Subscriptions() {
		got, ok := c.StandingAggregate(info.ID)
		if !ok {
			t.Fatalf("%s: subscription %s vanished", step, info.ID)
		}
		var ref []store.Entry
		for _, en := range all {
			if matchesFilter(info.Filter, en) {
				ref = append(ref, en)
			}
		}
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].Record.Before(ref[j].Record) })
		want, _ := json.Marshal(query.Aggregate(ref, info.Options))
		g, _ := json.Marshal(got)
		if string(g) != string(want) {
			t.Fatalf("%s: %s diverges from scratch\nmerged:  %s\nscratch: %s",
				step, info.ID, g, want)
		}
	}
}

func TestClusterStandingDifferential(t *testing.T) {
	base := time.Date(2005, 11, 10, 0, 0, 0, 0, time.UTC)
	kept := true
	subs := []struct {
		f    store.Filter
		opts query.AggregateOptions
	}{
		{store.Filter{}, query.AggregateOptions{}},
		{store.Filter{Sources: []string{"node1", "node5", "node12"}}, query.AggregateOptions{}},
		{store.Filter{Kept: &kept, Severities: []logrec.Severity{logrec.SevFatal}}, query.AggregateOptions{Quantiles: []float64{0.5, 0.99}}},
		{store.Filter{Categories: []string{"KERNDTLB"}}, query.AggregateOptions{TopK: 2}},
		{store.Filter{From: base.Add(30 * time.Minute), To: base.Add(4 * time.Hour)}, query.AggregateOptions{TopK: 3, Quantiles: []float64{0.9}}},
	}
	for _, shards := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("%d-shards", shards), func(t *testing.T) {
			c := newTestCluster(t, shards, nil, Options{Store: store.Options{FlushEvery: 9}})
			for _, sc := range subs {
				if _, err := c.Subscribe(sc.f, sc.opts, 0); err != nil {
					t.Fatal(err)
				}
			}
			var all []store.Entry
			appendAll := func(batch []store.Entry) {
				t.Helper()
				ar, err := c.Append(batch)
				if err != nil {
					t.Fatal(err)
				}
				if ar.Appended != len(batch) || len(ar.Errors) != 0 {
					t.Fatalf("append did not land cleanly: %+v", ar)
				}
				all = append(all, batch...)
			}

			checkClusterStandingDifferential(t, "empty baseline", c, all)

			// Era 1: appends with auto-seals inside each shard.
			appendAll(standingSpread(base, 0, 210))
			checkClusterStandingDifferential(t, "append", c, all)

			// Era 2, then an explicit cluster-wide seal.
			appendAll(standingSpread(base.Add(40*time.Minute), 1000, 70))
			if err := c.Seal(); err != nil {
				t.Fatal(err)
			}
			checkClusterStandingDifferential(t, "seal", c, all)

			// Per-shard compaction merges the small segments; entry sets
			// are unchanged, so every registry keeps its views.
			compactions := 0
			for _, sh := range c.shards {
				st, ok := sh.backend.(*store.Store)
				if !ok {
					t.Fatalf("shard %d backend is not a plain store", sh.id)
				}
				cst, err := st.Compact()
				if err != nil {
					t.Fatal(err)
				}
				compactions += cst.Compactions
			}
			if compactions == 0 {
				t.Fatal("no shard compacted; test needs a real compact mutation")
			}
			checkClusterStandingDifferential(t, "compaction", c, all)

			// Era 3 sealed, then retention drops the old sealed segments.
			appendAll(standingSpread(base.Add(5*time.Hour), 2000, 60))
			if err := c.Seal(); err != nil {
				t.Fatal(err)
			}
			dropped := 0
			var survivors []store.Entry
			cutoff := base.Add(4 * time.Hour)
			for _, sh := range c.shards {
				rst, err := sh.backend.(*store.Store).ApplyRetention(cutoff)
				if err != nil {
					t.Fatal(err)
				}
				dropped += rst.SegmentsDropped
			}
			if dropped == 0 {
				t.Fatal("retention dropped nothing; test needs a real retention mutation")
			}
			for _, en := range all {
				if !en.Record.Time.Before(cutoff) {
					survivors = append(survivors, en)
				}
			}
			all = survivors
			checkClusterStandingDifferential(t, "retention rebuild", c, all)

			// Deltas resume on the rebuilt baselines.
			appendAll(standingSpread(base.Add(6*time.Hour), 3000, 40))
			checkClusterStandingDifferential(t, "post-retention append", c, all)
		})
	}
}

// clusterEventTrap collects cluster events behind a mutex and offers a
// poll-until helper, since evaluation runs on an async worker.
type clusterEventTrap struct {
	mu     sync.Mutex
	events []ClusterEvent
}

func (tr *clusterEventTrap) sink(ev ClusterEvent) {
	tr.mu.Lock()
	tr.events = append(tr.events, ev)
	tr.mu.Unlock()
}

func (tr *clusterEventTrap) count() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.events)
}

func (tr *clusterEventTrap) waitCount(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.count() < want {
		if time.Now().After(deadline) {
			t.Fatalf("saw %d cluster events, want %d", tr.count(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// settle gives the async evaluation worker time to misfire before
// asserting the count did NOT grow.
func (tr *clusterEventTrap) settle(t *testing.T, want int) {
	t.Helper()
	time.Sleep(50 * time.Millisecond)
	if got := tr.count(); got != want {
		t.Fatalf("cluster events settled at %d, want %d", got, want)
	}
}

// TestClusterStandingSingleEventAcrossShards pins the acceptance
// criterion: a threshold crossing whose entries are spread across all
// shards fires exactly ONE cluster-level event, with the merged
// aggregate in the payload — not one event per shard.
func TestClusterStandingSingleEventAcrossShards(t *testing.T) {
	base := time.Date(2005, 11, 10, 0, 0, 0, 0, time.UTC)
	c := newTestCluster(t, 4, nil, Options{Store: store.Options{FlushEvery: 50}})
	var trap clusterEventTrap
	c.SetStandingNotify(trap.sink)

	info, err := c.Subscribe(store.Filter{}, query.AggregateOptions{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if info.ShardsStanding != 4 || info.ShardsTotal != 4 {
		t.Fatalf("subscription coverage: %+v", info)
	}
	trap.settle(t, 0) // empty registration must not fire

	// Below the line: 6 entries spread over the shards.
	if _, err := c.Append(standingSpread(base, 0, 6)); err != nil {
		t.Fatal(err)
	}
	trap.settle(t, 0)

	// Crossing: 8 more, again spread across shards. Exactly one event.
	if _, err := c.Append(standingSpread(base.Add(time.Minute), 10, 8)); err != nil {
		t.Fatal(err)
	}
	trap.waitCount(t, 1)
	trap.settle(t, 1)
	trap.mu.Lock()
	ev := trap.events[0]
	trap.mu.Unlock()
	if ev.SubscriptionID != info.ID || ev.Threshold != 10 || ev.Total < 10 ||
		ev.Aggregate.Total != ev.Total || ev.ShardsStanding != 4 || ev.Seq != 1 {
		t.Fatalf("event payload: %+v", ev)
	}

	// Staying above the line: still one.
	if _, err := c.Append(standingSpread(base.Add(2*time.Minute), 30, 12)); err != nil {
		t.Fatal(err)
	}
	trap.settle(t, 1)

	listed := c.Subscriptions()
	if len(listed) != 1 || !listed[0].Fired || listed[0].Events != 1 || listed[0].Total != 26 {
		t.Fatalf("subscription listing after crossing: %+v", listed)
	}
}

// TestClusterStandingImmediateFire: subscribing when the merged
// baseline already meets the threshold fires right away.
func TestClusterStandingImmediateFire(t *testing.T) {
	base := time.Date(2005, 11, 10, 0, 0, 0, 0, time.UTC)
	c := newTestCluster(t, 2, standingSpread(base, 0, 20), Options{Store: store.Options{FlushEvery: 50}})
	var trap clusterEventTrap
	c.SetStandingNotify(trap.sink)

	if _, err := c.Subscribe(store.Filter{}, query.AggregateOptions{}, 15); err != nil {
		t.Fatal(err)
	}
	trap.waitCount(t, 1)
	trap.settle(t, 1)
	trap.mu.Lock()
	ev := trap.events[0]
	trap.mu.Unlock()
	if ev.Total != 20 || ev.Aggregate.Total != 20 {
		t.Fatalf("immediate-fire payload: %+v", ev)
	}
}

// TestClusterStandingRearmAfterRetention pins the latch's re-arm: after
// a crossing, retention on every shard's store drops the merged total
// back below the threshold, which re-arms the latch without firing, and
// the next crossing fires the subscription's second event.
func TestClusterStandingRearmAfterRetention(t *testing.T) {
	base := time.Date(2005, 11, 10, 0, 0, 0, 0, time.UTC)
	c := newTestCluster(t, 2, nil, Options{Store: store.Options{FlushEvery: 1000}})
	var trap clusterEventTrap
	c.SetStandingNotify(trap.sink)
	if _, err := c.Subscribe(store.Filter{}, query.AggregateOptions{}, 5); err != nil {
		t.Fatal(err)
	}
	appendSpread := func(at time.Time, seq uint64, n int) {
		t.Helper()
		if ar, err := c.Append(standingSpread(at, seq, n)); err != nil || ar.Appended != n {
			t.Fatalf("append: %+v, %v", ar, err)
		}
	}

	appendSpread(base, 0, 3)
	trap.settle(t, 0)
	appendSpread(base.Add(time.Minute), 10, 3)
	trap.waitCount(t, 1)
	trap.settle(t, 1)

	// Seal the crossing entries, land two newer ones in the tails, and
	// let retention drop every sealed segment: the merged total is 2.
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	appendSpread(base.Add(24*time.Hour), 20, 2)
	dropped := 0
	for _, sh := range c.shards {
		rst, err := sh.backend.(*store.Store).ApplyRetention(base.Add(12 * time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		dropped += rst.SegmentsDropped
	}
	if dropped == 0 {
		t.Fatal("retention dropped nothing; test needs a real retention mutation")
	}
	waitClusterStanding(t, c)
	deadline := time.Now().Add(5 * time.Second)
	for {
		list := c.Subscriptions()
		if len(list) == 1 && !list[0].Fired && list[0].Total == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("latch did not re-arm after retention: %+v", list)
		}
		time.Sleep(2 * time.Millisecond)
	}
	trap.settle(t, 1)

	// Re-crossing fires the second event.
	appendSpread(base.Add(25*time.Hour), 30, 4)
	trap.waitCount(t, 2)
	trap.settle(t, 2)
	trap.mu.Lock()
	ev := trap.events[1]
	trap.mu.Unlock()
	if ev.Seq != 2 || ev.Total != 6 || ev.Aggregate.Total != 6 {
		t.Fatalf("re-crossing event: %+v", ev)
	}
}

// TestClusterStandingGaugeCountsViews: standing_subscriptions counts the
// per-shard views in the process, not the last registry to change.
func TestClusterStandingGaugeCountsViews(t *testing.T) {
	const shards = 4
	c := newTestCluster(t, shards, nil, Options{})
	src := ""
	for i := 0; src == ""; i++ {
		if s := fmt.Sprintf("node%d", i); ShardFor(s, shards) == 2 {
			src = s
		}
	}
	gauge := obs.Default.Gauge("standing_subscriptions")
	before := gauge.Value()
	a, err := c.Subscribe(store.Filter{}, query.AggregateOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Subscribe(store.Filter{Sources: []string{src}}, query.AggregateOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.ShardsStanding != shards || b.ShardsStanding != 1 {
		t.Fatalf("coverage: a %+v, b %+v", a, b)
	}
	if got := gauge.Value() - before; got != shards+1 {
		t.Fatalf("gauge counts %v views after two subscriptions, want %d", got, shards+1)
	}
	if !c.Unsubscribe(a.ID) {
		t.Fatal("unsubscribe known id failed")
	}
	if got := gauge.Value() - before; got != 1 {
		t.Fatalf("gauge counts %v views after unsubscribe, want 1", got)
	}
}

// TestClusterUnsubscribe checks removal tears down the per-shard
// registrations and the listing.
func TestClusterUnsubscribe(t *testing.T) {
	c := newTestCluster(t, 2, nil, Options{})
	a, err := c.Subscribe(store.Filter{}, query.AggregateOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Subscribe(store.Filter{}, query.AggregateOptions{TopK: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Subscriptions()); got != 2 {
		t.Fatalf("listed %d, want 2", got)
	}
	// Only the exact id Subscribe issued resolves.
	if a.ID != "csub-1" {
		t.Fatalf("first subscription id %q, want csub-1", a.ID)
	}
	for _, id := range []string{"csub-1x", "csub-01", "csub-+1", "csub-", "sub-1", ""} {
		if _, ok := c.StandingAggregate(id); ok {
			t.Errorf("StandingAggregate(%q) resolved while csub-1 is live", id)
		}
		if c.Unsubscribe(id) {
			t.Errorf("Unsubscribe(%q) succeeded while csub-1 is live", id)
		}
	}
	if !c.Unsubscribe(a.ID) {
		t.Fatal("unsubscribe known id failed")
	}
	if c.Unsubscribe(a.ID) {
		t.Fatal("double unsubscribe succeeded")
	}
	list := c.Subscriptions()
	if len(list) != 1 || list[0].ID != b.ID {
		t.Fatalf("listing after unsubscribe: %+v", list)
	}
	if _, ok := c.StandingAggregate(a.ID); ok {
		t.Fatal("aggregate of removed subscription still served")
	}
	// Every per-shard registry must hold exactly one surviving sub.
	for id, reg := range c.standing.regs {
		if got := len(reg.List()); got != 1 {
			t.Fatalf("shard %d registry holds %d subs after unsubscribe, want 1", id, got)
		}
	}
}
