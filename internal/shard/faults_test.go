package shard

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"whatsupersay/internal/faultinject/shardfault"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/query"
	"whatsupersay/internal/store"
)

// faultyOpen adapts shardfault.OpenFaulty to the router's OpenStore
// seam and returns an accessor for the per-shard fault wrappers. Shard 0
// answers under both layouts: shard-00/ and, flat, the root itself.
func faultyOpen(root string, failIDs ...int) (open func(string, store.Options) (Backend, *store.OpenReport, error), faulty func(id int) *shardfault.FaultyStore) {
	failDirs := map[string]bool{}
	for _, id := range failIDs {
		failDirs[ShardDir(root, id)] = true
		if id == 0 {
			failDirs[root] = true
		}
	}
	sfOpen, wrapped, mu := shardfault.OpenFaulty(failDirs)
	open = func(dir string, opts store.Options) (Backend, *store.OpenReport, error) {
		b, rep, err := sfOpen(dir, opts)
		if err != nil {
			return nil, rep, err
		}
		return b, rep, nil
	}
	faulty = func(id int) *shardfault.FaultyStore {
		mu.Lock()
		defer mu.Unlock()
		if f := wrapped[ShardDir(root, id)]; f != nil || id != 0 {
			return f
		}
		return wrapped[root]
	}
	return open, faulty
}

// TestQuarantineDegradesNotKills is the headline acceptance scenario:
// one of four shards fails to open, and queries still answer HTTP-200
// style — full results from the survivors, partial:true, and coverage
// metadata naming exactly the dead shard.
func TestQuarantineDegradesNotKills(t *testing.T) {
	entries := makeEntries(t, 400, 31)
	dir := t.TempDir()
	victim := 2
	open, _ := faultyOpen(dir, victim)

	c, rep, err := Create(dir, logrec.Thunderbird, 4, Options{
		Store:     store.Options{FlushEvery: 50},
		OpenStore: open,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(rep.Quarantined) != 1 || !strings.Contains(rep.Quarantined[victim], "injected open failure") {
		t.Fatalf("open report quarantine: %v", rep.Quarantined)
	}

	// Ingest: the victim's slice is reported as errored, the rest land.
	ar, err := c.Append(entries)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, en := range entries {
		if ShardFor(en.Record.Source, 4) == victim {
			lost++
		}
	}
	if ar.Appended != len(entries)-lost {
		t.Fatalf("appended %d, want %d (lost %d to quarantine)", ar.Appended, len(entries)-lost, lost)
	}
	if !strings.Contains(ar.Errors[victim], "quarantined") {
		t.Fatalf("append errors: %v", ar.Errors)
	}

	// Query: degraded, never dead — and the survivors' numbers are exact.
	agg, cov, _, err := c.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Partial || cov.ShardsTotal != 4 || cov.ShardsQueried != 4 || cov.ShardsAnswered != 3 {
		t.Fatalf("coverage %+v", cov)
	}
	if !strings.Contains(cov.ShardErrors["2"], "quarantined") {
		t.Fatalf("shard errors %v", cov.ShardErrors)
	}
	if agg.Total != len(entries)-lost {
		t.Fatalf("partial aggregate total %d, want %d", agg.Total, len(entries)-lost)
	}

	// Health surfaces the quarantine.
	h := c.Health()[victim]
	if h.State != "quarantined" || !strings.Contains(h.LastError, "injected open failure") {
		t.Fatalf("victim health %+v", h)
	}
}

// TestBreakerOpensOnScanFailuresAndRecovers drives a shard through the
// whole breaker lifecycle with injected scan failures and a fake clock:
// closed → open at the threshold → refused fast while open → half-open
// probe after the backoff → closed again once the fault heals.
func TestBreakerOpensOnScanFailuresAndRecovers(t *testing.T) {
	entries := makeEntries(t, 200, 37)
	dir := t.TempDir()
	open, faulty := faultyOpen(dir)
	clk := newFakeClock()

	c, _, err := Create(dir, logrec.Thunderbird, 2, Options{
		Store:            store.Options{FlushEvery: 1000},
		OpenStore:        open,
		FailureThreshold: 3,
		BreakerBackoff:   100 * time.Millisecond,
		BreakerMaxWait:   time.Second,
		Retries:          -1, // one attempt per query: failure counting stays exact
		Clock:            clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Append(entries); err != nil {
		t.Fatal(err)
	}

	victim := 0
	faulty(victim).SetFaults(shardfault.StoreFaults{FailScans: -1})

	query1 := func() Coverage {
		t.Helper()
		_, cov, _, err := c.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return cov
	}

	// Three failing queries open the breaker; each is partial with the
	// scan error attributed to the victim.
	for i := 0; i < 3; i++ {
		cov := query1()
		if !cov.Partial || cov.ShardsAnswered != 1 || !strings.Contains(cov.ShardErrors["0"], "injected scan failure") {
			t.Fatalf("failing query %d: coverage %+v", i, cov)
		}
	}
	if h := c.Health()[victim]; h.State != "open" || h.ConsecutiveFailures != 3 || h.TotalFailures != 3 {
		t.Fatalf("after threshold: health %+v", h)
	}

	// While open, the shard is refused without touching the store: the
	// failure counter stays put and the coverage names the refusal.
	cov := query1()
	if !cov.Partial || !strings.Contains(cov.ShardErrors["0"], "breaker open") {
		t.Fatalf("open-state coverage %+v", cov)
	}
	if h := c.Health()[victim]; h.TotalFailures != 3 {
		t.Fatalf("open breaker still hit the store: %+v", h)
	}

	// Heal the store, step past the backoff: the half-open probe runs
	// the real scan, succeeds, and closes the breaker — full coverage.
	faulty(victim).Heal()
	clk.Advance(100 * time.Millisecond)
	cov = query1()
	if cov.Partial || cov.ShardsAnswered != 2 {
		t.Fatalf("post-recovery coverage %+v", cov)
	}
	if h := c.Health()[victim]; h.State != "ok" || h.ConsecutiveFailures != 0 {
		t.Fatalf("post-recovery health %+v", h)
	}
}

// TestFailedProbeReopensWithLongerBackoff pins the half-open half of the
// state machine at the cluster level: a probe that fails sends the
// breaker back to open with a doubled wait.
func TestFailedProbeReopensWithLongerBackoff(t *testing.T) {
	entries := makeEntries(t, 100, 41)
	dir := t.TempDir()
	open, faulty := faultyOpen(dir)
	clk := newFakeClock()

	c, _, err := Create(dir, logrec.Thunderbird, 2, Options{
		Store:            store.Options{FlushEvery: 1000},
		OpenStore:        open,
		FailureThreshold: 1,
		BreakerBackoff:   100 * time.Millisecond,
		BreakerMaxWait:   time.Second,
		Retries:          -1,
		Clock:            clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Append(entries); err != nil {
		t.Fatal(err)
	}

	faulty(0).SetFaults(shardfault.StoreFaults{FailScans: -1})
	ctx := context.Background()
	if _, cov, _, _ := c.Aggregate(ctx, store.Filter{}, query.AggregateOptions{}); !cov.Partial {
		t.Fatal("first failure not partial")
	}
	clk.Advance(100 * time.Millisecond)
	// Probe runs (fault still live) and fails: open again, backoff doubled.
	if _, cov, _, _ := c.Aggregate(ctx, store.Filter{}, query.AggregateOptions{}); !cov.Partial {
		t.Fatal("probe failure not partial")
	}
	if h := c.Health()[0]; h.State != "open" || h.TotalFailures != 2 {
		t.Fatalf("after failed probe: %+v", h)
	}
	faulty(0).Heal()
	// Half the doubled backoff's upper bound is not guaranteed to admit;
	// a full doubled base always is.
	clk.Advance(200 * time.Millisecond)
	if _, cov, _, _ := c.Aggregate(ctx, store.Filter{}, query.AggregateOptions{}); cov.Partial {
		t.Fatal("recovery after healed probe still partial")
	}
	if h := c.Health()[0]; h.State != "ok" {
		t.Fatalf("after recovery: %+v", h)
	}
}

// TestClientCancelDuringProbeReleasesBreaker reproduces the probe-leak
// wedge at the cluster level: the client's own context dies while the
// half-open probe is blocked inside a wedged scan. The abandoned probe
// must be released — the next query after the shard heals re-probes
// and closes the breaker. Before cancelProbe, the probing flag stayed
// set forever and every later call (queries and ingest alike) was
// refused until process restart.
func TestClientCancelDuringProbeReleasesBreaker(t *testing.T) {
	entries := makeEntries(t, 60, 47)
	dir := t.TempDir()
	open, faulty := faultyOpen(dir)
	clk := newFakeClock()

	victim := 0
	c, _, err := Create(dir, logrec.Thunderbird, 2, Options{
		Store:            store.Options{FlushEvery: 1000},
		OpenStore:        open,
		FailureThreshold: 1,
		BreakerBackoff:   100 * time.Millisecond,
		BreakerMaxWait:   time.Second,
		Retries:          -1,
		QueryTimeout:     time.Hour, // only the client's context ends the probe
		Clock:            clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Append(entries); err != nil {
		t.Fatal(err)
	}

	faulty(victim).SetFaults(shardfault.StoreFaults{FailScans: 1})
	if _, cov, _, _ := c.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{}); !cov.Partial {
		t.Fatal("injected scan failure not partial")
	}
	if h := c.Health()[victim]; h.State != "open" {
		t.Fatalf("breaker not open: %+v", h)
	}

	// Wedge the scan and step past the backoff: the next query's attempt
	// is admitted as the half-open probe and blocks inside the store.
	hold := make(chan struct{})
	defer close(hold)
	faulty(victim).SetFaults(shardfault.StoreFaults{ScanHold: hold})
	clk.Advance(100 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	covCh := make(chan Coverage, 1)
	go func() {
		_, cov, _, _ := c.Aggregate(ctx, store.Filter{}, query.AggregateOptions{})
		covCh <- cov
	}()
	// Wait until the probe is really in flight, then kill the client.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if state, _, _ := c.shards[victim].br.snapshot(); state == "half-open" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	cov := <-covCh
	if !cov.Partial || !strings.Contains(cov.ShardErrors["0"], "request deadline") {
		t.Fatalf("cancelled-probe coverage %+v", cov)
	}
	// The client's clock is not the shard's fault: no new failure charged.
	if h := c.Health()[victim]; h.TotalFailures != 1 {
		t.Fatalf("client cancel charged the breaker: %+v", h)
	}

	// Heal the store. The backoff expired before the abandoned probe, so
	// the very next query must re-probe, succeed, and close the breaker —
	// full coverage with no further clock advance.
	faulty(victim).Heal()
	_, cov2, _, err := c.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cov2.Partial {
		t.Fatalf("breaker wedged after cancelled probe: %+v", cov2)
	}
	if h := c.Health()[victim]; h.State != "ok" {
		t.Fatalf("post-recovery health %+v", h)
	}
}

// TestScanStallHitsShardDeadline wedges one shard's scans and shows the
// per-shard deadline converts the stall into a fast partial answer —
// the other shards' numbers arrive intact.
func TestScanStallHitsShardDeadline(t *testing.T) {
	entries := makeEntries(t, 200, 43)
	dir := t.TempDir()
	open, faulty := faultyOpen(dir)

	c, _, err := Create(dir, logrec.Thunderbird, 4, Options{
		Store:        store.Options{FlushEvery: 1000},
		OpenStore:    open,
		QueryTimeout: 30 * time.Millisecond,
		Retries:      -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Append(entries); err != nil {
		t.Fatal(err)
	}

	victim := 1
	hold := make(chan struct{})
	defer close(hold)
	faulty(victim).SetFaults(shardfault.StoreFaults{ScanHold: hold})

	start := time.Now()
	agg, cov, _, err := c.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wedged shard pinned the whole query for %v", elapsed)
	}
	if !cov.Partial || cov.ShardsAnswered != 3 {
		t.Fatalf("coverage %+v", cov)
	}
	if !strings.Contains(cov.ShardErrors["1"], "shard deadline") {
		t.Fatalf("shard errors %v", cov.ShardErrors)
	}
	want := 0
	for _, en := range entries {
		if ShardFor(en.Record.Source, 4) != victim {
			want++
		}
	}
	if agg.Total != want {
		t.Fatalf("partial total %d, want %d from the answering shards", agg.Total, want)
	}
}

// TestSlowShardRetriesThenAnswers gives a shard one transient failure
// and a retry budget of one: the scatter's second attempt answers and
// the response is complete.
func TestSlowShardRetriesThenAnswers(t *testing.T) {
	entries := makeEntries(t, 150, 47)
	dir := t.TempDir()
	open, faulty := faultyOpen(dir)

	c, _, err := Create(dir, logrec.Thunderbird, 2, Options{
		Store:     store.Options{FlushEvery: 1000},
		OpenStore: open,
		Retries:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Append(entries); err != nil {
		t.Fatal(err)
	}

	faulty(0).SetFaults(shardfault.StoreFaults{FailScans: 1})
	agg, cov, _, err := c.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Partial || cov.ShardsAnswered != 2 {
		t.Fatalf("transient failure not absorbed by retry: %+v", cov)
	}
	if agg.Total != len(entries) {
		t.Fatalf("total %d, want %d", agg.Total, len(entries))
	}
	if h := c.Health()[0]; h.TotalFailures != 1 || h.State != "ok" {
		t.Fatalf("health after absorbed retry %+v", h)
	}
}

// TestIngestBackpressure wedges one shard's appends and fills its
// bounded queue: the overflow batch is rejected immediately with a
// Retry-After hint, while a sibling shard keeps accepting.
func TestIngestBackpressure(t *testing.T) {
	dir := t.TempDir()
	open, faulty := faultyOpen(dir)

	c, _, err := Create(dir, logrec.Thunderbird, 2, Options{
		Store:      store.Options{FlushEvery: 1000},
		OpenStore:  open,
		QueueDepth: 1,
		RetryAfter: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Sources pinned per shard.
	var src0, src1 string
	for i := 0; src0 == "" || src1 == ""; i++ {
		src := "cn" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if ShardFor(src, 2) == 0 && src0 == "" {
			src0 = src
		}
		if ShardFor(src, 2) == 1 && src1 == "" {
			src1 = src
		}
	}
	entryFor := func(src string, seq uint64) store.Entry {
		return store.Entry{Record: logrec.Record{Seq: seq, Time: time.Date(2004, 3, 1, 0, 0, int(seq), 0, time.UTC),
			System: logrec.Thunderbird, Source: src}, Category: "ECC", Kept: true}
	}

	hold := make(chan struct{})
	faulty(0).SetFaults(shardfault.StoreFaults{AppendHold: hold})

	// First batch occupies the worker (blocked inside Append); second
	// fills the depth-1 queue. Appends block waiting on done, so run
	// them from goroutines and poll Health for the queue state.
	var wg sync.WaitGroup
	results := make([]AppendReport, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := c.Append([]store.Entry{entryFor(src0, uint64(i))})
			if err == nil {
				results[i] = r
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := c.Health()[0]
		if h.Inflight == 1 && h.QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", h)
		}
		time.Sleep(time.Millisecond)
	}

	// The overflow batch bounces without blocking; the sibling still eats.
	r, err := c.Append([]store.Entry{entryFor(src0, 2), entryFor(src1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rejected[0] != 1 || r.RetryAfter != 250*time.Millisecond {
		t.Fatalf("overflow not rejected with hint: %+v", r)
	}
	// The retry unit is the bounced sources, not the whole batch: the
	// sibling's slice already landed and must not be resent.
	if got := r.RejectedSources[0]; len(got) != 1 || got[0] != src0 {
		t.Fatalf("rejected sources %v, want [%s]", got, src0)
	}
	if r.Appended != 1 || r.PerShard[1] != 1 {
		t.Fatalf("sibling shard starved: %+v", r)
	}

	// Release the disk: the queued batches drain and land.
	close(hold)
	wg.Wait()
	if !c.WaitQueuesIdle(5 * time.Second) {
		t.Fatal("queues never drained after release")
	}
	if results[0].Appended != 1 || results[1].Appended != 1 {
		t.Fatalf("held batches did not land: %+v %+v", results[0], results[1])
	}
	// The two held batches landed; the rejected overflow batch did not.
	if n := c.Health()[0].Entries; n != 2 {
		t.Fatalf("shard 0 holds %d entries, want 2", n)
	}
}

// TestAppendFailuresOpenIngestBreaker pushes injected append errors
// through the ingest path until the breaker opens, then shows appends
// fail fast without touching the store.
func TestAppendFailuresOpenIngestBreaker(t *testing.T) {
	dir := t.TempDir()
	open, faulty := faultyOpen(dir)

	c, _, err := Create(dir, logrec.Thunderbird, 1, Options{
		Store:            store.Options{FlushEvery: 1000},
		OpenStore:        open,
		FailureThreshold: 2,
		BreakerBackoff:   time.Hour, // nothing recovers within this test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	faulty(0).SetFaults(shardfault.StoreFaults{FailAppends: -1})
	en := store.Entry{Record: logrec.Record{Time: time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC),
		System: logrec.Thunderbird, Source: "cn1"}, Category: "ECC"}

	for i := 0; i < 2; i++ {
		r, err := c.Append([]store.Entry{en})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(r.Errors[0], "injected append failure") {
			t.Fatalf("append %d: %+v", i, r)
		}
	}
	if h := c.Health()[0]; h.State != "open" {
		t.Fatalf("breaker after threshold: %+v", h)
	}

	// Open breaker: the batch is refused before the store sees it.
	r, err := c.Append([]store.Entry{en})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Errors[0], "breaker open") {
		t.Fatalf("open-breaker append: %+v", r)
	}
	if h := c.Health()[0]; h.TotalFailures != 2 {
		t.Fatalf("open breaker still hit the store: %+v", h)
	}
}

// TestRequestDeadlineDoesNotChargeBreaker expires the *client's* context
// mid-scatter and checks the shard is not blamed: no breaker failure, no
// health degradation.
func TestRequestDeadlineDoesNotChargeBreaker(t *testing.T) {
	entries := makeEntries(t, 100, 53)
	dir := t.TempDir()
	open, faulty := faultyOpen(dir)

	c, _, err := Create(dir, logrec.Thunderbird, 1, Options{
		Store:     store.Options{FlushEvery: 1000},
		OpenStore: open,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Append(entries); err != nil {
		t.Fatal(err)
	}

	hold := make(chan struct{})
	defer close(hold)
	faulty(0).SetFaults(shardfault.StoreFaults{ScanHold: hold})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, cov, _, err := c.Aggregate(ctx, store.Filter{}, query.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Partial || !strings.Contains(cov.ShardErrors["0"], "request deadline") {
		t.Fatalf("coverage %+v", cov)
	}
	if h := c.Health()[0]; h.TotalFailures != 0 || h.State != "ok" {
		t.Fatalf("client deadline charged the shard: %+v", h)
	}
}

// TestDegradedAggregateNeverCached pins the cache/fault interaction:
// an aggregate answered degraded (partial:true, a shard's scan failed)
// must never enter the combined-fingerprint cache, so once the fault
// heals the next query recomputes the complete answer instead of
// replaying the degraded one — and only complete answers get cached.
func TestDegradedAggregateNeverCached(t *testing.T) {
	entries := makeEntries(t, 200, 41)
	dir := t.TempDir()
	open, faulty := faultyOpen(dir)

	c, _, err := Create(dir, logrec.Thunderbird, 2, Options{
		Store:            store.Options{FlushEvery: 1000},
		OpenStore:        open,
		CacheSize:        16,
		FailureThreshold: 100, // keep the breaker closed; this is a cache test
		Retries:          -1,  // one attempt per query: no retry masks the fault
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Append(entries); err != nil {
		t.Fatal(err)
	}

	victim := 0
	onVictim := 0
	for _, en := range entries {
		if ShardFor(en.Record.Source, 2) == victim {
			onVictim++
		}
	}
	faulty(victim).SetFaults(shardfault.StoreFaults{FailScans: -1})

	// Two degraded queries while the shard is down: both must recompute
	// (miss), neither may populate the cache with the partial answer.
	for i := 0; i < 2; i++ {
		agg, cov, _, err := c.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !cov.Partial || cov.ShardsAnswered != 1 {
			t.Fatalf("query %d coverage %+v", i, cov)
		}
		if agg.Total != len(entries)-onVictim {
			t.Fatalf("query %d degraded total %d, want %d", i, agg.Total, len(entries)-onVictim)
		}
	}
	if hits, misses := c.CacheStats(); hits != 0 || misses != 2 {
		t.Fatalf("degraded answers touched the cache: hits %d misses %d", hits, misses)
	}

	// Heal. The next query must be a fresh complete scatter — a cache
	// hit here would replay the degraded answer.
	faulty(victim).Heal()
	agg, cov, _, err := c.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Partial || cov.ShardsAnswered != 2 {
		t.Fatalf("post-heal coverage %+v", cov)
	}
	if agg.Total != len(entries) {
		t.Fatalf("post-heal total %d, want %d", agg.Total, len(entries))
	}
	if hits, misses := c.CacheStats(); hits != 0 || misses != 3 {
		t.Fatalf("post-heal query should miss: hits %d misses %d", hits, misses)
	}

	// And the complete answer IS cached: same query again hits.
	agg, cov, _, err = c.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{})
	if err != nil || cov.Partial {
		t.Fatalf("cached complete query: %v %+v", err, cov)
	}
	if agg.Total != len(entries) {
		t.Fatalf("cached total %d, want %d", agg.Total, len(entries))
	}
	if hits, _ := c.CacheStats(); hits != 1 {
		t.Fatalf("complete answer was not cached: hits %d", hits)
	}
}

// cancelAtScanEndBackend wraps a shard backend so that an armed cancel
// function fires the instant one scan — Scan under a select,
// ScanColumns under an aggregate — has delivered its last segment and
// tail entry: the exact deadline-boundary window where a completed
// answer used to be discarded and charged to the shard as a failure.
type cancelAtScanEndBackend struct {
	Backend
	mu     sync.Mutex
	cancel context.CancelFunc
}

func (b *cancelAtScanEndBackend) arm(cancel context.CancelFunc) {
	b.mu.Lock()
	b.cancel = cancel
	b.mu.Unlock()
}

func (b *cancelAtScanEndBackend) fire() {
	b.mu.Lock()
	if b.cancel != nil {
		b.cancel()
		b.cancel = nil
	}
	b.mu.Unlock()
}

func (b *cancelAtScanEndBackend) Scan(f store.Filter, fn func(store.Entry) error) (store.ScanStats, error) {
	st, err := b.Backend.Scan(f, fn)
	b.fire()
	return st, err
}

func (b *cancelAtScanEndBackend) ScanColumns(f store.Filter, v store.ColumnVisitor) (store.ScanStats, error) {
	st, err := b.Backend.ScanColumns(f, v)
	b.fire()
	return st, err
}

// TestGatherKeepsCompletedAnswerOnLateCancel is the gather-layer half
// of the late-cancellation regression (the engine half lives in
// internal/query): a context that dies after the shard's scan delivered
// its last entry must not turn the finished answer into a failure — the
// response stays complete, the breaker is not charged, and the cache
// accepts the answer.
func TestGatherKeepsCompletedAnswerOnLateCancel(t *testing.T) {
	// < ctxCheckStride entries, one sealed segment plus a tail: neither
	// the per-segment nor the strided tail poll sees the cancel.
	entries := makeEntries(t, 300, 43)
	dir := t.TempDir()
	wrap := &cancelAtScanEndBackend{}
	open := func(d string, sopts store.Options) (Backend, *store.OpenReport, error) {
		st, rep, err := store.Open(d, sopts)
		if err != nil {
			return nil, rep, err
		}
		wrap.Backend = st
		return wrap, rep, nil
	}
	c, _, err := Create(dir, logrec.Thunderbird, 1, Options{
		Store:            store.Options{FlushEvery: 200},
		OpenStore:        open,
		FailureThreshold: 1, // a single charged failure would open the breaker
		Retries:          -1,
		CacheSize:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Append(entries); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrap.arm(cancel)
	agg, cov, _, err := c.Aggregate(ctx, store.Filter{}, query.AggregateOptions{})
	if err != nil {
		t.Fatalf("completed aggregate discarded on late cancel: %v", err)
	}
	if ctx.Err() == nil {
		t.Fatal("the aggregate's scan did not go through the hook")
	}
	if cov.Partial || cov.ShardsAnswered != 1 || len(cov.ShardErrors) != 0 {
		t.Fatalf("late cancel degraded a completed answer: %+v", cov)
	}
	if agg.Total != len(entries) {
		t.Fatalf("late-cancel aggregate total = %d, want %d", agg.Total, len(entries))
	}
	for _, h := range c.Health() {
		if h.TotalFailures != 0 || h.State != "ok" {
			t.Fatalf("completed answer charged the shard: %+v", h)
		}
	}

	// The answer was cacheable (complete) and the breaker never opened:
	// a fresh, uncanceled query serves from cache.
	agg2, cov2, _, err := c.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{})
	if err != nil || cov2.Partial {
		t.Fatalf("follow-up query degraded: %v %+v", err, cov2)
	}
	if agg2.Total != agg.Total {
		t.Fatalf("cache served a different answer: %d vs %d", agg2.Total, agg.Total)
	}
	hits, _ := c.CacheStats()
	if hits == 0 {
		t.Fatal("completed late-cancel answer was not cached")
	}

	// A select that ended early through store.ErrPastBound — partway into
	// the segment, tail skipped — is just as complete.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	wrap.arm(cancel)
	sel, cov, st, err := c.Select(ctx, store.Filter{}, 10)
	if err != nil || cov.Partial || cov.ShardsAnswered != 1 || len(cov.ShardErrors) != 0 {
		t.Fatalf("completed bounded select degraded on late cancel: %v %+v", err, cov)
	}
	if ctx.Err() == nil || st.Matched >= len(entries)/2 {
		t.Fatalf("the select did not stop early through the hook (ctx %v, stats %+v)", ctx.Err(), st)
	}
	if !reflect.DeepEqual(sel, entries[:10]) {
		t.Fatalf("bounded select returned %d entries, want the first 10", len(sel))
	}
	for _, h := range c.Health() {
		if h.TotalFailures != 0 || h.State != "ok" {
			t.Fatalf("completed bounded select charged the shard: %+v", h)
		}
	}
}
