package query

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/store"
)

// The standing-query differential: after every mutation — append, seal,
// compaction, retention — a subscription's incrementally maintained
// aggregate must marshal to exactly the bytes a from-scratch Aggregate
// over the same filter and options produces. This is the contract that
// lets /api/subscribe serve materializations without rescans.

// standingEntries fabricates n entries starting at base spaced a second
// apart, cycling sources, categories, severities, and the kept flag so
// every aggregate dimension is populated.
func standingEntries(base time.Time, startSeq uint64, n int) []store.Entry {
	srcs := []string{"R23-M0", "R23-M1", "R24-M0"}
	cats := []string{"KERNDTLB", "APPSEV", "KERNMNTF"}
	sevs := []logrec.Severity{logrec.SevFatal, logrec.SevError, logrec.SevWarning}
	out := make([]store.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, store.Entry{
			Record: logrec.Record{
				Seq:      startSeq + uint64(i),
				Time:     base.Add(time.Duration(i) * time.Second),
				System:   logrec.BlueGeneL,
				Source:   srcs[i%len(srcs)],
				Severity: sevs[i%len(sevs)],
				Body:     fmt.Sprintf("event %d", i),
			},
			Category: cats[i%len(cats)],
			Kept:     i%4 != 3,
		})
	}
	return out
}

// waitStandingClean polls until no subscription is dirty or mid-scan —
// rebuilds are asynchronous, so differential checks after compaction or
// retention must wait for the worker to install.
func waitStandingClean(t *testing.T, reg *Registry) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		clean := true
		for _, info := range reg.List() {
			if info.Dirty {
				clean = false
				break
			}
		}
		if clean {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("standing rebuild did not settle: %+v", reg.List())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkStandingDifferential asserts every subscription's materialized
// answer is byte-identical to a from-scratch rescan at this moment (the
// row-decode reference, so the check shares no fold with the baseline).
func checkStandingDifferential(t *testing.T, step string, st *store.Store, reg *Registry) {
	t.Helper()
	waitStandingClean(t, reg)
	for _, info := range reg.List() {
		got, ok := reg.AggregateOf(info.ID)
		if !ok {
			t.Fatalf("%s: subscription %s vanished", step, info.ID)
		}
		want, _, _ := decodeReference(t, st, info.Filter, info.Options)
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Fatalf("%s: %s diverges from scratch\nincremental: %s\nscratch:     %s",
				step, info.ID, g, w)
		}
	}
}

func TestStandingDifferential(t *testing.T) {
	st, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := NewRegistry(st)
	defer reg.Close()
	st.SetObserver(reg.OnMutation)

	base := time.Date(2005, 6, 1, 12, 0, 0, 0, time.UTC)
	kept := true
	filters := []struct {
		f    store.Filter
		opts AggregateOptions
	}{
		{store.Filter{}, AggregateOptions{}},
		{store.Filter{Categories: []string{"KERNDTLB"}}, AggregateOptions{TopK: 2}},
		{store.Filter{Kept: &kept, Severities: []logrec.Severity{logrec.SevFatal}}, AggregateOptions{Quantiles: []float64{0.5, 0.99}}},
		{store.Filter{Sources: []string{"R23-M0", "R24-M0"}}, AggregateOptions{TopK: 1, Quantiles: []float64{0.9}}},
		{store.Filter{From: base.Add(30 * time.Minute), To: base.Add(100 * time.Minute)}, AggregateOptions{}},
		{store.Filter{BodyContains: "event 1"}, AggregateOptions{}},
		{store.Filter{BodyContains: "event", Categories: []string{"APPSEV"}, Kept: &kept}, AggregateOptions{TopK: 2}},
	}
	for _, fc := range filters {
		if _, err := reg.Register(fc.f, fc.opts, 0); err != nil {
			t.Fatal(err)
		}
	}
	checkStandingDifferential(t, "empty baseline", st, reg)

	// Appends, auto-sealing every 3 entries (append + seal mutations).
	if err := st.Append(standingEntries(base, 0, 7)...); err != nil {
		t.Fatal(err)
	}
	checkStandingDifferential(t, "append+autoseal", st, reg)

	// A second era, then an explicit seal.
	if err := st.Append(standingEntries(base.Add(40*time.Minute), 100, 5)...); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	checkStandingDifferential(t, "seal", st, reg)

	// Compaction merges the small segments; the entry set is unchanged
	// but the registry rebuilds anyway (layout invalidation).
	cst, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Compactions == 0 {
		t.Fatal("compaction did not run; test needs a real compact mutation")
	}
	checkStandingDifferential(t, "compaction rebuild", st, reg)

	// A newer era sealed, then retention drops the old merged segment.
	if err := st.Append(standingEntries(base.Add(3*time.Hour), 200, 6)...); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	rst, err := st.ApplyRetention(base.Add(2 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if rst.SegmentsDropped == 0 {
		t.Fatal("retention dropped nothing; test needs a real retention mutation")
	}
	checkStandingDifferential(t, "retention rebuild", st, reg)

	// And keep appending after the rebuild — deltas resume on the new
	// baseline.
	if err := st.Append(standingEntries(base.Add(4*time.Hour), 300, 4)...); err != nil {
		t.Fatal(err)
	}
	checkStandingDifferential(t, "post-retention append", st, reg)
}

// TestStandingThresholdEdgeTriggered pins the latch semantics: one
// event per crossing, no repeats while the total stays above the line,
// re-armed only when retention drops it back below.
func TestStandingThresholdEdgeTriggered(t *testing.T) {
	st, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := NewRegistry(st)
	defer reg.Close()
	st.SetObserver(reg.OnMutation)

	var mu sync.Mutex
	var events []StandingEvent
	reg.SetNotify(func(ev StandingEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(events)
	}

	base := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	info, err := reg.Register(store.Filter{}, AggregateOptions{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 0 {
		t.Fatalf("event fired on empty registration: %d", n)
	}

	// Below the line: no event.
	if err := st.Append(standingEntries(base, 0, 3)...); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 0 {
		t.Fatalf("event fired below threshold: %d", n)
	}
	// Crossing: exactly one.
	if err := st.Append(standingEntries(base.Add(time.Minute), 10, 3)...); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 {
		t.Fatalf("crossing fired %d events, want 1", n)
	}
	mu.Lock()
	ev := events[0]
	mu.Unlock()
	if ev.SubscriptionID != info.ID || ev.Total != 6 || ev.Threshold != 5 || ev.Aggregate.Total != 6 {
		t.Fatalf("event payload: %+v", ev)
	}
	// Staying above the line: still one.
	if err := st.Append(standingEntries(base.Add(2*time.Minute), 20, 4)...); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 {
		t.Fatalf("post-crossing append fired again: %d events", n)
	}

	// Retention below the line re-arms the latch.
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(standingEntries(base.Add(24*time.Hour), 30, 2)...); err != nil {
		t.Fatal(err)
	}
	rst, err := st.ApplyRetention(base.Add(12 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if rst.SegmentsDropped == 0 {
		t.Fatal("retention dropped nothing")
	}
	waitStandingClean(t, reg)
	if n := count(); n != 1 {
		t.Fatalf("retention itself fired: %d events", n)
	}
	// Cross again: second event.
	if err := st.Append(standingEntries(base.Add(25*time.Hour), 40, 4)...); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 2 {
		t.Fatalf("re-crossing fired %d events, want 2", n)
	}
}

// TestStandingRegisterDuringAppends races registration's fenced
// baseline against a concurrent append stream: whatever interleaving
// happens, the installed materialization must converge to the
// from-scratch answer once the stream quiesces (every entry lands
// exactly once — via the baseline scan, the install buffer, or a live
// delta).
func TestStandingRegisterDuringAppends(t *testing.T) {
	st, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := NewRegistry(st)
	defer reg.Close()
	st.SetObserver(reg.OnMutation)

	base := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	const batches, per = 40, 7
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			batch := standingEntries(base.Add(time.Duration(i)*time.Minute), uint64(i*per), per)
			if err := st.Append(batch...); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Register mid-stream, several times.
	for i := 0; i < 5; i++ {
		if _, err := reg.Register(store.Filter{}, AggregateOptions{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	checkStandingDifferential(t, "quiesced", st, reg)

	total := batches * per
	for _, info := range reg.List() {
		if info.Total != total {
			t.Fatalf("%s total = %d, want %d", info.ID, info.Total, total)
		}
	}
}

// TestStandingRegisterDuringCompaction races registration's baseline
// against a compaction and then waits for every subscription to settle
// on the from-scratch answer with no append after it — the store-level
// twin of the view kernel's invalidation-at-every-point test. (A
// registration that released its baseline's ownership after the install
// froze, dirty, until the next append.)
func TestStandingRegisterDuringCompaction(t *testing.T) {
	st, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := NewRegistry(st)
	defer reg.Close()
	st.SetObserver(reg.OnMutation)

	base := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	compactions := 0
	for round := 0; round < 12; round++ {
		batch := standingEntries(base.Add(time.Duration(round)*time.Hour), uint64(round*100), 12)
		if err := st.Append(batch...); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			cst, err := st.Compact()
			if err != nil {
				t.Error(err)
			}
			compactions += cst.Compactions
		}()
		info, err := reg.Register(store.Filter{}, AggregateOptions{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		<-done
		checkStandingDifferential(t, fmt.Sprintf("round %d", round), st, reg)
		if round%2 == 1 {
			reg.Unregister(info.ID)
		}
	}
	if compactions == 0 {
		t.Fatal("no compaction ran; test needs real compact mutations")
	}
}

// TestStandingUnregister checks removal and the subscription listing.
func TestStandingUnregister(t *testing.T) {
	st, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := NewRegistry(st)
	defer reg.Close()
	st.SetObserver(reg.OnMutation)

	a, err := reg.Register(store.Filter{}, AggregateOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Register(store.Filter{}, AggregateOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(reg.List()); got != 2 {
		t.Fatalf("listed %d, want 2", got)
	}
	if !reg.Unregister(a.ID) {
		t.Fatal("unregister known id failed")
	}
	if reg.Unregister(a.ID) {
		t.Fatal("double unregister succeeded")
	}
	list := reg.List()
	if len(list) != 1 || list[0].ID != b.ID {
		t.Fatalf("listing after unregister: %+v", list)
	}
	if _, ok := reg.AggregateOf(a.ID); ok {
		t.Fatal("aggregate of removed subscription still served")
	}
}

// TestRegistryCloseLeavesNoGoroutines: Close takes the rebuild worker
// down with it, after the worker has actually re-baselined a
// subscription on a compaction.
func TestRegistryCloseLeavesNoGoroutines(t *testing.T) {
	st, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{FlushEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := runtime.NumGoroutine()

	reg := NewRegistry(st)
	st.SetObserver(reg.OnMutation)
	if _, err := reg.Register(store.Filter{}, AggregateOptions{}, 0); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2005, 6, 1, 12, 0, 0, 0, time.UTC)
	if err := st.Append(standingEntries(base, 0, 12)...); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if cst, err := st.Compact(); err != nil || cst.Compactions == 0 {
		t.Fatalf("need a real compact mutation: %+v, %v", cst, err)
	}
	waitStandingClean(t, reg)
	if info := reg.List()[0]; info.Rebuilds == 0 {
		t.Fatalf("the rebuild worker never ran: %+v", info)
	}

	st.SetObserver(nil)
	reg.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
