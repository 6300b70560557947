package query

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
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

// standingCase is one registered view with the filter and options its
// answer is checked under.
type standingCase struct {
	h    *Standing
	f    store.Filter
	opts AggregateOptions
}

func registerCase(t *testing.T, reg *Registry, f store.Filter, opts AggregateOptions) standingCase {
	t.Helper()
	h, err := reg.Register(f, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return standingCase{h: h, f: f, opts: opts.Normalize()}
}

// checkStandingDifferential asserts every case's materialized answer
// is byte-identical to a from-scratch rescan at this moment (the
// row-decode reference, so the check shares no fold with the baseline).
func checkStandingDifferential(t *testing.T, step string, st *store.Store, reg *Registry, cases []standingCase) {
	t.Helper()
	waitStandingClean(t, reg)
	for i, c := range cases {
		got := MergePartials([]Partial{c.h.Snapshot()}, c.opts)
		want, _, _ := decodeReference(t, st, c.f, c.opts)
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Fatalf("%s: view %d diverges from scratch\nincremental: %s\nscratch:     %s",
				step, i, g, w)
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
	var cases []standingCase
	for _, fc := range filters {
		cases = append(cases, registerCase(t, reg, fc.f, fc.opts))
	}
	checkStandingDifferential(t, "empty baseline", st, reg, cases)

	// Appends, auto-sealing every 3 entries (append + seal mutations).
	if err := st.Append(standingEntries(base, 0, 7)...); err != nil {
		t.Fatal(err)
	}
	checkStandingDifferential(t, "append+autoseal", st, reg, cases)

	// A second era, then an explicit seal.
	if err := st.Append(standingEntries(base.Add(40*time.Minute), 100, 5)...); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	checkStandingDifferential(t, "seal", st, reg, cases)

	// Compaction merges the small segments; the entry set is unchanged,
	// so the views keep their state.
	cst, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Compactions == 0 {
		t.Fatal("compaction did not run; test needs a real compact mutation")
	}
	checkStandingDifferential(t, "compaction", st, reg, cases)

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
	checkStandingDifferential(t, "retention rebuild", st, reg, cases)

	// And keep appending after the rebuild — deltas resume on the new
	// baseline.
	if err := st.Append(standingEntries(base.Add(4*time.Hour), 300, 4)...); err != nil {
		t.Fatal(err)
	}
	checkStandingDifferential(t, "post-retention append", st, reg, cases)
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
	var cases []standingCase
	for i := 0; i < 5; i++ {
		cases = append(cases, registerCase(t, reg, store.Filter{}, AggregateOptions{}))
	}
	wg.Wait()
	checkStandingDifferential(t, "quiesced", st, reg, cases)

	total := batches * per
	for i, info := range reg.List() {
		if info.Total != total {
			t.Fatalf("view %d total = %d, want %d", i, info.Total, total)
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
	var cases []standingCase
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
		c := registerCase(t, reg, store.Filter{}, AggregateOptions{})
		cases = append(cases, c)
		<-done
		checkStandingDifferential(t, fmt.Sprintf("round %d", round), st, reg, cases)
		if round%2 == 1 {
			c.h.Close()
			cases = cases[:len(cases)-1]
		}
	}
	if compactions == 0 {
		t.Fatal("no compaction ran; test needs real compact mutations")
	}
}

// TestStandingClose checks that a closed handle leaves its registry's
// listing and the standing_subscriptions gauge exactly once, and keeps
// reading the state it had.
func TestStandingClose(t *testing.T) {
	st, err := store.Create(t.TempDir(), logrec.BlueGeneL, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := NewRegistry(st)
	defer reg.Close()
	st.SetObserver(reg.OnMutation)
	gauge := obs.Default.Gauge("standing_subscriptions")
	before := gauge.Value()

	a, err := reg.Register(store.Filter{}, AggregateOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Register(store.Filter{Categories: []string{"KERNDTLB"}}, AggregateOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	if err := st.Append(standingEntries(base, 0, 6)...); err != nil {
		t.Fatal(err)
	}
	if got := len(reg.List()); got != 2 {
		t.Fatalf("listed %d, want 2", got)
	}
	if got := gauge.Value() - before; got != 2 {
		t.Fatalf("gauge counts %v views, want 2", got)
	}
	a.Close()
	a.Close()
	if got := gauge.Value() - before; got != 1 {
		t.Fatalf("gauge counts %v views after a double Close, want 1", got)
	}
	list := reg.List()
	if len(list) != 1 || list[0].Total != 2 || b.Total() != 2 {
		t.Fatalf("listing after Close: %+v", list)
	}
	// The closed view no longer folds appends; it serves its last state.
	if err := st.Append(standingEntries(base.Add(time.Hour), 10, 6)...); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 6 || a.Snapshot().Total != 6 || b.Total() != 4 {
		t.Fatalf("after Close: closed view total %d, open view total %d", a.Total(), b.Total())
	}
	reg.Close()
	if got := gauge.Value() - before; got != 0 {
		t.Fatalf("gauge counts %v views after Registry.Close, want 0", got)
	}
}

// TestRegistryCloseLeavesNoGoroutines: Close takes the rebuild worker
// down with it, after the worker has actually re-baselined a
// subscription on a retention pass.
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
	if rst, err := st.ApplyRetention(base.Add(4 * time.Second)); err != nil || rst.SegmentsDropped == 0 {
		t.Fatalf("need a real retention mutation: %+v, %v", rst, err)
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
