package correlate

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/store"
)

// The persistence contract: a sealed store closed cleanly leaves a
// CORRGRAPH artifact whose fingerprint matches the reopened store, so
// the next miner installs it without a scan — and the warm-started
// state is byte-identical to a from-scratch batch mine.

func TestMinerWarmStart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(dir, logrec.Liberty, store.Options{FlushEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: 30 * time.Minute}
	m := NewMiner(st, cfg, ArtifactPath(dir))
	st.SetObserver(m.OnMutation)
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().WarmStart {
		t.Fatal("first open reported a warm start")
	}

	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	if err := st.Append(minerEntries(base, 0, 9)...); err != nil {
		t.Fatal(err)
	}
	// Shutdown order: seal the tail, then close the miner (final save
	// under the post-seal fingerprint), then the store. Store.Close's own
	// seal is a no-op on the empty tail, so the fingerprint the artifact
	// recorded is the one the reopened store reports.
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, m)
	want, _ := json.Marshal(m.Snapshot())
	st.SetObserver(nil)
	m.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ArtifactPath(dir)); err != nil {
		t.Fatalf("artifact missing after close: %v", err)
	}

	st2, _, err := store.Open(dir, store.Options{FlushEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2 := NewMiner(st2, cfg, ArtifactPath(dir))
	st2.SetObserver(m2.OnMutation)
	defer func() {
		st2.SetObserver(nil)
		m2.Close()
	}()
	if err := m2.Init(); err != nil {
		t.Fatal(err)
	}
	if !m2.Stats().WarmStart {
		t.Fatal("reopen did not warm-start from the artifact")
	}
	got, _ := json.Marshal(m2.Snapshot())
	if string(got) != string(want) {
		t.Fatalf("warm-started graph diverges\ngot:  %s\nwant: %s", got, want)
	}
	checkMinerDifferential(t, "warm start", st2, []*Miner{m2})

	// Deltas keep folding on top of the warm-started state.
	if err := st2.Append(minerEntries(base.Add(2*time.Hour), 100, 5)...); err != nil {
		t.Fatal(err)
	}
	checkMinerDifferential(t, "post-warm-start append", st2, []*Miner{m2})
}

// TestMinerCrashRestartColdStarts: the artifact is written only by
// Close, so a process that dies after appends and seals leaves none and
// the next open rebuilds from a scan — to exactly the batch mine.
func TestMinerCrashRestartColdStarts(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(dir, logrec.Liberty, store.Options{FlushEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: 30 * time.Minute}
	saves0 := mCorrelateSaves.Value()
	m := NewMiner(st, cfg, ArtifactPath(dir))
	st.SetObserver(m.OnMutation)
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	var all []store.Entry
	for i := 0; i < 3; i++ {
		batch := minerEntries(base.Add(time.Duration(i)*time.Hour), uint64(i*100), 9)
		all = append(all, batch...)
		if err := st.Append(batch...); err != nil {
			t.Fatal(err)
		}
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	waitSettled(t, m)
	if got := mCorrelateSaves.Value() - saves0; got != 0 {
		t.Fatalf("%d saves before any Close", got)
	}
	if _, err := os.Stat(ArtifactPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("artifact written before Close: %v", err)
	}

	// The crash: the miner is never closed. The store's own files are
	// what a reopen recovers either way.
	st.SetObserver(nil)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := store.Open(dir, store.Options{FlushEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2 := NewMiner(st2, cfg, ArtifactPath(dir))
	st2.SetObserver(m2.OnMutation)
	if err := m2.Init(); err != nil {
		t.Fatal(err)
	}
	if m2.Stats().WarmStart {
		t.Fatal("a crash restart warm-started")
	}
	waitSettled(t, m2)
	if got, want := graphJSON(t, m2.Snapshot()), graphJSON(t, MineEntries(cfg, all)); got != want {
		t.Fatalf("cold-started graph diverges\ngot:  %s\nwant: %s", got, want)
	}
	if got := mCorrelateSaves.Value() - saves0; got != 0 {
		t.Fatalf("%d saves before any Close", got)
	}
	st2.SetObserver(nil)
	m2.Close()
	if got := mCorrelateSaves.Value() - saves0; got != 1 {
		t.Fatalf("Close saved %d times, want 1", got)
	}
	// Release the abandoned miner's rebuild worker.
	m.view.Close()
}

// TestMinerWarmStartRejects pins the guards: a config change or a store
// mutated behind the artifact's back must fall back to a scan (and
// still produce the exact batch answer).
func TestMinerWarmStartRejects(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(dir, logrec.Liberty, store.Options{FlushEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	m := NewMiner(st, cfg, ArtifactPath(dir))
	st.SetObserver(m.OnMutation)
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	if err := st.Append(minerEntries(base, 0, 6)...); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, m)
	st.SetObserver(nil)
	m.Close()

	// Mutate the store after the artifact was written: the fingerprint
	// moves, so a matching-config miner must reject the stale artifact.
	if err := st.Append(minerEntries(base.Add(3*time.Hour), 50, 4)...); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, _, err := store.Open(dir, store.Options{FlushEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()

	// Different config: rejected by key.
	other := NewMiner(st2, Config{Window: 5 * time.Minute}, ArtifactPath(dir))
	st2.SetObserver(other.OnMutation)
	if err := other.Init(); err != nil {
		t.Fatal(err)
	}
	if other.Stats().WarmStart {
		t.Fatal("mismatched config warm-started")
	}
	checkMinerDifferential(t, "config mismatch", st2, []*Miner{other})
	st2.SetObserver(nil)
	other.Close()

	// Same config, stale fingerprint: rejected, rebuilt from scan.
	m2 := NewMiner(st2, cfg, ArtifactPath(dir))
	st2.SetObserver(m2.OnMutation)
	defer func() {
		st2.SetObserver(nil)
		m2.Close()
	}()
	if err := m2.Init(); err != nil {
		t.Fatal(err)
	}
	if m2.Stats().WarmStart {
		t.Fatal("stale artifact warm-started")
	}
	checkMinerDifferential(t, "stale fingerprint", st2, []*Miner{m2})
}

// TestCorruptArtifactIgnored: a truncated or garbage artifact, one in
// the old encoding, or one without columns is a cache miss, not an
// error — even when its fingerprint matches the store.
func TestCorruptArtifactIgnored(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(dir, logrec.Liberty, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	for i, form := range []string{
		"{not json",
		`{"version":1,"config_key":%q,"fingerprint":%d,"cols":{}}`,
		`{"version":2,"config_key":%q,"fingerprint":%d,"cols":null}`,
	} {
		// Each artifact names the store's current fingerprint.
		fp, _ := st.FingerprintSeq()
		body := form
		if i > 0 {
			body = fmt.Sprintf(form, Config{}.Key(), fp)
		}
		if err := os.WriteFile(ArtifactPath(dir), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		m := NewMiner(st, Config{}, ArtifactPath(dir))
		st.SetObserver(m.OnMutation)
		if err := m.Init(); err != nil {
			t.Fatal(err)
		}
		if m.Stats().WarmStart {
			t.Fatalf("artifact %s warm-started", body)
		}
		// The scanned state takes a fold.
		if err := st.Append(minerEntries(base.Add(time.Duration(i)*time.Hour), uint64(i*10), 5)...); err != nil {
			t.Fatal(err)
		}
		checkMinerDifferential(t, body, st, []*Miner{m})
		st.SetObserver(nil)
		m.Close()
	}
}

// TestMinerCloseLeavesNoGoroutines: Close takes the view's rebuild
// worker down after it has re-baselined on a retention pass.
func TestMinerCloseLeavesNoGoroutines(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(dir, logrec.Liberty, store.Options{FlushEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := runtime.NumGoroutine()

	m := NewMiner(st, Config{}, ArtifactPath(dir))
	st.SetObserver(m.OnMutation)
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	if err := st.Append(minerEntries(base, 0, 12)...); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if rst, err := st.ApplyRetention(base.Add(4 * time.Minute)); err != nil || rst.SegmentsDropped == 0 {
		t.Fatalf("need a real retention mutation: %+v, %v", rst, err)
	}
	waitSettled(t, m)
	if stats := m.Stats(); stats.Rebuilds == 0 {
		t.Fatalf("the rebuild worker never ran: %+v", stats)
	}

	st.SetObserver(nil)
	m.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
