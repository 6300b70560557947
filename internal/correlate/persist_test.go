package correlate

import (
	"encoding/json"
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

// TestCorruptArtifactIgnored: a truncated or garbage artifact is a
// cache miss, not an error.
func TestCorruptArtifactIgnored(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(dir, logrec.Liberty, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := os.WriteFile(ArtifactPath(dir), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewMiner(st, Config{}, ArtifactPath(dir))
	st.SetObserver(m.OnMutation)
	defer func() {
		st.SetObserver(nil)
		m.Close()
	}()
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().WarmStart {
		t.Fatal("corrupt artifact warm-started")
	}
	checkMinerDifferential(t, "corrupt artifact", st, []*Miner{m})
}

// TestMinerCloseLeavesNoGoroutines: Close takes both workers down — the
// rebuild worker after it has re-baselined on a compaction, the save
// worker after it has written an artifact (before Close's own final
// save, so the file proves the worker ran).
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
	if cst, err := st.Compact(); err != nil || cst.Compactions == 0 {
		t.Fatalf("need a real compact mutation: %+v, %v", cst, err)
	}
	waitSettled(t, m)
	if stats := m.Stats(); stats.Rebuilds == 0 {
		t.Fatalf("the rebuild worker never ran: %+v", stats)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(ArtifactPath(dir)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the save worker never wrote an artifact")
		}
		time.Sleep(2 * time.Millisecond)
	}

	st.SetObserver(nil)
	m.Close()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
