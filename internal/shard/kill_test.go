package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/store"
)

// Per-shard kill simulation: store's crash hook is dir-aware, so a test
// can kill exactly one shard of a live cluster at a named durability
// window, abandon everything (no Close — a process death), and reopen.
// The contract is the single-store one, scoped: the victim recovers to
// exactly-once, and the other shards are untouched bystanders.

var errKill = errors.New("simulated kill")

// killShardAt installs a hook that kills only the named window in the
// victim shard's directory, leaving sibling shards' operations alone.
func killShardAt(t *testing.T, shardDir, point string) {
	t.Helper()
	store.SetCrashHook(func(dir, p string) error {
		if dir == shardDir && p == point {
			return errKill
		}
		return nil
	})
	t.Cleanup(func() { store.SetCrashHook(nil) })
}

// sealPoints and compactPoints partition the store's crash windows by
// the operation that crosses them.
func splitCrashPoints() (seal, compact []string) {
	for _, p := range store.CrashPoints() {
		if strings.HasPrefix(p, "compact.") {
			compact = append(compact, p)
		} else {
			seal = append(seal, p)
		}
	}
	return
}

// checkClusterExactlyOnce reopens the cluster directory cold and
// asserts a full scatter returns exactly the acknowledged union — no
// quarantine, no loss, no duplication.
func checkClusterExactlyOnce(t *testing.T, dir string, want []store.Entry) *Cluster {
	t.Helper()
	store.SetCrashHook(nil)
	c, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if len(rep.Quarantined) != 0 {
		t.Fatalf("kill recovery quarantined shards: %v", rep.Quarantined)
	}
	got, cov, _, err := c.Select(context.Background(), store.Filter{}, 0)
	if err != nil || cov.Partial {
		t.Fatalf("post-recovery select: %v (coverage %+v)", err, cov)
	}
	sorted := append([]store.Entry(nil), want...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Record.Before(&sorted[j].Record) })
	if !reflect.DeepEqual(got, sorted) {
		t.Fatalf("exactly-once violated: recovered %d entries, want %d", len(got), len(sorted))
	}
	return c
}

// TestKillOneShardSealWindows kills one shard of a four-shard cluster
// at every seal durability window and reopens: the acknowledged union
// survives exactly-once and no shard needs quarantine.
func TestKillOneShardSealWindows(t *testing.T) {
	sealPoints, _ := splitCrashPoints()
	if len(sealPoints) == 0 {
		t.Fatal("no seal crash points exported")
	}
	const victim = 1
	for _, point := range sealPoints {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			entries := makeEntries(t, 300, 67)
			// FlushEvery is huge: nothing seals until the Seal under test.
			c, _, err := Create(dir, logrec.Thunderbird, 4, Options{Store: store.Options{FlushEvery: 1 << 30}})
			if err != nil {
				t.Fatal(err)
			}
			if ar, err := c.Append(entries); err != nil || ar.Appended != len(entries) {
				t.Fatalf("append: %v %+v", err, ar)
			}

			killShardAt(t, ShardDir(dir, victim), point)
			if err := c.Seal(); !errors.Is(err, errKill) {
				t.Fatalf("seal survived the kill: %v", err)
			}
			// Abandoned: no Close, like a real process death mid-seal.

			c2 := checkClusterExactlyOnce(t, dir, entries)

			// Bystander shards hold exactly their routed slices.
			want := map[int]int{}
			for _, en := range entries {
				want[ShardFor(en.Record.Source, 4)]++
			}
			for _, h := range c2.Health() {
				if h.Entries != want[h.ID] {
					t.Errorf("shard %d holds %d entries after recovery, want %d", h.ID, h.Entries, want[h.ID])
				}
			}
		})
	}
}

// TestKillOneShardCompactionWindows kills one shard's compaction at
// every window. The victim's store is driven standalone (compaction is
// a per-shard background concern), then the whole cluster reopens cold:
// exactly-once, siblings untouched.
func TestKillOneShardCompactionWindows(t *testing.T) {
	_, compactPoints := splitCrashPoints()
	if len(compactPoints) == 0 {
		t.Fatal("no compaction crash points exported")
	}
	const victim = 2
	for _, point := range compactPoints {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			entries := makeEntries(t, 300, 71)
			c, _, err := Create(dir, logrec.Thunderbird, 4, Options{Store: store.Options{FlushEvery: 50}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Append(entries); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			// Fragment the victim standalone: many small sealed segments
			// give compaction a run to merge. Extra entries route to the
			// victim so per-shard accounting stays honest.
			vdir := ShardDir(dir, victim)
			st, _, err := store.Open(vdir, store.Options{FlushEvery: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			var extra []store.Entry
			seq := uint64(100000)
			base := time.Date(2004, 5, 1, 0, 0, 0, 0, time.UTC)
			for seg := 0; seg < 6; seg++ {
				var batch []store.Entry
				for i := 0; i < 20; i++ {
					src := fmt.Sprintf("vx%d", i)
					if ShardFor(src, 4) != victim {
						continue
					}
					seq++
					batch = append(batch, store.Entry{Record: logrec.Record{
						Seq: seq, Time: base.Add(time.Duration(seq) * time.Second),
						System: logrec.Thunderbird, Source: src,
					}, Category: "ECC", Kept: true})
				}
				if len(batch) == 0 {
					t.Fatal("no sources route to the victim")
				}
				if err := st.Append(batch...); err != nil {
					t.Fatal(err)
				}
				if err := st.Seal(); err != nil {
					t.Fatal(err)
				}
				extra = append(extra, batch...)
			}

			killShardAt(t, vdir, point)
			if _, err := st.Compact(); !errors.Is(err, errKill) {
				t.Fatalf("compact survived the kill: %v", err)
			}
			// Abandoned mid-compaction.

			checkClusterExactlyOnce(t, dir, append(append([]store.Entry(nil), entries...), extra...))
		})
	}
}
