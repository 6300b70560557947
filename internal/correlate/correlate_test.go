package correlate

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/mining"
	"whatsupersay/internal/store"
)

// crossBrute is the O(n·m) reference for cross: count every pair with
// 0 < y-x ≤ window.
func crossBrute(xs, ys []int64, window int64) (pairs, lagSum int64) {
	for _, x := range xs {
		for _, y := range ys {
			if d := y - x; d > 0 && d <= window {
				pairs++
				lagSum += d
			}
		}
	}
	return pairs, lagSum
}

func TestCrossMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nx, ny := rng.Intn(12), rng.Intn(12)
		window := int64(1 + rng.Intn(50))
		xs := make([]int64, nx)
		ys := make([]int64, ny)
		for i := range xs {
			xs[i] = int64(rng.Intn(100))
		}
		for i := range ys {
			ys[i] = int64(rng.Intn(100))
		}
		sortInt64(xs)
		sortInt64(ys)
		gp, gl := cross(xs, ys, window)
		wp, wl := crossBrute(xs, ys, window)
		if gp != wp || gl != wl {
			t.Fatalf("trial %d: cross(%v, %v, %d) = (%d, %d), brute (%d, %d)",
				trial, xs, ys, window, gp, gl, wp, wl)
		}
	}
}

func sortInt64(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// randomEntries fabricates entries with duplicate timestamps, several
// categories and sources, and a mix of kept flags.
func randomEntries(rng *rand.Rand, base time.Time, n int) []store.Entry {
	cats := []string{"GM_PAR", "GM_LANAI", "PBS_CHK", "NMI"}
	srcs := []string{"ladm1", "ln12", "ln40"}
	out := make([]store.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, store.Entry{
			Record: logrec.Record{
				Seq:    uint64(i),
				Time:   base.Add(time.Duration(rng.Intn(3600)) * time.Second),
				System: logrec.Liberty,
				Source: srcs[rng.Intn(len(srcs))],
				Body:   fmt.Sprintf("fatal error %d on unit %d", rng.Intn(3), i),
			},
			Category: cats[rng.Intn(len(cats))],
			Kept:     rng.Intn(4) != 0,
		})
	}
	return out
}

func graphJSON(t *testing.T, g Graph) string {
	t.Helper()
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMineEntriesOrderIndependent: the graph is a pure function of the
// entry multiset — shuffling arrival order must not change a byte.
func TestMineEntriesOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	entries := randomEntries(rng, base, 300)
	for _, cfg := range testConfigs() {
		want := graphJSON(t, MineEntries(cfg, entries))
		for trial := 0; trial < 5; trial++ {
			shuffled := append([]store.Entry(nil), entries...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := graphJSON(t, MineEntries(cfg, shuffled)); got != want {
				t.Fatalf("cfg %s: shuffled mine diverged\ngot:  %s\nwant: %s", cfg.Key(), got, want)
			}
		}
	}
}

// TestFoldMatchesBatch: folding random batch splits must equal the
// from-scratch mine — the multiset union the online miner rests on.
func TestFoldMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	for trial := 0; trial < 20; trial++ {
		entries := randomEntries(rng, base, 50+rng.Intn(200))
		for _, cfg := range testConfigs() {
			cfg = cfg.withDefaults()
			s := columns{}
			for lo := 0; lo < len(entries); {
				hi := lo + 1 + rng.Intn(40)
				if hi > len(entries) {
					hi = len(entries)
				}
				s.merge(columnsOf(cfg, entries[lo:hi]))
				lo = hi
			}
			got := graphJSON(t, GraphFromColumns(cfg, s))
			want := graphJSON(t, MineEntries(cfg, entries))
			if got != want {
				t.Fatalf("trial %d cfg %s: incremental fold diverged\ngot:  %s\nwant: %s",
					trial, cfg.Key(), got, want)
			}
		}
	}
}

func testConfigs() []Config {
	tpl := mining.Mine([]string{
		"fatal error 0 on unit 1",
		"fatal error 1 on unit 2",
		"fatal error 2 on unit 3",
	}, mining.Config{Support: 2, MaxTokens: 8})
	return []Config{
		{},
		{Window: 10 * time.Minute},
		{NodeMode: NodeSourceCategory},
		{NodeMode: NodeTemplate, Templates: tpl},
		{IncludeRemoved: true},
	}
}

// TestMergeColumnsEqualsUnion: the cluster merge path — partitioned
// columns merged back must mine exactly the unpartitioned graph.
func TestMergeColumnsEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	entries := randomEntries(rng, base, 400)
	cfg := Config{}.withDefaults()
	want := graphJSON(t, MineEntries(cfg, entries))
	for _, parts := range []int{1, 2, 4, 7} {
		split := make([][]store.Entry, parts)
		for _, en := range entries {
			i := rng.Intn(parts)
			split[i] = append(split[i], en)
		}
		cols := make([]map[string][]int64, parts)
		for i, part := range split {
			cols[i] = columnsOf(cfg, part)
		}
		got := graphJSON(t, GraphFromColumns(cfg, MergeColumns(cols)))
		if got != want {
			t.Fatalf("%d-way merge diverged\ngot:  %s\nwant: %s", parts, got, want)
		}
	}
}

func TestStrictPrecedenceIgnoresTies(t *testing.T) {
	at := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	entries := []store.Entry{
		{Record: logrec.Record{Time: at, System: logrec.Liberty}, Category: "A", Kept: true},
		{Record: logrec.Record{Time: at, System: logrec.Liberty}, Category: "B", Kept: true},
	}
	g := MineEntries(Config{}, entries)
	if len(g.Edges) != 0 {
		t.Fatalf("equal timestamps produced edges: %+v", g.Edges)
	}
}

func TestRenderEdgeFields(t *testing.T) {
	at := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	mk := func(cat string, d time.Duration) store.Entry {
		return store.Entry{Record: logrec.Record{Time: at.Add(d), System: logrec.Liberty}, Category: cat, Kept: true}
	}
	// Two A→B pairs with lags 10m and 20m; one A outside any pair.
	entries := []store.Entry{
		mk("A", 0), mk("B", 10*time.Minute),
		mk("A", 2*time.Hour), mk("B", 2*time.Hour+20*time.Minute),
		mk("A", 6*time.Hour),
	}
	g := MineEntries(Config{}, entries)
	var ab *Edge
	for i := range g.Edges {
		if g.Edges[i].Source == "A" && g.Edges[i].Target == "B" {
			ab = &g.Edges[i]
		}
	}
	if ab == nil {
		t.Fatalf("A→B edge missing: %+v", g.Edges)
	}
	if ab.Pairs != 2 || ab.SourceCount != 3 || ab.TargetCount != 2 {
		t.Fatalf("edge counts: %+v", ab)
	}
	if want := 15 * time.Minute; ab.MeanLag != want {
		t.Fatalf("mean lag %v, want %v", ab.MeanLag, want)
	}
	if want := 2.0 / 3.0; ab.Confidence != want {
		t.Fatalf("confidence %v, want %v", ab.Confidence, want)
	}
}

func TestFilterEdges(t *testing.T) {
	edges := []Edge{
		{Source: "A", Target: "B", Pairs: 10, Confidence: 0.9},
		{Source: "B", Target: "C", Pairs: 2, Confidence: 0.5},
		{Source: "C", Target: "A", Pairs: 7, Confidence: 0.1},
	}
	if got := FilterEdges(edges, 5, 0, ""); len(got) != 2 {
		t.Fatalf("min support filter: %+v", got)
	}
	if got := FilterEdges(edges, 0, 0.4, ""); len(got) != 2 {
		t.Fatalf("min confidence filter: %+v", got)
	}
	got := FilterEdges(edges, 0, 0, "C")
	if len(got) != 2 || got[0].Source != "B" || got[1].Source != "C" {
		t.Fatalf("neighborhood filter: %+v", got)
	}
}

func TestConfigKeyDistinguishes(t *testing.T) {
	tpl := mining.Mine([]string{"a b", "a c"}, mining.Config{Support: 2, MaxTokens: 8})
	cfgs := []Config{
		{},
		{Window: 10 * time.Minute},
		{NodeMode: NodeSourceCategory},
		{NodeMode: NodeTemplate, Templates: tpl},
		{IncludeRemoved: true},
	}
	seen := map[string]int{}
	for i, c := range cfgs {
		k := c.Key()
		if j, dup := seen[k]; dup {
			t.Fatalf("configs %d and %d share key %q", i, j, k)
		}
		seen[k] = i
	}
	// The default key must be stable against explicit defaults.
	if (Config{}).Key() != (Config{Window: DefaultWindow}).Key() {
		t.Fatal("zero config and explicit-default config have different keys")
	}
}

func TestParseNodeModeRoundTrip(t *testing.T) {
	for _, m := range []NodeMode{NodeCategory, NodeSourceCategory, NodeTemplate} {
		got, err := ParseNodeMode(m.String())
		if err != nil || got != m {
			t.Fatalf("round trip %v: got %v, err %v", m, got, err)
		}
	}
	if _, err := ParseNodeMode("bogus"); err == nil {
		t.Fatal("bogus mode parsed")
	}
	if m, err := ParseNodeMode(""); err != nil || m != NodeCategory {
		t.Fatalf("empty mode: %v, %v", m, err)
	}
}
