package simulate

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/tag"
)

// goldenHashes pins the generator's output: sha256 of the lines (each
// followed by a newline, i.e. `logstudy generate` stdout), of the
// records formatted with %+v one per line, and of the ground truth
// formatted with %+v, at scale 0.0005 and seed 7.
var goldenHashes = []struct {
	sys                   string
	corruption            float64
	lines, records, truth string
}{
	{"bgl", 0, "596544a3b4673ee6d2583a514ebdebe37316b35137bffb26f4b4f2505a5bf804", "212bbacb244a005f0f1ccce542b11e2a35d564ee6c82c0ea61bb9630b9fd8c99", "f4e716c85e538395e49012a62207c1f87b885c932de456736506bd3021092c3e"},
	{"tbird", 0, "aabca45148fa90bc7ae510df974db0d777ccc590a3df45da42c34fc4b253e0ba", "f35632fcea1662ddaff3ff37581353d238f46f41b6a8921332e4d6757568bc60", "cbe7307aa2766cdb75045393716aa7cdb2a56dade8ed3294d0bfe0eb8a533006"},
	{"redstorm", 0, "502146f7bfeafdf98b68e59b8c74838435a93eb9d3a91d1785ad03a4b71079bf", "5dd49342bf590e9cba4a49bef1b876aaa3e234f9c0038b2bb108af0110daa4ad", "567c399fb548d1c1985e9e12393b16627e3e607b57802210906fdf2d5626899d"},
	{"spirit", 0, "02feeee0d605ca1f022595658c2b6e8f0938763e5c327328a6b4773137a9ae17", "6fd7e8cd4677d8631ba88f7da359b1881505d72a063b4fe0dcd6dadd57eac911", "79cab874cd23a34ceb5198449765e5a7cf0aff756b36efed4f435d379cf63547"},
	{"liberty", 0, "5001357532f4ccb39d2cb05bc1a7a7012a1260d9612281bbefafaaa3a285c004", "a24e1920334d9443a83c478f0d5cd98ef29a83426ee990ca8c184ca0a4ce7ac2", "5c42a0766918e54333a6bd4c285c63a689e100a636ce0715a4d397106cc2ab54"},
	{"bgl", 0.01, "aa5b6b2a50dea79ac1d1c2dc9e751620f1197197b3e932a0c050d673e8dcf6a9", "4ff7c9ffd176239d480ba92edc9a7c4982666e0577686733f5aff5a1d427d9ab", "997d82b485d001697a3820b921f5dd1feb97c7b5a27000b8e2f4e25e0497aab6"},
	{"tbird", 0.01, "1aaa937c29ff70a6dc53056561c7168c5f2045c3965610a7fd99bcc406dfdd0a", "71f5d7f29a84193d4aec70897c165a4e2f1cf710ec20320c0574e3de63acb34d", "32b1534b39812059a016fd8228acde2ea3914a21ef201f6cd28faa33d0f7a8ce"},
	{"redstorm", 0.01, "33b2fc1a44e1043e6b2ca31140a8833fcc0a1f07006692e308306b35ffb2f63b", "027033051e130e24a58d631a3a5e538d32fd0f6342af5a9e010baa866d7e5464", "bb0261d414698a4e1ca8307e6c81bf536bea07e499cc14e8100999266c87172a"},
	{"spirit", 0.01, "8eafe1d5fab02f7cc7fb9d486a58d562bbeac911e6b482b13958f505ed647e3c", "f8516402a4e303ffa3eb8f63d76e9a21baf377ebbe8c8b95df61f23cc1fc49b1", "94b086f1002ea000dc704c6e774e59b7f6e237d534713f6e562f6f31e97b1115"},
	{"liberty", 0.01, "e32c9002a8811696dd7c7860ccc118aced5ca89008039d888641f06cf87dd2cd", "42e58f522d59075d9c4c64c7728152285ef59edb93aa8c5178635a871670e933", "6a446ce3b0b59af244b8f711f2c8aedd41843a484ef7a84b7668e2c406a92969"},
}

// TestGenerateGolden: the generated log is a pure function of Config.
// For every system, with and without corruption, the lines, the parsed
// records and the ground truth hash to the values pinned above, so any
// change to task order, derived seeds, the time sort or rendering
// shows.
func TestGenerateGolden(t *testing.T) {
	for _, g := range goldenHashes {
		sys, err := logrec.ParseSystem(g.sys)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Generate(Config{System: sys, Scale: 0.0005, Seed: 7, CorruptionProb: g.corruption})
		if err != nil {
			t.Fatalf("%s: %v", g.sys, err)
		}
		lh, rh, th := sha256.New(), sha256.New(), sha256.New()
		for _, l := range out.Lines {
			fmt.Fprintf(lh, "%s\n", l)
		}
		for _, r := range out.Records {
			fmt.Fprintf(rh, "%+v\n", r)
		}
		fmt.Fprintf(th, "%+v", out.Truth)
		for _, c := range []struct{ what, got, want string }{
			{"lines", fmt.Sprintf("%x", lh.Sum(nil)), g.lines},
			{"records", fmt.Sprintf("%x", rh.Sum(nil)), g.records},
			{"truth", fmt.Sprintf("%x", th.Sum(nil)), g.truth},
		} {
			if c.got != c.want {
				t.Errorf("%s corruption=%v: %s hash %s, want %s", g.sys, g.corruption, c.what, c.got, c.want)
			}
		}
	}
}

// TestSortByTimeMatchesStableSort: the permutation sort puts events in
// exactly the order a stable sort of the events themselves gives, on
// streams where most timestamps are shared by many events.
func TestSortByTimeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := time.Date(2005, time.March, 1, 0, 0, 0, 0, time.UTC)
	for _, n := range []int{0, 1, 2, 17, 1000, 50000} {
		for _, distinct := range []int{1, 3, 100} {
			events := make([]event, n)
			for i := range events {
				events[i] = event{
					t:    base.Add(time.Duration(rng.Intn(distinct)) * time.Second),
					node: fmt.Sprint("n", i),
				}
			}
			want := append([]event(nil), events...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].t.Before(want[j].t) })
			got := sortByTime(events)
			if len(got) != len(want) {
				t.Fatalf("n=%d distinct=%d: %d events, want %d", n, distinct, len(got), len(want))
			}
			for i := range got {
				if got[i].node != want[i].node || !got[i].t.Equal(want[i].t) {
					t.Fatalf("n=%d distinct=%d: event %d is %s@%v, want %s@%v",
						n, distinct, i, got[i].node, got[i].t, want[i].node, want[i].t)
				}
			}
		}
	}
}

// TestTaggedReadIsCanonical: tagging keeps input order, so the alerts of
// a log read with ingest.ReadAll are already in canonical order — the
// reason the study, analyze and the serve ingest path do not sort them
// again. It holds for every system's text, BG/L's mailbox reorder and
// corrupted lines included.
func TestTaggedReadIsCanonical(t *testing.T) {
	for _, sys := range logrec.Systems() {
		out, err := Generate(Config{System: sys, Scale: testScale, Seed: 5, CorruptionProb: 0.01})
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if out.Truth.CorruptedLines == 0 {
			t.Fatalf("%v: no corrupted lines", sys)
		}
		text := strings.Join(out.Lines, "\n") + "\n"
		recs, _, err := ingest.ReadAll(strings.NewReader(text), sys, out.Start)
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		alerts := tag.NewTagger(sys).TagAll(recs)
		if len(alerts) == 0 {
			t.Fatalf("%v: no alerts", sys)
		}
		for i := 1; i < len(alerts); i++ {
			if !alerts[i-1].Record.Before(&alerts[i].Record) {
				t.Fatalf("%v: alert %d (%s) does not sort before alert %d (%s)",
					sys, i-1, alerts[i-1].Record.Key(), i, alerts[i].Record.Key())
			}
		}
		sorted := append([]tag.Alert(nil), alerts...)
		tag.SortAlerts(sorted)
		for i := range sorted {
			if sorted[i] != alerts[i] {
				t.Fatalf("%v: SortAlerts moved alert %d", sys, i)
			}
		}
	}
}
