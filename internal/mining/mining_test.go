package mining

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/logrec"
)

func TestMineRecoverFormatStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var bodies []string
	// Two format strings with variable fields, plus a fixed message.
	for i := 0; i < 200; i++ {
		bodies = append(bodies, fmt.Sprintf("session opened for user u%d by (uid=0)", rng.Intn(1000)))
	}
	for i := 0; i < 100; i++ {
		bodies = append(bodies, fmt.Sprintf("EXT3-fs error (device dm-%d): journal abort", rng.Intn(4096)))
	}
	for i := 0; i < 50; i++ {
		bodies = append(bodies, "rts panic! - stopping execution")
	}
	templates := Mine(bodies, Config{Support: 10})
	if len(templates) != 3 {
		for _, tp := range templates {
			t.Logf("template %q count=%d", tp, tp.Count)
		}
		t.Fatalf("templates = %d, want 3", len(templates))
	}
	// Sorted by count: session template first.
	if templates[0].Count != 200 || templates[1].Count != 100 || templates[2].Count != 50 {
		t.Errorf("counts = %d/%d/%d", templates[0].Count, templates[1].Count, templates[2].Count)
	}
	// The variable fields are wildcarded, the constants kept.
	top := templates[0].String()
	if !strings.Contains(top, "session opened for user") || !strings.Contains(top, Wildcard) {
		t.Errorf("top template = %q", top)
	}
	// The fixed message has no wildcards.
	if strings.Contains(templates[2].String(), Wildcard) {
		t.Errorf("fixed template has wildcards: %q", templates[2])
	}
}

func TestTemplateMatches(t *testing.T) {
	tp := Template{Tokens: []string{"EXT3-fs", "error", "(device", Wildcard}}
	if !tp.Matches("EXT3-fs error (device sda5)") {
		t.Error("should match with wildcard")
	}
	// A trailing wildcard absorbs variable-length tails (mined templates
	// fold tails into their final position).
	if !tp.Matches("EXT3-fs error (device sda5) aborting journal") {
		t.Error("trailing wildcard must absorb extra tokens")
	}
	if tp.Matches("EXT4-fs error (device sda5)") {
		t.Error("constant mismatch must not match")
	}
	if tp.Matches("EXT3-fs error") {
		t.Error("too-short body must not match")
	}
	// Without a trailing wildcard, length is strict.
	fixed := Template{Tokens: []string{"rts", Wildcard, "-", "stopping", "execution"}}
	if !fixed.Matches("rts panic! - stopping execution") {
		t.Error("inner wildcard match failed")
	}
	if fixed.Matches("rts panic! - stopping execution now") {
		t.Error("extra token must not match a fixed-length template")
	}
}

func TestMineVariableLengthTails(t *testing.T) {
	var bodies []string
	for i := 0; i < 50; i++ {
		bodies = append(bodies, fmt.Sprintf("kernel terminated for reason %d with trailing words %s", i, strings.Repeat("x ", i%5)))
	}
	templates := Mine(bodies, Config{Support: 10, MaxTokens: 6})
	// The long tails fold into the final token; the prefix aligns.
	if len(templates) == 0 {
		t.Fatal("no templates")
	}
	if !strings.HasPrefix(templates[0].String(), "kernel terminated for reason") {
		t.Errorf("top template = %q", templates[0])
	}
}

func TestMineEmpty(t *testing.T) {
	if out := Mine(nil, Config{}); len(out) != 0 {
		t.Error("empty input must yield no templates")
	}
}

// TestPurityOnCatalogBodies: mined templates recover the Table 4
// categories from generated message bodies — template clusters align
// with expert categories at >95% purity.
func TestPurityOnCatalogBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var bodies []string
	var labels []string
	for _, c := range catalog.BySystem(logrec.Thunderbird) {
		n := 30 + rng.Intn(40)
		for i := 0; i < n; i++ {
			bodies = append(bodies, c.Gen(rng))
			labels = append(labels, c.Name)
		}
	}
	purity := Purity(bodies, func(i int) string { return labels[i] }, Config{Support: 8})
	if purity < 0.95 {
		t.Errorf("template purity = %.3f, want > 0.95", purity)
	}
}

func TestPurityDegenerate(t *testing.T) {
	if Purity(nil, func(int) string { return "" }, Config{}) != 0 {
		t.Error("empty purity must be 0")
	}
	// All-identical messages with one label: purity 1.
	bodies := []string{"a b c", "a b c", "a b c"}
	if p := Purity(bodies, func(int) string { return "x" }, Config{Support: 2}); p != 1 {
		t.Errorf("purity = %v, want 1", p)
	}
}

// TestEveryBodyMatchesSomeTemplate is the miner's coverage invariant,
// quick-checked over random printf-like corpora: every input body must
// match at least one mined template.
func TestEveryBodyMatchesSomeTemplate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		formats := []func() string{
			func() string { return fmt.Sprintf("job %d started on node tn%d", rng.Intn(1e6), rng.Intn(100)) },
			func() string {
				return fmt.Sprintf("error code %d in module %s", rng.Intn(100), []string{"io", "net", "mm"}[rng.Intn(3)])
			},
			func() string { return "link up" },
		}
		var bodies []string
		for i := 0; i < 150; i++ {
			bodies = append(bodies, formats[rng.Intn(len(formats))]())
		}
		templates := Mine(bodies, Config{Support: 5})
		for _, b := range bodies {
			matched := false
			for _, tp := range templates {
				if tp.Matches(b) {
					matched = true
					break
				}
			}
			if !matched {
				t.Logf("unmatched body: %q", b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMineDeterministic(t *testing.T) {
	bodies := []string{"a b", "a c", "a d", "e f", "e g"}
	a := Mine(bodies, Config{Support: 2})
	b := Mine(bodies, Config{Support: 2})
	if len(a) != len(b) {
		t.Fatal("nondeterministic template count")
	}
	for i := range a {
		if a[i].String() != b[i].String() || a[i].Count != b[i].Count {
			t.Fatal("nondeterministic output")
		}
	}
}
