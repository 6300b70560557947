package catalog

import (
	"math/rand"
	"strings"
	"testing"
)

// TestPrefilterExtraction spot-checks the literal walker on the pattern
// shapes the catalog actually uses.
func TestPrefilterExtraction(t *testing.T) {
	cases := []struct {
		pattern   string
		wantLit   string // a literal that must be extracted ("" = none required)
		wantExact bool
	}{
		{"data TLB error interrupt", "data TLB error interrupt", true},
		{"task_check: node \\d+ did not respond", "task_check: node ", false},
		{"foo (bar|baz) qux", " qux", false},
		{"(alpha)+tail", "alpha", false},
		{"^anchored body$", "anchored body", false},
		{"[0-9]+", "", false},
		{"opt(ional)? stem", " stem", false},
	}
	for _, tc := range cases {
		p := compilePrefilter(tc.pattern)
		if tc.wantLit == "" {
			if len(p.lits) != 0 {
				t.Errorf("%q: unexpected literals %q", tc.pattern, p.lits)
			}
			continue
		}
		found := false
		for _, l := range p.lits {
			if strings.Contains(l, tc.wantLit) || strings.Contains(tc.wantLit, l) {
				found = true
			}
		}
		if !found {
			t.Errorf("%q: literals %q missing %q", tc.pattern, p.lits, tc.wantLit)
		}
		if p.exact != tc.wantExact {
			t.Errorf("%q: exact = %v, want %v", tc.pattern, p.exact, tc.wantExact)
		}
	}
}

// TestPrefilterOneRunePattern: a pattern that reduces to one rune (/a/,
// /\./, /[x]/) yields no harvested literal, so the prefilter cannot
// decide it alone and the regexp must run.
func TestPrefilterOneRunePattern(t *testing.T) {
	for _, pattern := range []string{"a", ":", `\.`, "[x]"} {
		c, err := NewRule(0, "ONE", Hardware, pattern, "", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.pre.exact {
			t.Errorf("%q: exact with literals %q", pattern, c.pre.lits)
		}
		for _, body := range []string{"zzz", "", "a:.x", "xa", "b.c"} {
			if got, want := c.matchBody(body), c.re.MatchString(body); got != want {
				t.Errorf("%q: matchBody(%q) = %v, regexp says %v", pattern, body, got, want)
			}
		}
	}
}

// TestPrefilterSoundOnCatalog: for every category, every generated body
// (which matches by construction) passes the prefilter — i.e. the
// extracted literals really are required — and matchBody agrees with
// the raw regexp on both matching and perturbed bodies.
func TestPrefilterSoundOnCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	exactCount := 0
	for _, c := range All() {
		if c.pre.exact {
			exactCount++
		}
		for trial := 0; trial < 25; trial++ {
			body := c.Gen(rng)
			if !c.re.MatchString(body) {
				t.Fatalf("%s: generator emitted non-matching body %q", c.Key(), body)
			}
			if !c.matchBody(body) {
				t.Fatalf("%s: prefilter rejected matching body %q (lits %q)", c.Key(), body, c.pre.lits)
			}
			// Perturbations: truncations and splices that may or may not
			// match; matchBody must always agree with the raw regexp.
			for _, mut := range []string{
				body[:rng.Intn(len(body)+1)],
				"noise " + body,
				strings.Replace(body, "e", "", 1),
				strings.ToUpper(body),
			} {
				if got, want := c.matchBody(mut), c.re.MatchString(mut); got != want {
					t.Fatalf("%s: matchBody(%q) = %v, regexp says %v", c.Key(), mut, got, want)
				}
			}
		}
	}
	if exactCount == 0 {
		t.Error("no catalog pattern compiled to an exact literal prefilter; expected many")
	}
	t.Logf("%d/%d categories decided by pure literal containment", exactCount, Count())
}

// TestPrefilterAgainstForeignBodies: bodies generated for other
// categories (the realistic non-matching traffic) are classified
// identically by matchBody and the raw regexp.
func TestPrefilterAgainstForeignBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	all := All()
	for _, c := range all {
		for trial := 0; trial < 10; trial++ {
			other := all[rng.Intn(len(all))]
			body := other.Gen(rng)
			if got, want := c.matchBody(body), c.re.MatchString(body); got != want {
				t.Fatalf("%s vs %s body %q: matchBody %v, regexp %v", c.Key(), other.Key(), body, got, want)
			}
		}
	}
}
