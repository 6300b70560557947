package catalog

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

func mustCompile(t *testing.T, pattern string) *regexp.Regexp {
	t.Helper()
	re, err := regexp.Compile(pattern)
	if err != nil {
		t.Fatalf("compile %q: %v", pattern, err)
	}
	return re
}

// This file pins the prefilter's case-folding soundness (the `(?i)`
// concern): a fold-case literal is NOT a required substring in the
// strings.Contains sense — `(?i)error` matches "ERROR", which does not
// contain "error" — so the extractor must never harvest one, and a
// fold-case pattern must never be declared exact. The current catalog
// happens to contain no `(?i)` rules, so the synthetic cases below keep
// the invariant honest if one is ever added, and the whole-catalog sweep
// proves prefilter-pass ⊇ regexp-match over case-mangled corpora today.

// flipCase inverts the case of every ASCII letter — the adversarial
// input for any case-folding bug, since it shares no cased byte with
// the original.
func flipCase(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z':
			b[i] = c - 'a' + 'A'
		case c >= 'A' && c <= 'Z':
			b[i] = c - 'A' + 'a'
		}
	}
	return string(b)
}

// TestPrefilterFoldCaseSynthetic runs `(?i)` pattern shapes through the
// extractor and asserts the invariants directly: fold-case literal runs
// are skipped, fold-case patterns are never exact, and for every
// pattern the prefilter passes every string the regexp matches — over a
// corpus of case variants specifically built to break a naive harvest.
func TestPrefilterFoldCaseSynthetic(t *testing.T) {
	cases := []struct {
		pattern string
		// wantLits are the case-sensitive runs the extractor MAY
		// harvest pieces of; empty = no harvest allowed at all.
		wantLits []string
		// matches are strings the regexp matches; the prefilter must
		// pass every one of them.
		matches []string
	}{
		{
			pattern: "(?i)data TLB error interrupt",
			matches: []string{"data TLB error interrupt", "DATA TLB ERROR INTERRUPT", "Data Tlb Error Interrupt"},
		},
		{
			pattern:  "(?i:link error) on node \\d+",
			wantLits: []string{" on node "},
			matches:  []string{"link error on node 4", "LINK ERROR on node 4", "Link Error on node 12"},
		},
		{
			pattern:  "fan (?i:FAILED) rpm \\d+",
			wantLits: []string{"fan ", " rpm "},
			matches:  []string{"fan FAILED rpm 3", "fan failed rpm 3", "fan Failed rpm 900"},
		},
		{
			pattern: "(?i)panic",
			matches: []string{"panic", "PANIC", "PaNiC"},
		},
	}
	for _, tc := range cases {
		p := compilePrefilter(tc.pattern)
		if p.exact {
			t.Errorf("%q: fold-case pattern declared exact — containment would wrongly decide matches", tc.pattern)
		}
		for _, lit := range p.lits {
			ok := false
			for _, want := range tc.wantLits {
				if strings.Contains(want, lit) || strings.Contains(lit, want) {
					ok = true
				}
			}
			if !ok {
				t.Errorf("%q: harvested %q, which is not part of any case-sensitive run %q",
					tc.pattern, lit, tc.wantLits)
			}
		}
		// Soundness: prefilter-pass ⊇ regexp-match on the case variants.
		c := &Category{re: mustCompile(t, tc.pattern), pre: p}
		for _, m := range tc.matches {
			if !c.re.MatchString(m) {
				t.Fatalf("%q: test corpus string %q does not match — fix the test", tc.pattern, m)
			}
			if !c.matchBody(m) {
				t.Errorf("%q: prefilter rejected matching body %q (lits %q)", tc.pattern, m, p.lits)
			}
		}
	}
}

// TestPrefilterPassSupersetOfMatch is the whole-catalog sweep: for every
// rule and a corpus of generated bodies plus their case-mangled
// variants, (a) any body the regexp matches contains every prefilter
// literal (prefilter-pass ⊇ regexp-match — the soundness direction),
// (b) for exact rules containment and matching coincide in BOTH
// directions (exactness is a biconditional claim), and (c) the body
// rule (prefilter + regexp) agrees with the raw regexp everywhere.
func TestPrefilterPassSupersetOfMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rules := All()
	if len(rules) == 0 {
		t.Fatal("empty catalog")
	}
	for _, c := range rules {
		lits, exact := c.PrefilterLiterals()
		for trial := 0; trial < 15; trial++ {
			body := c.Gen(rng)
			variants := []string{
				body,
				strings.ToUpper(body),
				strings.ToLower(body),
				flipCase(body),
				"prefix " + flipCase(body) + " suffix",
			}
			for _, v := range variants {
				matched := c.Regexp().MatchString(v)
				contained := true
				for _, lit := range lits {
					if !strings.Contains(v, lit) {
						contained = false
						break
					}
				}
				if matched && !contained {
					t.Fatalf("%s: regexp matches %q but a prefilter literal %q is absent — unsound extraction",
						c.Key(), v, lits)
				}
				if exact && contained != matched {
					t.Fatalf("%s: exact rule but containment=%v, match=%v on %q",
						c.Key(), contained, matched, v)
				}
				if got := c.matchBody(v); got != matched {
					t.Fatalf("%s: matchBody(%q) = %v, regexp says %v", c.Key(), v, got, matched)
				}
			}
		}
	}
}
