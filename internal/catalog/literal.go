package catalog

import (
	"regexp/syntax"
	"sort"
	"strings"
)

// Literal prefiltering: most expert rules are plain literal phrases
// ("data TLB error interrupt"), and even the genuinely regular ones
// contain mandatory literal runs. Extracting those runs at catalog load
// lets the tagger reject non-matching bodies with strings.Contains —
// a memchr-backed scan — without ever entering the regexp engine,
// which is the scan-everything cost the Table 4 rule order otherwise
// forces on every record. The extraction is conservative: a returned
// literal is *required* (every match of the pattern contains it), so
// prefiltering can only skip work, never change a tagging decision.

// prefilter is the compiled prefilter for one pattern.
type prefilter struct {
	// lits are literal substrings every match must contain, longest
	// first (the longest is the most selective, so it runs first).
	lits []string
	// exact is true when the pattern is one literal run with no
	// regular structure at all: containment of lits[0] is then not
	// just necessary but sufficient, and the regexp never runs.
	exact bool
}

// compilePrefilter extracts required literals from a pattern. A nil
// result (no literals) disables prefiltering for that rule.
func compilePrefilter(pattern string) prefilter {
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		return prefilter{}
	}
	re = re.Simplify()
	var lits []string
	collectLiterals(re, &lits)
	// An unanchored pure-literal pattern matches a body iff the body
	// contains the literal; Contains fully decides it. That holds only
	// when the literal was harvested: a one-rune pattern such as /a/
	// yields none, and must then go to the regexp.
	exact := len(lits) > 0 && re.Op == syntax.OpLiteral && re.Flags&syntax.FoldCase == 0
	sort.SliceStable(lits, func(i, j int) bool { return len(lits[i]) > len(lits[j]) })
	if len(lits) > 3 {
		lits = lits[:3] // diminishing returns past the few longest runs
	}
	return prefilter{lits: lits, exact: exact}
}

// collectLiterals walks a parsed pattern and appends the literal runs
// that every match must contain. It descends only through nodes whose
// children are mandatory (concat, capture, plus, repeat with min >= 1)
// and harvests case-sensitive literal leaves; anything optional or
// alternated contributes nothing, keeping the extraction sound.
func collectLiterals(re *syntax.Regexp, out *[]string) {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 && len(re.Rune) >= 2 {
			*out = append(*out, string(re.Rune))
		}
	case syntax.OpConcat, syntax.OpCapture:
		for _, sub := range re.Sub {
			collectLiterals(sub, out)
		}
	case syntax.OpPlus:
		collectLiterals(re.Sub[0], out)
	case syntax.OpRepeat:
		if re.Min >= 1 {
			collectLiterals(re.Sub[0], out)
		}
	}
	// OpAlternate, OpStar, OpQuest and everything else: their content
	// is not guaranteed to appear in a match, so they are skipped.
}

// matchBody applies the prefilter, then (when still undecided) the
// compiled regexp. It is the single body-matching path for a category.
func (c *Category) matchBody(body string) bool {
	for _, lit := range c.pre.lits {
		if !strings.Contains(body, lit) {
			return false
		}
	}
	if c.pre.exact {
		return true
	}
	return c.re.MatchString(body)
}
