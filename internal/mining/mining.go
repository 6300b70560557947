// Package mining implements message-template discovery over unstructured
// log bodies, in the lineage the paper's related work surveys: Vaarandi's
// breadth-first frequent-pattern mining over event logs (ref [27], the
// SLCT family) and Hellerstein's actionable-pattern work (ref [7]).
// Section 3.2.1 motivates it directly: "Ultimately, understanding the
// entries may require parsing the unstructured message bodies, thereby
// reducing the problem to natural language processing on the shorthand of
// multiple programmers."
//
// The miner clusters messages by their frequent (position, token) pairs:
// a first pass counts token occurrences per word position; a second pass
// assigns each message the template formed by its frequent positional
// tokens, with infrequent positions wildcarded. Messages sharing a
// template form a cluster — which, on logs whose messages come from
// printf-style format strings (all of them), recovers the format strings
// without source access.
package mining

import (
	"sort"
	"strings"
)

// Config parameterizes the miner.
type Config struct {
	// Support is the minimum occurrences for a (position, token) pair to
	// be considered constant rather than variable. Values below 2 are
	// treated as 2.
	Support int
	// MaxTokens caps the tokenized length considered; longer tails are
	// truncated into the final wildcard. Zero means 24.
	MaxTokens int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Support < 2 {
		c.Support = 2
	}
	if c.MaxTokens == 0 {
		c.MaxTokens = 24
	}
	return c
}

// Wildcard is the placeholder for variable positions.
const Wildcard = "*"

// Template is one mined message template.
type Template struct {
	// Tokens is the positional pattern; Wildcard marks variable fields.
	Tokens []string
	// Count is the number of messages matching the template.
	Count int
	// Example is one original message assigned to the template.
	Example string
}

// String renders the template as a space-joined pattern.
func (t Template) String() string { return strings.Join(t.Tokens, " ") }

// posTok is a (position, token) key.
type posTok struct {
	pos int
	tok string
}

// Mine discovers templates over message bodies. It is the two-pass
// SLCT-style procedure: count positional tokens, then bucket messages by
// their frequent-token signature. Returned templates are sorted by
// descending count.
func Mine(bodies []string, cfg Config) []Template {
	cfg = cfg.withDefaults()

	counts := make(map[posTok]int)
	for _, b := range bodies {
		toks := tokenize(b, cfg.MaxTokens)
		for i, tok := range toks {
			counts[posTok{i, tok}]++
		}
	}

	type bucket struct {
		count   int
		example string
	}
	buckets := make(map[string]*bucket)
	for _, b := range bodies {
		toks := tokenize(b, cfg.MaxTokens)
		sig := make([]string, len(toks))
		for i, tok := range toks {
			if counts[posTok{i, tok}] >= cfg.Support {
				sig[i] = tok
			} else {
				sig[i] = Wildcard
			}
		}
		key := strings.Join(sig, "\x00")
		bk := buckets[key]
		if bk == nil {
			bk = &bucket{example: b}
			buckets[key] = bk
		}
		bk.count++
	}

	out := make([]Template, 0, len(buckets))
	for key, bk := range buckets {
		out = append(out, Template{
			Tokens:  strings.Split(key, "\x00"),
			Count:   bk.count,
			Example: bk.example,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// tokenize splits a body into at most maxTokens whitespace-delimited
// tokens; a longer tail collapses into one final token so that variable-
// length messages with a common prefix still align.
func tokenize(body string, maxTokens int) []string {
	fields := strings.Fields(body)
	if len(fields) <= maxTokens {
		return fields
	}
	out := make([]string, maxTokens)
	copy(out, fields[:maxTokens-1])
	out[maxTokens-1] = strings.Join(fields[maxTokens-1:], " ")
	return out
}

// Matches reports whether a body fits the template: wildcards match any
// single token, except a trailing wildcard, which absorbs one or more
// tokens (mined templates fold variable-length tails into their final
// position).
func (t Template) Matches(body string) bool {
	if len(t.Tokens) == 0 {
		return body == ""
	}
	fields := strings.Fields(body)
	if len(fields) < len(t.Tokens) {
		return false
	}
	last := len(t.Tokens) - 1
	if len(fields) > len(t.Tokens) && t.Tokens[last] != Wildcard {
		return false
	}
	for i := 0; i < last; i++ {
		if t.Tokens[i] == Wildcard {
			continue
		}
		if fields[i] != t.Tokens[i] {
			return false
		}
	}
	if t.Tokens[last] == Wildcard {
		return true
	}
	return fields[last] == t.Tokens[last]
}

// Purity evaluates mined templates against ground-truth labels: for each
// template, the share of its messages carrying the template's majority
// label, weighted by template size. label(i) returns the ground-truth
// class of bodies[i] ("" for unlabeled). A miner that recovers the
// underlying format strings scores near 1.
func Purity(bodies []string, label func(int) string, cfg Config) float64 {
	cfg = cfg.withDefaults()
	// Re-run assignment to track indices per template.
	counts := make(map[posTok]int)
	tokenized := make([][]string, len(bodies))
	for i, b := range bodies {
		tokenized[i] = tokenize(b, cfg.MaxTokens)
		for pos, tok := range tokenized[i] {
			counts[posTok{pos, tok}]++
		}
	}
	labelCounts := make(map[string]map[string]int)
	sizes := make(map[string]int)
	for i := range bodies {
		sig := make([]string, len(tokenized[i]))
		for pos, tok := range tokenized[i] {
			if counts[posTok{pos, tok}] >= cfg.Support {
				sig[pos] = tok
			} else {
				sig[pos] = Wildcard
			}
		}
		key := strings.Join(sig, "\x00")
		lc := labelCounts[key]
		if lc == nil {
			lc = make(map[string]int)
			labelCounts[key] = lc
		}
		lc[label(i)]++
		sizes[key]++
	}
	total, agree := 0, 0
	for key, lc := range labelCounts {
		best := 0
		for _, n := range lc {
			if n > best {
				best = n
			}
		}
		agree += best
		total += sizes[key]
	}
	if total == 0 {
		return 0
	}
	return float64(agree) / float64(total)
}
