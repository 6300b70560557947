// Package catalog is the single source of truth for the 77 alert
// categories of Table 4: for each category it records the system it
// belongs to, the administrators' type assignment (hardware / software /
// indeterminate), the paper's raw and filtered counts (used to calibrate
// the generator), the expert-rule pattern that tags it, and a message-body
// generator that produces bodies the pattern matches.
//
// Both the tagging engine (package tag) and the synthetic log generator
// (package simulate) are built from this catalog, which guarantees the
// rules and the messages cannot drift apart — exactly the property the
// paper's administrators maintained by hand.
package catalog

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"

	"whatsupersay/internal/logrec"
)

// Type is the administrators' subsystem-of-origin assignment for an alert
// category (Section 3.2: "this is based on each administrator's best
// understanding of the alert, and may not necessarily be root cause").
type Type int

// The three alert types of Table 3.
const (
	Hardware Type = iota + 1
	Software
	Indeterminate
)

// String returns the paper's single-letter code expanded.
func (t Type) String() string {
	switch t {
	case Hardware:
		return "Hardware"
	case Software:
		return "Software"
	case Indeterminate:
		return "Indeterminate"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Code returns the paper's single-letter type code (H, S, I).
func (t Type) Code() string {
	switch t {
	case Hardware:
		return "H"
	case Software:
		return "S"
	case Indeterminate:
		return "I"
	default:
		return "?"
	}
}

// Types lists the three types in Table 3 order.
func Types() []Type { return []Type{Hardware, Software, Indeterminate} }

// Dialect identifies the wire format a category's messages travel in.
type Dialect int

// The three log dialects of the study.
const (
	// DialectSyslog is BSD syslog text (default; zero value).
	DialectSyslog Dialect = iota
	// DialectRAS is the BG/L MMCS→DB2 RAS event form.
	DialectRAS
	// DialectEvent is the Red Storm SMW event-router form (TCP path,
	// no severity).
	DialectEvent
)

// Category describes one expert-tagged alert category.
type Category struct {
	// System is the machine the category belongss to; category names are
	// only unique per system (PBS_CON exists on three machines).
	System logrec.System
	// Name is the category tag from Table 4 (e.g. "KERNDTLB").
	Name string
	// Type is the administrators' H/S/I assignment.
	Type Type
	// Raw and Filtered are the paper's Table 4 counts, used as
	// calibration targets by the generator. Raw is the count before
	// filtering; Filtered after Algorithm 3.1 with T = 5 s.
	Raw, Filtered int
	// Pattern is the expert rule's body regexp (logsurfer-style). It is
	// matched against the message body.
	Pattern string
	// Facility, when non-empty, is the facility field the record must
	// carry exactly: the awk-style $5 conjunct of the BG/L rules.
	Facility string
	// Program, when non-empty, is the syslog program tag the category's
	// messages carry (and which the rule requires).
	Program string
	// Severity is the native severity the generator stamps on this
	// category's messages (SeverityUnknown when the logging path records
	// none).
	Severity logrec.Severity
	// Dialect is the wire format the category's messages travel in.
	Dialect Dialect
	// Example is the paper's anonymized example body.
	Example string
	// Gen produces a message body that Pattern matches, with variable
	// fields randomized.
	Gen func(rng *rand.Rand) string

	re    *regexp.Regexp
	pre   prefilter
	terms []Term
}

// Field names the record field a Term tests.
type Field int

// The record fields a rule term can test.
const (
	FieldBody Field = iota
	FieldProgram
	FieldFacility
	FieldSource
	FieldSeverity
)

// Term is one conjunct of a rule that the category's Facility, Program
// and Pattern cannot express, such as a source or severity test, a
// facility regexp or a second body regexp. The field must equal Value
// or, when Regexp is set, match it. A severity is compared by its name.
type Term struct {
	Field  Field
	Value  string
	Regexp *regexp.Regexp
}

func (t *Term) holds(r *logrec.Record) bool {
	var v string
	switch t.Field {
	case FieldBody:
		v = r.Body
	case FieldProgram:
		v = r.Program
	case FieldFacility:
		v = r.Facility
	case FieldSource:
		v = r.Source
	case FieldSeverity:
		v = r.Severity.String()
	}
	if t.Regexp != nil {
		return t.Regexp.MatchString(v)
	}
	return v == t.Value
}

// NewRule compiles a rule that is not in the catalog, such as one read
// from a rule file, into the same type the built-in rules have: pattern
// is the body regexp, facility and program (when non-empty) must match
// exactly, and every term of extra must hold as well.
func NewRule(sys logrec.System, name string, typ Type, pattern, facility, program string, extra []Term) (*Category, error) {
	c := &Category{System: sys, Name: name, Type: typ, Pattern: pattern, Facility: facility, Program: program, terms: extra}
	if err := c.compile(); err != nil {
		return nil, err
	}
	return c, nil
}

// compile prepares Pattern for matching: the regexp and its literal
// prefilter.
func (c *Category) compile() error {
	re, err := regexp.Compile(c.Pattern)
	if err != nil {
		return err
	}
	c.re, c.pre = re, compilePrefilter(c.Pattern)
	return nil
}

// Regexp returns the compiled pattern. Compilation happens once, when
// the rule is built (at catalog construction or by NewRule).
func (c *Category) Regexp() *regexp.Regexp { return c.re }

// PrefilterLiterals returns the required literal substrings extracted
// from Pattern at catalog load: every body the rule matches contains
// all of them, so the tagger checks them with strings.Contains before
// touching the regexp engine. Exact reports that the pattern is a pure
// literal, for which containment alone decides the match and the
// regexp never runs.
func (c *Category) PrefilterLiterals() (lits []string, exact bool) {
	return append([]string(nil), c.pre.lits...), c.pre.exact
}

// Matches reports whether the category's rule tags the record: the body
// must match Pattern, the facility/program constraints (when set) must
// hold, and so must the extra terms of a rule built by NewRule. The body
// check short-circuits through the literal prefilter — a record that
// lacks the rule's mandatory substrings is rejected without any regexp
// execution — and the terms are tried only on a record that passed it.
func (c *Category) Matches(r *logrec.Record) bool {
	if c.Facility != "" && r.Facility != c.Facility {
		return false
	}
	if c.Program != "" && r.Program != c.Program {
		return false
	}
	if !c.matchBody(r.Body) {
		return false
	}
	for i := range c.terms {
		if !c.terms[i].holds(r) {
			return false
		}
	}
	return true
}

// Key returns the per-study unique key "system/name".
func (c *Category) Key() string {
	return c.System.ShortName() + "/" + c.Name
}

// catalog is the full, immutable category list, built once.
var catalog = build()

func build() []*Category {
	var all []*Category
	all = append(all, bglCategories()...)
	all = append(all, thunderbirdCategories()...)
	all = append(all, redStormCategories()...)
	all = append(all, spiritCategories()...)
	all = append(all, libertyCategories()...)
	for _, c := range all {
		if err := c.compile(); err != nil {
			panic("catalog: " + c.Key() + ": " + err.Error())
		}
		if c.System == logrec.BlueGeneL {
			c.Dialect = DialectRAS
		}
	}
	return all
}

// All returns every category, grouped by system in paper order and, within
// a system, in descending raw count (Table 4 order). The returned slice is
// shared; callers must not mutate it.
func All() []*Category {
	out := make([]*Category, len(catalog))
	copy(out, catalog)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].System != out[j].System {
			return out[i].System < out[j].System
		}
		return out[i].Raw > out[j].Raw
	})
	return out
}

// BySystem returns the categories of one system in descending raw count.
func BySystem(sys logrec.System) []*Category {
	var out []*Category
	for _, c := range All() {
		if c.System == sys {
			out = append(out, c)
		}
	}
	return out
}

// Lookup finds a category by system and name.
func Lookup(sys logrec.System, name string) (*Category, bool) {
	for _, c := range catalog {
		if c.System == sys && c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// Count returns the total number of categories (77 in the study).
func Count() int { return len(catalog) }

// helpers shared by the per-system files

func hex8(rng *rand.Rand) string  { return fmt.Sprintf("%08x", rng.Uint32()) }
func hex16(rng *rand.Rand) string { return fmt.Sprintf("%016x", rng.Uint64()) }

func jobID(rng *rand.Rand) int { return 100000 + rng.Intn(900000) }
