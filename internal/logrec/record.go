// Package logrec defines the structured log record model shared by every
// subsystem in the study: the parsed representation of one line (or one RAS
// event) from a supercomputer system log, together with the severity scales
// used by the five machines.
//
// The model deliberately mirrors what the DSN 2007 paper ("What
// Supercomputers Say") works with: a timestamp, a source (the reporting
// node), an optional severity, an optional program tag, and an unstructured
// message body. Alert tagging (package tag) and filtering (package filter)
// operate on these records.
package logrec

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// System identifies one of the five supercomputers in the study.
type System int

// The five systems of Table 1, ordered as the paper lists them.
const (
	BlueGeneL System = iota + 1
	Thunderbird
	RedStorm
	Spirit
	Liberty
)

// String returns the paper's name for the system.
func (s System) String() string {
	switch s {
	case BlueGeneL:
		return "Blue Gene/L"
	case Thunderbird:
		return "Thunderbird"
	case RedStorm:
		return "Red Storm"
	case Spirit:
		return "Spirit"
	case Liberty:
		return "Liberty"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// ShortName returns a lowercase identifier suitable for file names and CLI
// flags (e.g. "bgl", "tbird").
func (s System) ShortName() string {
	switch s {
	case BlueGeneL:
		return "bgl"
	case Thunderbird:
		return "tbird"
	case RedStorm:
		return "redstorm"
	case Spirit:
		return "spirit"
	case Liberty:
		return "liberty"
	default:
		return fmt.Sprintf("system%d", int(s))
	}
}

// Systems lists all five systems in paper order.
func Systems() []System {
	return []System{BlueGeneL, Thunderbird, RedStorm, Spirit, Liberty}
}

// ParseSystem resolves a system from its short or full name,
// case-insensitively. It accepts both "bgl" and "Blue Gene/L" forms.
func ParseSystem(name string) (System, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	for _, s := range Systems() {
		if n == s.ShortName() || n == strings.ToLower(s.String()) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown system %q", name)
}

// Record is one structured log entry.
//
// Seq is a monotonically increasing sequence number assigned at generation
// (or ingestion) time; it makes sorting stable when many records share a
// timestamp, which is routine at one-second syslog granularity.
type Record struct {
	// Seq is the stable per-stream sequence number.
	Seq uint64
	// Time is when the message was generated. BG/L records carry
	// microsecond precision; syslog-based records carry one-second
	// precision (the parser truncates accordingly).
	Time time.Time
	// System is the machine the record belongs to.
	System System
	// Source is the reporting component: a node name such as "sn373",
	// "tbird-admin1", or a BG/L location string. A corrupted source field
	// is preserved verbatim (see package corrupt).
	Source string
	// Facility is the syslog facility when known (empty otherwise).
	Facility string
	// Severity is the record's severity on its native scale, or
	// SeverityUnknown when the logging path does not record one (the
	// Thunderbird, Spirit, and Liberty configurations in the study did
	// not store severities).
	Severity Severity
	// Program is the reporting program tag ("kernel", "pbs_mom", ...),
	// when present.
	Program string
	// Body is the unstructured message body.
	Body string
	// Raw is the original wire form of the record, when it was parsed
	// from text. Generators leave it empty and renderers produce it.
	Raw string
	// Corrupted marks records whose wire form was damaged in transit
	// (truncated, overwritten, or mis-attributed). Parsers set it when
	// they detect damage; the generator's ground truth also sets it.
	Corrupted bool
}

// Clone returns a copy of the record.
func (r Record) Clone() Record { return r }

// Key returns a compact identity string used in debugging output.
func (r Record) Key() string {
	return fmt.Sprintf("%s/%s@%d#%d", r.System.ShortName(), r.Source, r.Time.Unix(), r.Seq)
}

// Before reports whether r should sort before other: by time, then by
// sequence number as a tiebreak. Both sides are compared in place, since
// a sort calls it on every comparison.
func (r *Record) Before(other *Record) bool { return Compare(r, other) < 0 }

// Compare orders two records canonically — by time, then by sequence
// number — returning -1, 0 or +1, in the form the slices sorts take.
func Compare(a, b *Record) int {
	if c := a.Time.Compare(b.Time); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// SortRecords sorts records in place into canonical order (time, then
// sequence number). All downstream analyses assume this order.
//
// A log is written in time order, so its records arrive sorted but for
// a few stragglers — corrupted lines, whose time reads zero. One pass
// sets the stragglers aside and closes the gaps, the stragglers are
// sorted on their own, and a merge from the back puts them in place:
// linear work, where a general sort of the nearly sorted slice costs
// ~log n comparisons per record. Input in no order at all sets most of
// itself aside and so costs one general sort plus two copies.
func SortRecords(recs []Record) {
	var late []Record
	kept := 0
	for i := range recs {
		if kept > 0 && Compare(&recs[i], &recs[kept-1]) < 0 {
			late = append(late, recs[i])
			continue
		}
		if kept != i {
			recs[kept] = recs[i]
		}
		kept++
	}
	if len(late) == 0 {
		return
	}
	// The stragglers are sorted as a permutation of their indexes, so the
	// sort moves ints, not records; it is the same pdqsort over the same
	// comparisons, so it leaves tied records in the same order.
	perm := make([]int, len(late))
	for k := range perm {
		perm[k] = k
	}
	slices.SortFunc(perm, func(a, b int) int { return Compare(&late[a], &late[b]) })
	i, j := kept-1, len(late)-1
	for w := len(recs) - 1; j >= 0; w-- {
		if l := &late[perm[j]]; i >= 0 && Compare(&recs[i], l) > 0 {
			recs[w] = recs[i]
			i--
		} else {
			recs[w] = *l
			j--
		}
	}
}

// IsSorted reports whether recs is in canonical order.
func IsSorted(recs []Record) bool {
	for i := 1; i < len(recs); i++ {
		if Compare(&recs[i], &recs[i-1]) < 0 {
			return false
		}
	}
	return true
}
