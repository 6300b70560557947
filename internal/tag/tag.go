// Package tag implements the alert-identification step of the study: the
// expert-rule engine that tags log records as alerts and assigns them to
// categories, reproducing the logsurfer/awk heuristics the administrators
// supplied ("We performed the tagging through a combination of regular
// expression matching and manual intervention", Section 3.2).
//
// It also implements the severity-field baseline the paper compares
// against (Tables 5 and 6): tagging every message at or above a severity
// threshold, which on BG/L yields a 59% false positive rate.
package tag

import (
	"fmt"
	"sort"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
	"whatsupersay/internal/parallel"
)

// Tagging telemetry: records scanned and alerts produced, folded in
// once per TagAll call (never per record).
var (
	mTagRecords = obs.Default.Counter("tag_records_total")
	mTagAlerts  = obs.Default.Counter("tag_alerts_total")
)

// Alert is a record that an expert rule tagged, with its category.
type Alert struct {
	Record   logrec.Record
	Category *catalog.Category
}

// Time returns the alert's timestamp.
func (a Alert) Time() int64 { return a.Record.Time.Unix() }

// Tagger applies a system's expert rule set to records. Rules are tried
// in Table 4 order (descending raw count), and the first match wins — the
// same one-tag-per-message discipline the paper uses ("Two alerts are in
// the same category if they were both tagged by the same expert rule").
type Tagger struct {
	system logrec.System
	rules  []*catalog.Category
}

// NewTagger builds the tagger for one system from the category catalog.
func NewTagger(sys logrec.System) *Tagger {
	return &Tagger{system: sys, rules: catalog.BySystem(sys)}
}

// Rules returns the tagger's rule list in application order.
func (t *Tagger) Rules() []*catalog.Category { return t.rules }

// Tag returns the category tagging rec, or false if no rule matches (the
// record is not an alert).
func (t *Tagger) Tag(rec logrec.Record) (*catalog.Category, bool) {
	for _, c := range t.rules {
		if c.Matches(rec) {
			return c, true
		}
	}
	return nil, false
}

// TagAll tags a record stream and returns the alerts, in input order.
// The scan is chunk-parallel across GOMAXPROCS workers; chunk results
// are reassembled in sequence order, so the output is identical to
// TagAllSerial on the same records (enforced by test).
func (t *Tagger) TagAll(recs []logrec.Record) []Alert {
	sp := obs.Default.StartSpan("tag")
	out := parallel.FlatMap(len(recs), parallel.Options{}, func(lo, hi int) []Alert {
		var out []Alert
		for i := lo; i < hi; i++ {
			if c, ok := t.Tag(recs[i]); ok {
				out = append(out, Alert{Record: recs[i], Category: c})
			}
		}
		return out
	})
	sp.End()
	mTagRecords.Add(int64(len(recs)))
	mTagAlerts.Add(int64(len(out)))
	return out
}

// TagAllSerial is the single-threaded reference path: one pass, each
// record tagged once, the output grown from nil (alerts are a small
// share of most logs).
func (t *Tagger) TagAllSerial(recs []logrec.Record) []Alert {
	sp := obs.Default.StartSpan("tag")
	var out []Alert
	for _, r := range recs {
		if c, ok := t.Tag(r); ok {
			out = append(out, Alert{Record: r, Category: c})
		}
	}
	sp.End()
	mTagRecords.Add(int64(len(recs)))
	mTagAlerts.Add(int64(len(out)))
	return out
}

// CountByCategory tallies alerts per category key, for Table 4.
func CountByCategory(alerts []Alert) map[string]int {
	out := make(map[string]int)
	for _, a := range alerts {
		out[a.Category.Name]++
	}
	return out
}

// CountByType tallies alerts per H/S/I type, for Table 3.
func CountByType(alerts []Alert) map[catalog.Type]int {
	out := make(map[catalog.Type]int)
	for _, a := range alerts {
		out[a.Category.Type]++
	}
	return out
}

// CategoriesObserved returns the number of distinct categories present,
// the "Categories" column of Table 2.
func CategoriesObserved(alerts []Alert) int {
	seen := make(map[string]bool)
	for _, a := range alerts {
		seen[a.Category.Name] = true
	}
	return len(seen)
}

// SeverityTagger is the baseline the paper evaluates and rejects: tag
// every message whose severity is at or above a threshold (e.g. BG/L
// FATAL and FAILURE).
type SeverityTagger struct {
	// Tagged is the set of severities treated as alerts.
	Tagged map[logrec.Severity]bool
}

// NewBGLSeverityTagger returns the Table 5 baseline: FATAL or FAILURE
// means alert.
func NewBGLSeverityTagger() SeverityTagger {
	return SeverityTagger{Tagged: map[logrec.Severity]bool{
		logrec.SevFatal:   true,
		logrec.SevFailure: true,
	}}
}

// Tag reports whether the baseline tags the record.
func (s SeverityTagger) Tag(rec logrec.Record) bool { return s.Tagged[rec.Severity] }

// Confusion compares a baseline tagging against the expert tagging over
// the same records.
type Confusion struct {
	TruePositive  int // expert alert, baseline alert
	FalsePositive int // not an expert alert, baseline alert
	FalseNegative int // expert alert, baseline missed
	TrueNegative  int // neither
}

// FalsePositiveRate returns FP/(TP+FP): the fraction of baseline-tagged
// messages that are not expert alerts. This is the paper's 59.34% number
// for BG/L FATAL/FAILURE tagging.
func (c Confusion) FalsePositiveRate() float64 {
	denom := c.TruePositive + c.FalsePositive
	if denom == 0 {
		return 0
	}
	return float64(c.FalsePositive) / float64(denom)
}

// FalseNegativeRate returns FN/(TP+FN): the fraction of expert alerts the
// baseline misses (0% for BG/L in the paper).
func (c Confusion) FalseNegativeRate() float64 {
	denom := c.TruePositive + c.FalseNegative
	if denom == 0 {
		return 0
	}
	return float64(c.FalseNegative) / float64(denom)
}

// CompareSeverityBaseline evaluates a severity baseline against the expert
// tagger over a record stream.
func CompareSeverityBaseline(recs []logrec.Record, expert *Tagger, baseline SeverityTagger) Confusion {
	var c Confusion
	for _, r := range recs {
		_, isAlert := expert.Tag(r)
		tagged := baseline.Tag(r)
		switch {
		case isAlert && tagged:
			c.TruePositive++
		case !isAlert && tagged:
			c.FalsePositive++
		case isAlert && !tagged:
			c.FalseNegative++
		default:
			c.TrueNegative++
		}
	}
	return c
}

// SeverityBreakdown tallies records and expert alerts per severity level,
// producing the rows of Tables 5 and 6.
type SeverityBreakdown struct {
	Messages map[logrec.Severity]int
	Alerts   map[logrec.Severity]int
	Total    int
	TotalAl  int
}

// BreakdownBySeverity computes the severity distribution over messages and
// expert-tagged alerts.
func BreakdownBySeverity(recs []logrec.Record, expert *Tagger) SeverityBreakdown {
	b := SeverityBreakdown{
		Messages: make(map[logrec.Severity]int),
		Alerts:   make(map[logrec.Severity]int),
	}
	for _, r := range recs {
		b.Messages[r.Severity]++
		b.Total++
		if _, ok := expert.Tag(r); ok {
			b.Alerts[r.Severity]++
			b.TotalAl++
		}
	}
	return b
}

// AwkSource renders a category's rule in the awk-like syntax of Section
// 3.2, e.g.
//
//	($5 ~ /KERNEL/ && /data TLB error interrupt/)
//
// for a facility-constrained BG/L rule, or /kernel: EXT3-fs error/ for a
// plain body rule with a program tag.
func AwkSource(c *catalog.Category) string {
	switch {
	case c.Facility != "":
		return fmt.Sprintf("($5 ~ /%s/ && /%s/)", c.Facility, c.Pattern)
	case c.Program != "":
		return fmt.Sprintf("/%s: %s/", c.Program, c.Pattern)
	default:
		return fmt.Sprintf("/%s/", c.Pattern)
	}
}

// SortAlerts sorts alerts into canonical record order (time, then
// sequence), which the filtering algorithms require.
func SortAlerts(alerts []Alert) {
	sort.SliceStable(alerts, func(i, j int) bool {
		return alerts[i].Record.Before(alerts[j].Record)
	})
}
