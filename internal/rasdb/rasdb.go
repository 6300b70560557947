// Package rasdb implements the Blue Gene/L RAS event dialect and its
// collection path. On BG/L, logging is managed by the Machine Management
// Control System (MMCS): compute chips store errors locally until they are
// polled over the JTAG-mailbox protocol (roughly every millisecond), and
// the service-node MMCS process relays events into a centralized DB2
// database. Timestamps carry microsecond precision, unlike the one-second
// granularity of syslog.
//
// The wire form rendered and parsed here follows the published BG/L log
// line shape:
//
//	2005-06-03-15.42.50.363779 R02-M1-N0 RAS KERNEL FATAL data TLB error interrupt
//
// i.e. timestamp, location (or NULL), the literal "RAS", a facility
// (KERNEL, APP, BGLMASTER, ...), a severity on the six-level BG/L scale,
// and the free-form body.
package rasdb

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"whatsupersay/internal/logrec"
)

// TimeLayout is the BG/L RAS timestamp: date and time dotted, with
// microseconds.
const TimeLayout = "2006-01-02-15.04.05.000000"

// Facilities seen in the BG/L logs. The facility is the $5-style field the
// paper's example awk rule matches against ("$5 ~ /KERNEL/").
const (
	FacKernel    = "KERNEL"
	FacApp       = "APP"
	FacBGLMaster = "BGLMASTER"
	FacDiscovery = "DISCOVERY"
	FacMMCS      = "MMCS"
	FacMonitor   = "MONITOR"
	FacLinkCard  = "LINKCARD"
	FacHardware  = "HARDWARE"
)

// Render produces the RAS line form of a record. Records without a BG/L
// severity render as INFO; an empty source renders as NULL (service-level
// events such as the BGLMASTER example in Section 3.2.1 carry no
// location).
func Render(r logrec.Record) string {
	return string(AppendLine(nil, r))
}

// AppendLine is Render in append form: it appends the RAS line to dst
// and returns the extended slice (see syslogng.AppendLine for the
// contract).
func AppendLine(dst []byte, r logrec.Record) []byte {
	loc := r.Source
	if loc == "" {
		loc = "NULL"
	}
	sev := r.Severity
	if !sev.IsBGL() {
		sev = logrec.SevInfoBGL
	}
	fac := r.Facility
	if fac == "" {
		fac = FacKernel
	}
	dst = r.Time.AppendFormat(dst, TimeLayout)
	dst = append(dst, ' ')
	dst = append(dst, loc...)
	dst = append(dst, " RAS "...)
	dst = append(dst, fac...)
	dst = append(dst, ' ')
	dst = append(dst, sev.String()...)
	dst = append(dst, ' ')
	return append(dst, r.Body...)
}

// ParseError describes an unparseable RAS line.
type ParseError struct {
	Line   string
	Reason string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("rasdb: parse %q: %s", e.Line, e.Reason)
}

// Parse parses one RAS line. Like the syslog parser, damage is preserved:
// a malformed line yields a Corrupted record carrying the raw text plus a
// non-nil *ParseError.
func Parse(line string) (logrec.Record, *ParseError) {
	rec := logrec.Record{System: logrec.BlueGeneL, Raw: line}
	fields := strings.SplitN(line, " ", 6)
	if len(fields) < 6 {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "fewer than 6 fields"}
	}
	ts, err := time.Parse(TimeLayout, fields[0])
	if err != nil {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "bad timestamp: " + err.Error()}
	}
	rec.Time = ts.UTC()
	if fields[1] != "NULL" {
		rec.Source = fields[1]
	}
	if fields[2] != "RAS" {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "missing RAS marker"}
	}
	rec.Facility = fields[3]
	sev, serr := logrec.ParseBGLSeverity(fields[4])
	if serr != nil {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: serr.Error()}
	}
	rec.Severity = sev
	rec.Body = fields[5]
	return rec, nil
}

// Mailbox models the JTAG-mailbox collection step: events generated on a
// chip are held locally until the next poll, then relayed to the DB2
// database in poll order. Generation timestamps are preserved (that is
// what the database stores), but database arrival order follows polling —
// so records from different nodes interleave at poll-quantum granularity
// rather than true time order.
type Mailbox struct {
	// PollInterval is the polling period; the study's logs were polled
	// at about one millisecond.
	PollInterval time.Duration
}

// DefaultMailbox returns the 1 ms poll configuration from the paper.
func DefaultMailbox() Mailbox { return Mailbox{PollInterval: time.Millisecond} }

// Collect reorders a time-sorted event stream into database arrival
// order, in place: messages are bucketed by poll quantum, and within a
// quantum grouped by source (the per-node mailboxes are drained one at a
// time). at reports a message's generation time and source.
func Collect[M any](m Mailbox, msgs []M, at func(M) (t time.Time, source string)) {
	if m.PollInterval <= 0 {
		return
	}
	sort.SliceStable(msgs, func(i, j int) bool {
		ti, si := at(msgs[i])
		tj, sj := at(msgs[j])
		qi, qj := ti.UnixNano()/int64(m.PollInterval), tj.UnixNano()/int64(m.PollInterval)
		if qi != qj {
			return qi < qj
		}
		if si != sj {
			return si < sj
		}
		return ti.Before(tj)
	})
}
