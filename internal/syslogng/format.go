// Package syslogng renders and parses the BSD-syslog text dialect used by
// the three commodity clusters in the study (Thunderbird, Spirit, Liberty)
// and by Red Storm's Linux-node logging path, and models the syslog-ng
// relay those systems used for collection: per-source files, and UDP
// transport that loses messages under contention (the paper notes that "as
// is standard syslog practice, the UDP protocol is used for transmission,
// resulting in some messages being lost").
package syslogng

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"whatsupersay/internal/logrec"
)

// TimeLayout is the classic BSD syslog timestamp: no year, one-second
// granularity, space-padded day of month.
const TimeLayout = time.Stamp // "Jan _2 15:04:05"

// Render produces the wire form of a record:
//
//	Jan  2 15:04:05 host program: body
//
// or, when the record carries a syslog severity and WithPriority is set
// (Red Storm's configuration stored severities; the others did not):
//
//	<PRI>Jan  2 15:04:05 host program: body
//
// Program is omitted (along with its colon) when empty, which matches
// messages emitted without a tag.
func Render(r logrec.Record, withPriority bool) string {
	return string(AppendLine(nil, r, withPriority))
}

// AppendLine is Render in append form: it appends the wire line to dst
// and returns the extended slice, allocating nothing beyond dst's own
// growth. The generator's render loop reuses one scratch buffer per
// chunk through it.
func AppendLine(dst []byte, r logrec.Record, withPriority bool) []byte {
	if withPriority {
		if pri, ok := r.Severity.SyslogPriority(); ok {
			// Facility "user" (1) unless a known facility is set; the
			// study only needs severity, which is pri mod 8.
			fac := 1
			switch r.Facility {
			case "kern":
				fac = 0
			case "daemon":
				fac = 3
			case "local0":
				fac = 16
			}
			dst = append(dst, '<')
			dst = strconv.AppendInt(dst, int64(fac*8+pri), 10)
			dst = append(dst, '>')
		}
	}
	dst = r.Time.AppendFormat(dst, TimeLayout)
	dst = append(dst, ' ')
	dst = append(dst, r.Source...)
	dst = append(dst, ' ')
	if r.Program != "" {
		dst = append(dst, r.Program...)
		dst = append(dst, ": "...)
	}
	return append(dst, r.Body...)
}

// ParseError describes a line that could not be parsed as syslog.
type ParseError struct {
	Line   string
	Reason string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("syslogng: parse %q: %s", truncate(e.Line, 60), e.Reason)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// Parse parses one syslog line into a record. year supplies the missing
// year of the BSD timestamp; sys stamps the record's system. Lines with a
// leading <PRI> have facility and severity decoded. The parser is
// tolerant in the way the study requires: a malformed line is returned as
// a Corrupted record with the raw line preserved, and a non-nil
// *ParseError describing the damage — it never discards data, because
// corrupted messages are themselves an object of study (Section 3.2.1).
func Parse(line string, year int, sys logrec.System) (logrec.Record, *ParseError) {
	rec := logrec.Record{System: sys, Raw: line}
	rest := line

	// Optional <PRI>.
	if strings.HasPrefix(rest, "<") {
		if end := strings.IndexByte(rest, '>'); end > 0 && end <= 4 {
			if pri, err := strconv.Atoi(rest[1:end]); err == nil && pri >= 0 && pri <= 191 {
				rec.Severity = logrec.SevEmerg + logrec.Severity(pri%8)
				rec.Facility = facilityName(pri / 8)
				rest = rest[end+1:]
			}
		}
	}

	// Timestamp: fixed 15-byte BSD form.
	if len(rest) < len("Jan _2 15:04:05")+1 {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "line shorter than timestamp"}
	}
	if t, ok := decodeStamp(rest[:15], year); ok {
		rec.Time = t
	} else {
		ts, err := time.Parse(TimeLayout, rest[:15])
		if err != nil {
			rec.Corrupted = true
			return rec, &ParseError{Line: line, Reason: "bad timestamp: " + err.Error()}
		}
		rec.Time = time.Date(year, ts.Month(), ts.Day(), ts.Hour(), ts.Minute(), ts.Second(), 0, time.UTC)
	}
	rest = rest[15:]
	if !strings.HasPrefix(rest, " ") {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "missing separator after timestamp"}
	}
	rest = rest[1:]

	// Host.
	sp := strings.IndexByte(rest, ' ')
	if sp <= 0 {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "missing host field"}
	}
	rec.Source = rest[:sp]
	rest = rest[sp+1:]

	rec.Program, rec.Body = splitTag(rest)
	return rec, nil
}

// splitTag splits an optional "program:" or "program[pid]:" tag off the
// message. A tag is a single token ending in ": " (tag and body) or in
// ':' at the end of the line (bare tag); one scan stops at the first
// space, tab or ": ", and a line with neither shape is all body.
func splitTag(rest string) (program, body string) {
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case ' ', '\t':
			return "", rest
		case ':':
			if i+1 == len(rest) {
				return stripPID(rest[:i]), ""
			}
			if i > 0 && rest[i+1] == ' ' {
				return stripPID(rest[:i]), rest[i+2:]
			}
		}
	}
	return "", rest
}

// monthNames is the month table: the title-case abbreviations, three
// bytes each, in calendar order.
const monthNames = "JanFebMarAprMayJunJulAugSepOctNovDec"

// daysIn is each month's length in a leap year: time.Parse checks a
// yearless day against year 0, which is leap, so Feb 29 always parses.
var daysIn = [13]int{0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// decodeStamp decodes the canonical BSD stamp "Jan _2 15:04:05" (exact
// title-case month, day " D" or "DD", two-digit fields) at fixed offsets
// and stamps it with year, as time.Date would: Feb 29 of a common year
// becomes Mar 1. Any other 15 bytes report false and take the
// time.Parse path, which alone decides what else parses and how a bad
// stamp is described; where this answers, the two agree (pinned by
// FuzzParseMatchesReference).
func decodeStamp(s string, year int) (time.Time, bool) {
	m := strings.Index(monthNames, s[:3])
	if m < 0 || m%3 != 0 || s[3] != ' ' || s[6] != ' ' || s[9] != ':' || s[12] != ':' {
		return time.Time{}, false
	}
	d0 := s[4]
	if d0 == ' ' {
		d0 = '0'
	}
	day, okD := digits2(d0, s[5])
	hour, okH := digits2(s[7], s[8])
	minute, okM := digits2(s[10], s[11])
	sec, okS := digits2(s[13], s[14])
	month := time.Month(m/3 + 1)
	if !okD || !okH || !okM || !okS || day < 1 || day > daysIn[month] || hour > 23 || minute > 59 || sec > 59 {
		return time.Time{}, false
	}
	days := daysFromCivil(int64(year), int64(month), int64(day))
	return time.Unix(days*86400+int64(hour*3600+minute*60+sec), 0).UTC(), true
}

// digits2 decodes two ASCII decimal digits.
func digits2(a, b byte) (int, bool) {
	if a < '0' || a > '9' || b < '0' || b > '9' {
		return 0, false
	}
	return int(a-'0')*10 + int(b-'0'), true
}

// daysFromCivil counts days from 1970-01-01 to y-m-d in the proleptic
// Gregorian calendar (H. Hinnant's algorithm). A day past the month's
// end carries into the next month, as time.Date normalises it.
func daysFromCivil(y, m, d int64) int64 {
	if m <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400
	mp := (m + 9) % 12 // March = 0
	doy := (153*mp+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe - 719468
}

// stripPID removes a trailing [pid] from a program tag.
func stripPID(tag string) string {
	if i := strings.IndexByte(tag, '['); i > 0 && strings.HasSuffix(tag, "]") {
		return tag[:i]
	}
	return tag
}

func facilityName(f int) string {
	switch f {
	case 0:
		return "kern"
	case 1:
		return "user"
	case 3:
		return "daemon"
	case 16:
		return "local0"
	default:
		return fmt.Sprintf("facility%d", f)
	}
}
