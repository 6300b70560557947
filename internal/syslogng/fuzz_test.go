package syslogng

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
)

// FuzzParse: Section 3.2.1 means anything can appear on the wire. The
// parser must never panic, must preserve the raw line verbatim (dropped
// data cannot be studied), and must flag every parse failure Corrupted.
func FuzzParse(f *testing.F) {
	f.Add("Mar  7 14:30:05 ln42 kernel: GM: LANai is not running")
	f.Add("<6>Mar  7 14:30:05 ln42 pbs_mom[123]: task_check")
	f.Add("Mar  7 14:30:05")
	f.Add("")
	f.Add("\x00\x01garbage\x7f")
	f.Add("<999>Mar  7 14:30:05 h x")
	f.Fuzz(func(t *testing.T, line string) {
		rec, perr := Parse(line, 2005, logrec.Liberty)
		if rec.Raw != line {
			t.Fatalf("raw not preserved: %q != %q", rec.Raw, line)
		}
		if (perr != nil) != rec.Corrupted {
			t.Fatalf("parse error %v but Corrupted=%v", perr, rec.Corrupted)
		}
	})
}

// parseReference is the reference parser: time.Parse and time.Date for
// every stamp, strings.Index and ContainsAny for the program tag.
// FuzzParseMatchesReference pins Parse to it.
func parseReference(line string, year int, sys logrec.System) (logrec.Record, *ParseError) {
	rec := logrec.Record{System: sys, Raw: line}
	rest := line
	if strings.HasPrefix(rest, "<") {
		if end := strings.IndexByte(rest, '>'); end > 0 && end <= 4 {
			if pri, err := strconv.Atoi(rest[1:end]); err == nil && pri >= 0 && pri <= 191 {
				rec.Severity = logrec.SevEmerg + logrec.Severity(pri%8)
				rec.Facility = facilityName(pri / 8)
				rest = rest[end+1:]
			}
		}
	}
	if len(rest) < len("Jan _2 15:04:05")+1 {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "line shorter than timestamp"}
	}
	ts, err := time.Parse(TimeLayout, rest[:15])
	if err != nil {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "bad timestamp: " + err.Error()}
	}
	rec.Time = time.Date(year, ts.Month(), ts.Day(), ts.Hour(), ts.Minute(), ts.Second(), 0, time.UTC)
	rest = rest[15:]
	if !strings.HasPrefix(rest, " ") {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "missing separator after timestamp"}
	}
	rest = rest[1:]
	sp := strings.IndexByte(rest, ' ')
	if sp <= 0 {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "missing host field"}
	}
	rec.Source = rest[:sp]
	rest = rest[sp+1:]
	if colon := strings.Index(rest, ": "); colon > 0 && !strings.ContainsAny(rest[:colon], " \t") {
		rec.Program = stripPID(rest[:colon])
		rec.Body = rest[colon+2:]
	} else if strings.HasSuffix(rest, ":") && !strings.ContainsAny(rest[:len(rest)-1], " \t") {
		rec.Program = stripPID(rest[:len(rest)-1])
	} else {
		rec.Body = rest
	}
	return rec, nil
}

// FuzzParseMatchesReference: Parse answers exactly as parseReference on
// any line and any year in [1, 9999] — the same Record, the same
// *ParseError (reason text included), and an == Time. The fixed-offset
// stamp decode is a shortcut, never a second rule for what parses.
func FuzzParseMatchesReference(f *testing.F) {
	for _, seed := range []struct {
		line string
		year int
	}{
		{"Feb 29 10:00:00 h k: leap", 2004},
		{"Feb 29 10:00:00 h k: common year", 2005},
		{"Feb 30 10:00:00 h k: b", 2004},
		{"Mar  0 10:00:00 h k: b", 2005},
		{"Mar 00 10:00:00 h k: b", 2005},
		{"Mar  7 24:00:00 h k: b", 2005},
		{"Mar  7 23:60:00 h k: b", 2005},
		{"Mar  7 23:59:60 h k: b", 2005},
		{"jan 12 01:04:05 h k: b", 2005},
		{"Jan 12 1:04:05 h k: b", 2005},
		{"Dec 31 23:59:59 h k: b", 9999},
		{"Jan  1 00:00:00 h k: b", 1},
		{"Mar  7 14:30:05 h a:b: c", 2005},
		{"Mar  7 14:30:05 h : x", 2005},
		{"Mar  7 14:30:05 h x:", 2005},
		{"Mar  7 14:30:05 h x\ty: z", 2005},
		{"Mar  7 14:30:05 h prog[12]: z", 2005},
		{"<6>Mar  7 14:30:05 h kernel: b", 2005},
	} {
		f.Add(seed.line, seed.year)
	}
	f.Fuzz(func(t *testing.T, line string, year int) {
		if year < 1 || year > 9999 {
			year = 1 + (year%9999+9999)%9999
		}
		got, gotErr := Parse(line, year, logrec.Liberty)
		want, wantErr := parseReference(line, year, logrec.Liberty)
		if !reflect.DeepEqual(got, want) || got.Time != want.Time {
			t.Fatalf("Parse(%q, %d) = %+v, reference %+v", line, year, got, want)
		}
		if !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("Parse(%q, %d) error %v, reference %v", line, year, gotErr, wantErr)
		}
	})
}
