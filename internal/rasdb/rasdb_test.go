package rasdb

import (
	"strings"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
)

func mkRecord() logrec.Record {
	return logrec.Record{
		Time:     time.Date(2005, time.June, 3, 15, 42, 50, 363779000, time.UTC),
		System:   logrec.BlueGeneL,
		Source:   "R02-M1-N0",
		Facility: FacKernel,
		Severity: logrec.SevFatal,
		Body:     "data TLB error interrupt",
	}
}

func TestRenderShape(t *testing.T) {
	got := Render(mkRecord())
	want := "2005-06-03-15.42.50.363779 R02-M1-N0 RAS KERNEL FATAL data TLB error interrupt"
	if got != want {
		t.Errorf("Render = %q, want %q", got, want)
	}
}

func TestRenderNullLocation(t *testing.T) {
	r := mkRecord()
	r.Source = ""
	r.Facility = FacBGLMaster
	r.Severity = logrec.SevFailure
	r.Body = "ciodb exited normally with exit code 0"
	got := Render(r)
	if !strings.Contains(got, " NULL RAS BGLMASTER FAILURE ") {
		t.Errorf("Render = %q, want the paper's NULL/BGLMASTER/FAILURE form", got)
	}
}

func TestRenderDefaults(t *testing.T) {
	r := mkRecord()
	r.Severity = logrec.SevCrit // wrong scale: must fall back to INFO
	r.Facility = ""
	got := Render(r)
	if !strings.Contains(got, " RAS KERNEL INFO ") {
		t.Errorf("Render with off-scale severity = %q, want KERNEL INFO fallback", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	orig := mkRecord()
	rec, perr := Parse(Render(orig))
	if perr != nil {
		t.Fatalf("Parse: %v", perr)
	}
	if !rec.Time.Equal(orig.Time) {
		t.Errorf("time = %v, want %v (microseconds must survive)", rec.Time, orig.Time)
	}
	if rec.Source != orig.Source || rec.Facility != orig.Facility ||
		rec.Severity != orig.Severity || rec.Body != orig.Body {
		t.Errorf("round trip mismatch: %+v", rec)
	}
}

func TestParseNullLocation(t *testing.T) {
	line := "2005-06-03-15.42.50.363779 NULL RAS BGLMASTER FAILURE ciodb exited normally with exit code 0"
	rec, perr := Parse(line)
	if perr != nil {
		t.Fatalf("Parse: %v", perr)
	}
	if rec.Source != "" {
		t.Errorf("NULL location should parse to empty source, got %q", rec.Source)
	}
	if rec.Severity != logrec.SevFailure {
		t.Errorf("severity = %v, want FAILURE", rec.Severity)
	}
}

func TestParseEverySeverity(t *testing.T) {
	for _, sev := range logrec.BGLSeverities() {
		r := mkRecord()
		r.Severity = sev
		rec, perr := Parse(Render(r))
		if perr != nil {
			t.Fatalf("Parse(%v): %v", sev, perr)
		}
		if rec.Severity != sev {
			t.Errorf("severity round trip %v -> %v", sev, rec.Severity)
		}
	}
}

func TestParseCorrupt(t *testing.T) {
	cases := []string{
		"",
		"2005-06-03-15.42.50.363779 R02", // too few fields
		"garbage here with six fields to hit the timestamp parse",  // bad timestamp
		"2005-06-03-15.42.50.363779 R02 XXX KERNEL FATAL body",     // missing RAS
		"2005-06-03-15.42.50.363779 R02 RAS KERNEL BOGUS body txt", // bad severity
	}
	for _, line := range cases {
		rec, perr := Parse(line)
		if perr == nil {
			t.Errorf("Parse(%q) expected error", line)
		}
		if !rec.Corrupted {
			t.Errorf("Parse(%q) must mark corrupted", line)
		}
		if rec.Raw != line {
			t.Errorf("raw text not preserved for %q", line)
		}
	}
}

func TestMailboxCollectOrdering(t *testing.T) {
	base := time.Date(2005, time.June, 3, 0, 0, 0, 0, time.UTC)
	mb := Mailbox{PollInterval: time.Millisecond}
	// Two nodes interleaved within one poll quantum, plus one later.
	recs := []logrec.Record{
		{Time: base.Add(900 * time.Microsecond), Source: "R01", Seq: 0},
		{Time: base.Add(100 * time.Microsecond), Source: "R02", Seq: 1},
		{Time: base.Add(500 * time.Microsecond), Source: "R01", Seq: 2},
		{Time: base.Add(5 * time.Millisecond), Source: "R00", Seq: 3},
	}
	Collect(mb, recs, func(r logrec.Record) (time.Time, string) { return r.Time, r.Source })
	out := recs
	// Same quantum: grouped by source (R01 drained fully before R02),
	// and within a source, time-ordered.
	if out[0].Source != "R01" || out[1].Source != "R01" || out[2].Source != "R02" {
		t.Errorf("quantum grouping wrong: %v %v %v", out[0].Source, out[1].Source, out[2].Source)
	}
	if out[0].Time.After(out[1].Time) {
		t.Error("within-source order must be chronological")
	}
	if out[3].Source != "R00" {
		t.Error("later quantum must come last")
	}
	// The input Seqs, in arrival order: the permutation is exact.
	if got := [4]uint64{out[0].Seq, out[1].Seq, out[2].Seq, out[3].Seq}; got != [4]uint64{2, 0, 1, 3} {
		t.Errorf("arrival order = %v, want [2 0 1 3]", got)
	}
}

func TestMailboxCollectNoop(t *testing.T) {
	base := time.Date(2005, time.June, 3, 0, 0, 0, 0, time.UTC)
	recs := []logrec.Record{
		{Time: base.Add(900 * time.Microsecond), Source: "R02"},
		{Time: base.Add(100 * time.Microsecond), Source: "R01"},
	}
	at := func(r logrec.Record) (time.Time, string) { return r.Time, r.Source }
	Collect(Mailbox{}, recs, at)
	if recs[0].Source != "R02" || recs[1].Source != "R01" {
		t.Error("zero poll interval must pass records through in order")
	}
	Collect(DefaultMailbox(), []logrec.Record(nil), at) // empty input is fine
}
