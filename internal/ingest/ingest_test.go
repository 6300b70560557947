package ingest_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/simulate"
	"whatsupersay/internal/tag"
)

func TestYearTracker(t *testing.T) {
	y := ingest.NewYearTracker(time.Date(2004, time.December, 12, 0, 0, 0, 0, time.UTC))
	if got := y.Year(time.December); got != 2004 {
		t.Errorf("December = %d, want 2004", got)
	}
	if got := y.Year(time.January); got != 2005 {
		t.Errorf("January = %d, want 2005 (rollover)", got)
	}
	if got := y.Year(time.March); got != 2005 {
		t.Errorf("March = %d, want 2005", got)
	}
	// A small backward jump (out-of-order delivery) must NOT roll over.
	if got := y.Year(time.February); got != 2005 {
		t.Errorf("February after March = %d, want 2005", got)
	}
	// Crossing into the next year again.
	y.Year(time.December)
	if got := y.Year(time.January); got != 2006 {
		t.Errorf("second rollover = %d, want 2006", got)
	}
}

func TestReadMixedDialects(t *testing.T) {
	input := strings.Join([]string{
		"Mar 19 04:10:00 rslogin1 kernel: LustreError: 1:(x.c:2) type == y",
		"2006-03-19 04:11:02 c0-0c1s2 ec_heartbeat_stop src:::c0-0c1s2 svc:::c0-0c1s2 warn node heartbeat_fault",
		"<2>Mar 19 04:12:00 ddn1 DMT_DINT Failing Disk 2A",
		"total garbage line",
	}, "\n") + "\n"
	recs, stats, err := ingest.ReadAll(strings.NewReader(input), logrec.RedStorm, time.Date(2006, 3, 19, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lines != 4 {
		t.Fatalf("lines = %d", stats.Lines)
	}
	if stats.ParseErrors != 1 {
		t.Errorf("parse errors = %d, want 1", stats.ParseErrors)
	}
	if stats.Event != 1 {
		t.Errorf("event lines = %d, want 1", stats.Event)
	}
	if stats.Syslog != 3 { // two syslog + the garbage falls to syslog
		t.Errorf("syslog lines = %d, want 3", stats.Syslog)
	}
	if len(recs) != 4 {
		t.Fatalf("records = %d", len(recs))
	}
	// The SMW line parsed with its own dialect.
	var foundEvent bool
	for _, r := range recs {
		if strings.Contains(r.Body, "heartbeat_fault") && r.Source == "c0-0c1s2" {
			foundEvent = true
		}
	}
	if !foundEvent {
		t.Error("event line not parsed correctly")
	}
}

func TestReadYearRollover(t *testing.T) {
	// Spirit-style: window starts Jan 2005, log runs past New Year 2006.
	input := strings.Join([]string{
		"Dec 30 10:00:00 sn300 kernel: a",
		"Jan  2 10:00:00 sn300 kernel: b",
	}, "\n") + "\n"
	recs, _, err := ingest.ReadAll(strings.NewReader(input), logrec.Spirit, time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Time.Year() != 2005 || recs[0].Time.Month() != time.December {
		t.Errorf("first record year = %d", recs[0].Time.Year())
	}
	if recs[1].Time.Year() != 2006 {
		t.Errorf("post-rollover year = %d, want 2006", recs[1].Time.Year())
	}
	// Sorted output: December 2005 before January 2006.
	if !recs[0].Time.Before(recs[1].Time) {
		t.Error("rollover broke ordering")
	}
}

func TestReadBGL(t *testing.T) {
	input := "2005-06-03-15.42.50.363779 R02-M1-N0 RAS KERNEL FATAL data TLB error interrupt\n"
	recs, stats, err := ingest.ReadAll(strings.NewReader(input), logrec.BlueGeneL, time.Date(2005, 6, 3, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if stats.RAS != 1 {
		t.Errorf("RAS lines = %d", stats.RAS)
	}
	if recs[0].Severity != logrec.SevFatal || recs[0].Facility != "KERNEL" {
		t.Errorf("record = %+v", recs[0])
	}
}

func TestReadResilientAbort(t *testing.T) {
	rd := ingest.Reader{System: logrec.Liberty}
	input := "Mar  7 14:30:05 ln1 kernel: a\nMar  7 14:30:06 ln1 kernel: b\n"
	calls := 0
	cp, err := rd.ReadResilient(context.Background(), strings.NewReader(input), func(logrec.Record) error {
		calls++
		if calls == 1 {
			return errAbort
		}
		return nil
	}, ingest.ResilientOptions{})
	if err != errAbort {
		t.Fatalf("callback error must propagate unwrapped, got %v", err)
	}
	if cp.Lines != 0 || cp.Stats != (ingest.Stats{}) {
		t.Errorf("rejected record counted in the checkpoint: %+v", cp)
	}
	if calls != 1 {
		t.Errorf("ingestion continued after abort: %d calls", calls)
	}
}

var errAbort = &abortErr{}

type abortErr struct{}

func (*abortErr) Error() string { return "abort" }

// TestRoundTripGeneratedLog is the integration contract: text written by
// the generator, ingested cold, reproduces the same alert stream the
// in-memory pipeline sees.
func TestRoundTripGeneratedLog(t *testing.T) {
	out, err := simulate.Generate(simulate.Config{System: logrec.Liberty, Scale: 0.0001, AlertScale: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(out.Lines, "\n") + "\n"
	recs, stats, err := ingest.ReadAll(strings.NewReader(text), logrec.Liberty, out.Start)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lines != len(out.Lines) {
		t.Fatalf("ingested %d of %d lines", stats.Lines, len(out.Lines))
	}
	tg := tag.NewTagger(logrec.Liberty)
	ingested := tg.TagAll(recs)
	direct := tg.TagAll(out.Records)
	if len(ingested) != len(direct) {
		t.Errorf("ingested alerts = %d, direct pipeline = %d", len(ingested), len(direct))
	}
}
