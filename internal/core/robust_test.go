package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"whatsupersay/internal/faultinject"
	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/simulate"
)

// TestPipelineSurvivesContentNeutralFaults: transport faults that do not
// alter bytes (short reads, transient errors absorbed by retry) must
// leave the entire analysis — records, alerts, filtered survivors —
// exactly identical to a clean run. Robustness with zero analytic cost.
func TestPipelineSurvivesContentNeutralFaults(t *testing.T) {
	out, err := simulate.Generate(simulate.Config{System: logrec.Liberty, Scale: 0.0003, AlertScale: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(out.Lines, "\n") + "\n"
	rd := ingest.Reader{System: logrec.Liberty, Start: out.Start}

	run := func(cfg faultinject.ReaderConfig) (*Study, ingest.Checkpoint) {
		var recs []logrec.Record
		cp, err := rd.ReadResilient(context.Background(), cfg.Wrap(strings.NewReader(text)),
			func(rec logrec.Record) error {
				recs = append(recs, rec)
				return nil
			},
			ingest.ResilientOptions{MaxRetries: 5, Sleep: func(time.Duration) {}})
		if err != nil {
			t.Fatal(err)
		}
		return FromRecords(logrec.Liberty, recs), cp
	}

	clean, _ := run(faultinject.ReaderConfig{})
	chaos, cp := run(faultinject.ReaderConfig{Seed: 5, ShortReads: true, TransientErrProb: 0.1})
	if cp.Retries == 0 {
		t.Fatal("no retries happened; the chaos leg was not exercised")
	}
	if !reflect.DeepEqual(chaos.Records, clean.Records) {
		t.Fatal("content-neutral faults changed the parsed records")
	}
	if len(chaos.Alerts) != len(clean.Alerts) || len(chaos.Filtered) != len(clean.Filtered) {
		t.Fatalf("analysis diverged: %d/%d alerts vs %d/%d",
			len(chaos.Alerts), len(chaos.Filtered), len(clean.Alerts), len(clean.Filtered))
	}
}

// TestPipelineSurvivesContentDamage: with byte garbling and a torn tail
// the pipeline must still complete end to end, quarantining the damage
// and analyzing everything else.
func TestPipelineSurvivesContentDamage(t *testing.T) {
	out, err := simulate.Generate(simulate.Config{System: logrec.Liberty, Scale: 0.0003, AlertScale: 1, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(out.Lines, "\n") + "\n"
	rd := ingest.Reader{System: logrec.Liberty, Start: out.Start}
	var quarantine bytes.Buffer
	var recs []logrec.Record
	cp, err := rd.ReadResilient(context.Background(),
		faultinject.ReaderConfig{Seed: 6, ShortReads: true, TransientErrProb: 0.05, GarbleProb: 0.0005, TearTailBytes: 20}.
			Wrap(strings.NewReader(text)),
		func(rec logrec.Record) error {
			recs = append(recs, rec)
			return nil
		},
		ingest.ResilientOptions{MaxRetries: 5, Quarantine: &quarantine, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatalf("damaged pipeline aborted: %v", err)
	}
	if cp.Stats.ParseErrors == 0 {
		t.Fatal("garbling damaged nothing; the chaos leg was not exercised")
	}
	s := FromRecords(logrec.Liberty, recs)
	if len(s.Alerts) == 0 || len(s.Filtered) == 0 {
		t.Fatal("analysis produced nothing from a mostly-clean stream")
	}
	if lines := strings.Count(quarantine.String(), "\n"); lines != cp.Stats.ParseErrors {
		t.Errorf("quarantine holds %d lines, checkpoint says %d", lines, cp.Stats.ParseErrors)
	}
}
