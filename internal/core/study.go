// Package core ties the substrates into the study pipeline — generate (or
// ingest) → parse → tag → filter → analyze — and reproduces every table
// and figure of the paper's evaluation from it. It is the public API a
// downstream user drives; the cmd/logstudy CLI and the examples are thin
// wrappers over this package.
package core

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"sync"
	"time"

	"whatsupersay/internal/filter"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/simulate"
	"whatsupersay/internal/tag"
)

// Study is one system's log run through the full pipeline.
type Study struct {
	// System is the machine under study.
	System logrec.System
	// Source is the synthetic log and its ground truth; nil when the
	// study was built from ingested text. Its Records are nil: the study
	// owns them, as Records below.
	Source *simulate.Output
	// Lines is the raw log text, one message per line.
	Lines []string
	// Records is the parsed record stream in canonical (time, seq)
	// order.
	Records []logrec.Record
	// Alerts is the expert-tagged alert stream, sorted.
	Alerts []tag.Alert
	// Filtered is Alerts after the simultaneous filter (Algorithm 3.1,
	// T = 5 s).
	Filtered []tag.Alert
	// Tagger is the system's expert rule set.
	Tagger *tag.Tagger
}

// New generates a synthetic log for cfg and runs the pipeline on it.
func New(cfg simulate.Config) (*Study, error) {
	out, err := simulate.Generate(cfg)
	if err != nil {
		return nil, err
	}
	// The study takes the generator's records and sorts them in place;
	// Source gives them up, so nothing reads them in line order after.
	s := &Study{System: cfg.System, Source: out, Lines: out.Lines, Records: out.Records}
	out.Records = nil
	s.finish()
	return s, nil
}

// NewAll runs New for every system with the same scale and seed,
// returning studies in paper order. The five generations are independent
// (each study owns its seeded RNG), so they run concurrently; results
// are deterministic regardless of scheduling.
func NewAll(scale float64, seed int64) ([]*Study, error) {
	systems := logrec.Systems()
	out := make([]*Study, len(systems))
	errs := make([]error, len(systems))
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := New(simulate.Config{System: sys, Scale: scale, Seed: seed})
			if err != nil {
				errs[i] = fmt.Errorf("study %v: %w", sys, err)
				return
			}
			out[i] = s
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FromRecords builds a study from already-parsed records (e.g. ingested
// from real log text). The study takes ownership of recs: it becomes
// Study.Records, sorted in place into canonical order when it is not
// already (ingest.ReadAll's output is), so the caller must not keep
// using the slice.
func FromRecords(sys logrec.System, recs []logrec.Record) *Study {
	s := &Study{System: sys, Records: recs}
	s.finish()
	return s
}

// finish sorts the records canonically, then tags and filters them.
// Tagging keeps input order, so the alerts come out canonical too.
func (s *Study) finish() {
	logrec.SortRecords(s.Records)
	s.Tagger = tag.NewTagger(s.System)
	s.Alerts = s.Tagger.TagAll(s.Records)
	s.Filtered = filter.Simultaneous{T: filter.DefaultThreshold}.Filter(s.Alerts)
}

// IncidentFn returns the ground-truth incident mapping, when the study
// has synthetic ground truth. Alerts whose record was not generated as an
// alert (e.g. a corrupted line that still matched a rule) report ok=false.
func (s *Study) IncidentFn() filter.IncidentFn {
	if s.Source == nil {
		return func(tag.Alert) (int64, bool) { return 0, false }
	}
	truth := s.Source.Truth.AlertAt
	return func(a tag.Alert) (int64, bool) {
		at, ok := truth[a.Record.Seq]
		if !ok {
			return 0, false
		}
		return at.Incident, true
	}
}

// Window returns the study's observation window: the generator's window
// when known, otherwise the records' time span.
func (s *Study) Window() (start, end time.Time) {
	if s.Source != nil {
		return s.Source.Start, s.Source.End
	}
	if len(s.Records) == 0 {
		return time.Time{}, time.Time{}
	}
	return s.Records[0].Time, s.Records[len(s.Records)-1].Time.Add(time.Second)
}

// TotalBytes is the log's text size in bytes (newlines included).
func (s *Study) TotalBytes() int64 {
	var n int64
	for _, l := range s.Lines {
		n += int64(len(l)) + 1
	}
	return n
}

// CompressedBytes gzips the log text and returns the compressed size —
// the "Compressed" column of Table 2 ("Compression was done using the
// Unix utility gzip").
func (s *Study) CompressedBytes() (int64, error) {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.DefaultCompression)
	if err != nil {
		return 0, err
	}
	for _, l := range s.Lines {
		if _, err := zw.Write([]byte(l)); err != nil {
			return 0, err
		}
		if _, err := zw.Write([]byte{'\n'}); err != nil {
			return 0, err
		}
	}
	if err := zw.Close(); err != nil {
		return 0, err
	}
	return int64(buf.Len()), nil
}

// AlertTimes returns the timestamps of an alert slice.
func AlertTimes(alerts []tag.Alert) []time.Time {
	out := make([]time.Time, len(alerts))
	for i, a := range alerts {
		out[i] = a.Record.Time
	}
	return out
}

// AlertsOfCategory selects the alerts of one category.
func AlertsOfCategory(alerts []tag.Alert, name string) []tag.Alert {
	var out []tag.Alert
	for _, a := range alerts {
		if a.Category.Name == name {
			out = append(out, a)
		}
	}
	return out
}
