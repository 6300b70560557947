package ingest_test

// The one read loop against the per-line step it drives: on the
// five-system corrupted corpus and on an adversarial year-rollover
// stream, the loop over the whole text must equal ParseLine over the
// split lines — records and Stats — and resuming from any checkpoint
// must equal the uninterrupted run.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"whatsupersay/internal/faultinject"
	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/simulate"
)

// loopInput is one stream for the loop tests, already split into the
// lines the framer will see.
type loopInput struct {
	name  string
	rd    ingest.Reader
	lines []string
}

func (in loopInput) text() string { return strings.Join(in.lines, "\n") + "\n" }

// rolloverLines builds a BSD-syslog stream that crosses New Year twice
// (the Spirit shape: a 558-day window spans two rollovers), with
// corrupted lines at every month seam, where a failed parse must keep
// the pre-advance year while its clean neighbors shift.
func rolloverLines() []string {
	months := []time.Month{
		time.October, time.November, time.December, // year 0
		time.January, time.February, time.June, time.November, time.December, // year 1
		time.January, time.March, // year 2
	}
	var lines []string
	day := 0
	for mi, m := range months {
		for i := 0; i < 9; i++ {
			ts := time.Date(2004, m, 1+i%27, 3, 4, 5, 0, time.UTC)
			lines = append(lines, fmt.Sprintf("%s sn%d sshd: session opened %d",
				ts.Format("Jan _2 15:04:05"), day%317, day))
			day++
		}
		lines = append(lines, fmt.Sprintf("#### garbage at seam %d ####", mi))
	}
	return lines
}

// systemInputs is every system's generated traffic with injected
// corruption. The BG/L stream gets two hand-made lines so both arms of
// the BG/L RAS rule are hit: one that parses clean without the RAS
// shape (a one-digit hour), and one that has the shape but is damaged.
func systemInputs(t *testing.T) []loopInput {
	t.Helper()
	var ins []loopInput
	for _, sys := range logrec.Systems() {
		out, err := simulate.Generate(simulate.Config{System: sys, Scale: 0.0002, Seed: 42, CorruptionProb: 0.01})
		if err != nil {
			t.Fatalf("%v: generate: %v", sys, err)
		}
		// Re-split on newlines so corrupted lines with embedded breaks
		// are the lines the framer sees.
		lines := strings.Split(strings.Join(out.Lines, "\n"), "\n")
		if sys == logrec.BlueGeneL {
			lines = append(lines,
				"2005-06-03-5.42.50.363779 R02-M1-N0 RAS KERNEL FATAL one-digit hour",
				"2005-06-03-15.42.50.363779 R02-M1-N0 RAS KERNEL NOSUCHSEVERITY damaged")
		}
		ins = append(ins, loopInput{sys.ShortName(), ingest.Reader{System: sys, Start: out.Start}, lines})
	}
	return ins
}

// rolloverInput is the two-rollover Spirit-shaped stream.
func rolloverInput() loopInput {
	start := time.Date(2004, time.October, 1, 0, 0, 0, 0, time.UTC)
	return loopInput{"rollover", ingest.Reader{System: logrec.Spirit, Start: start}, rolloverLines()}
}

// loopInputs is every system's traffic plus the rollover stream.
func loopInputs(t *testing.T) []loopInput {
	return append(systemInputs(t), rolloverInput())
}

// readLoop runs the loop over text, collecting records in arrival
// order.
func readLoop(rd ingest.Reader, text string, opts ingest.ResilientOptions) ([]logrec.Record, ingest.Checkpoint, error) {
	var recs []logrec.Record
	cp, err := rd.ReadResilient(context.Background(), strings.NewReader(text), func(rec logrec.Record) error {
		recs = append(recs, rec)
		return nil
	}, opts)
	return recs, cp, err
}

// The dialect rule ReadAll's Stats have always used, copied test-side:
// a RAS-shaped line, or a BG/L line that parsed, counts as RAS; else an
// SMW-event-shaped line counts as an event; everything else as syslog.
func rasShaped(l string) bool {
	return len(l) >= 26 && l[4] == '-' && l[7] == '-' && l[10] == '-' && l[13] == '.' && l[16] == '.' && l[19] == '.'
}

func eventShaped(l string) bool {
	return len(l) >= 19 && l[4] == '-' && l[7] == '-' && l[10] == ' ' && l[13] == ':' && l[16] == ':'
}

// checkLoopMatchesParseLine: the loop over the whole stream equals the
// per-line step over the split lines, Stats included, and the dialect
// counts follow the ReadAll rule. It returns the loop's records.
func checkLoopMatchesParseLine(t *testing.T, in loopInput) []logrec.Record {
	t.Helper()
	got, cp, err := readLoop(in.rd, in.text(), ingest.ResilientOptions{})
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	years := ingest.NewYearTracker(in.rd.Start)
	var want ingest.Stats
	var shapedRAS, parsedBGL int
	for i, line := range in.lines {
		rec := in.rd.ParseLine(line, years)
		rec.Seq = uint64(i)
		if i >= len(got) || !reflect.DeepEqual(got[i], rec) {
			t.Fatalf("%s: line %d diverged from ParseLine\n got %+v\nwant %+v", in.name, i, got[min(i, len(got)-1)], rec)
		}
		want.Lines++
		if rec.Corrupted {
			want.ParseErrors++
		}
		switch {
		case rasShaped(rec.Raw) || (in.rd.System == logrec.BlueGeneL && !rec.Corrupted):
			want.RAS++
			if rasShaped(rec.Raw) {
				shapedRAS++
			} else {
				parsedBGL++
			}
		case eventShaped(rec.Raw):
			want.Event++
		default:
			want.Syslog++
		}
	}
	if len(got) != len(in.lines) {
		t.Fatalf("%s: %d records for %d lines", in.name, len(got), len(in.lines))
	}
	if cp.Stats != want {
		t.Fatalf("%s: stats %+v, want %+v", in.name, cp.Stats, want)
	}
	if want.ParseErrors == 0 {
		t.Fatalf("%s: no corrupted lines: corruption not exercised", in.name)
	}
	if in.rd.System == logrec.BlueGeneL && (shapedRAS == 0 || parsedBGL == 0) {
		t.Fatalf("BG/L RAS rule: %d RAS-shaped, %d parsed without the shape; want both arms hit", shapedRAS, parsedBGL)
	}
	return got
}

// TestLoopMatchesSerial: on each system's generated traffic
// (including injected corruption), the one read loop reproduces the
// serial per-line step record-for-record and stat-for-stat.
func TestLoopMatchesSerial(t *testing.T) {
	for _, in := range systemInputs(t) {
		checkLoopMatchesParseLine(t, in)
	}
}

// TestLoopYearRollover: the year carry. The stream really advances
// two years (so the carry is exercised, not vacuous), the loop matches
// the per-line step, and a run resumed at every line — before, on and
// after each rollover record — equals the uninterrupted run.
func TestLoopYearRollover(t *testing.T) {
	in := rolloverInput()
	got := checkLoopMatchesParseLine(t, in)
	maxYear := 0
	for _, r := range got {
		if !r.Corrupted && r.Time.Year() > maxYear {
			maxYear = r.Time.Year()
		}
	}
	if maxYear != in.rd.Start.Year()+2 {
		t.Fatalf("rollover stream ends in year %d, want %d: rollover not exercised", maxYear, in.rd.Start.Year()+2)
	}
	checkResumes(t, in, 1)
}

// TestLoopResumesFromEveryCheckpoint: a run resumed from any periodic
// checkpoint delivers exactly the rest of the uninterrupted run and ends
// at the same checkpoint.
func TestLoopResumesFromEveryCheckpoint(t *testing.T) {
	for _, in := range loopInputs(t) {
		checkResumes(t, in, max(1, len(in.lines)/16))
	}
}

// checkResumes checkpoints a run of in every every lines and resumes
// from each checkpoint.
func checkResumes(t *testing.T, in loopInput, every int) {
	t.Helper()
	text := in.text()
	var cps []ingest.Checkpoint
	full, final, err := readLoop(in.rd, text, ingest.ResilientOptions{
		CheckpointEvery: every,
		OnCheckpoint:    func(cp ingest.Checkpoint) error { cps = append(cps, cp); return nil },
	})
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	if want := len(in.lines)/every + 1; len(cps) != want {
		t.Fatalf("%s: %d checkpoints, want %d", in.name, len(cps), want)
	}
	for _, cp := range cps {
		rest, end, err := readLoop(in.rd, text, ingest.ResilientOptions{Resume: &cp})
		if err != nil {
			t.Fatalf("%s: resume at %d: %v", in.name, cp.Lines, err)
		}
		if tail := full[cp.Lines:]; len(rest) != len(tail) || (len(rest) > 0 && !reflect.DeepEqual(rest, tail)) {
			t.Fatalf("%s: resume at line %d diverges from the uninterrupted run", in.name, cp.Lines)
		}
		if end != final {
			t.Fatalf("%s: resume at line %d ends at %+v, uninterrupted at %+v", in.name, cp.Lines, end, final)
		}
	}
}

// TestReadAllFailsAtOnceOnTransientError: the zero options are the
// plain reader. A transient reader error fails ReadAll at once — a
// request body never sits in backoff — and the loop never sleeps.
func TestReadAllFailsAtOnceOnTransientError(t *testing.T) {
	text := "Mar  7 14:30:05 ln1 kernel: a\n"
	flaky := faultinject.ReaderConfig{Seed: 1, TransientErrProb: 1}
	_, _, err := ingest.ReadAll(flaky.Wrap(strings.NewReader(text)), logrec.Liberty, time.Time{})
	var transient *faultinject.TransientError
	if !errors.As(err, &transient) {
		t.Fatalf("ReadAll err = %v, want the transient error", err)
	}
	slept := 0
	rd := ingest.Reader{System: logrec.Liberty}
	cp, err := rd.ReadResilient(context.Background(), flaky.Wrap(strings.NewReader(text)),
		func(logrec.Record) error { return nil },
		ingest.ResilientOptions{Sleep: func(time.Duration) { slept++ }})
	if !errors.As(err, &transient) || slept != 0 || cp.Retries != 0 {
		t.Fatalf("zero options: err = %v, %d sleeps, %d retries; want the error at once", err, slept, cp.Retries)
	}
}

// BenchmarkReadAll times the serve path's reader — ReadAll over a
// Liberty log.
func BenchmarkReadAll(b *testing.B) {
	out, err := simulate.Generate(simulate.Config{System: logrec.Liberty, Scale: 0.0005, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	text := strings.Join(out.Lines, "\n") + "\n"
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ingest.ReadAll(strings.NewReader(text), logrec.Liberty, out.Start); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(out.Lines))*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
}
