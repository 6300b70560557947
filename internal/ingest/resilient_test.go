package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"whatsupersay/internal/faultinject"
	"whatsupersay/internal/logrec"
)

// chaosInput builds a clean, parseable syslog stream large enough that
// the seeded injector damages a meaningful number of lines.
func chaosInput(n int) string {
	var b strings.Builder
	base := time.Date(2005, 3, 7, 14, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(i) * time.Second)
		fmt.Fprintf(&b, "%s ln%02d kernel: GM: LANai is not running message %d\n",
			ts.Format("Jan  2 15:04:05"), i%40, i)
	}
	return b.String()
}

// noSleep replaces backoff sleeps in tests.
func noSleep(time.Duration) {}

// readPlain runs the loop with zero options over input, in arrival
// order.
func readPlain(rd Reader, input string) ([]logrec.Record, Stats, error) {
	var recs []logrec.Record
	cp, err := rd.ReadResilient(context.Background(), strings.NewReader(input), func(rec logrec.Record) error {
		recs = append(recs, rec)
		return nil
	}, ResilientOptions{})
	return recs, cp.Stats, err
}

// collect gathers records through a ReadResilient run.
func collect(t *testing.T, rd Reader, r *strings.Reader, cfg faultinject.ReaderConfig, opts ResilientOptions) ([]logrec.Record, Checkpoint, error) {
	t.Helper()
	var recs []logrec.Record
	opts.Sleep = noSleep
	cp, err := rd.ReadResilient(context.Background(), cfg.Wrap(r), func(rec logrec.Record) error {
		recs = append(recs, rec)
		return nil
	}, opts)
	return recs, cp, err
}

// TestResilientChaosRun is the headline acceptance test: a stream beset
// by transient errors, short reads, byte garbling, a torn final line,
// and an oversized line completes without aborting, and the quarantine
// holds exactly the damaged lines.
func TestResilientChaosRun(t *testing.T) {
	input := chaosInput(600)
	// Splice in an oversized line mid-stream.
	lines := strings.SplitAfter(input, "\n")
	huge := "Mar  7 14:05:00 ln00 kernel: " + strings.Repeat("A", 3000) + "\n"
	lines[300] = huge + lines[300]
	input = strings.Join(lines, "")

	cfg := faultinject.ReaderConfig{
		Seed:             7,
		ShortReads:       true,
		TransientErrProb: 0.05,
		GarbleProb:       0.0008,
		TearTailBytes:    25, // tears the final line mid-record
	}
	rd := Reader{System: logrec.Liberty, Start: time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC), MaxLineBytes: 2048}
	var quarantine bytes.Buffer
	var recs []logrec.Record
	cp, err := rd.ReadResilient(context.Background(), cfg.Wrap(strings.NewReader(input)),
		func(rec logrec.Record) error {
			recs = append(recs, rec)
			return nil
		},
		ResilientOptions{MaxRetries: 5, Quarantine: &quarantine, Sleep: noSleep})
	if err != nil {
		t.Fatalf("chaos run aborted: %v", err)
	}
	if cp.Retries == 0 {
		t.Error("no transient errors were retried; fault injection not exercised")
	}
	if cp.Stats.Oversized != 1 {
		t.Errorf("oversized = %d, want 1", cp.Stats.Oversized)
	}
	if len(recs) != cp.Stats.Lines {
		t.Fatalf("delivered %d records for %d lines", len(recs), cp.Stats.Lines)
	}

	// Quarantine exactness: the quarantined lines are exactly the raw
	// forms of the corrupted records, in order, and nothing else.
	var wantQ []string
	for _, r := range recs {
		if r.Corrupted {
			wantQ = append(wantQ, r.Raw)
		}
	}
	if len(wantQ) == 0 {
		t.Fatal("injector damaged nothing; raise probabilities")
	}
	gotQ := strings.Split(strings.TrimSuffix(quarantine.String(), "\n"), "\n")
	if !reflect.DeepEqual(gotQ, wantQ) {
		t.Errorf("quarantine mismatch: got %d lines, want %d", len(gotQ), len(wantQ))
	}
	if cp.Stats.ParseErrors != len(wantQ) {
		t.Errorf("cp.Stats.ParseErrors = %d, want %d", cp.Stats.ParseErrors, len(wantQ))
	}

	// Clean lines must have survived the chaos intact: every
	// non-corrupted record still parses to the expected shape.
	for _, r := range recs {
		if !r.Corrupted && r.Source == "" {
			t.Fatalf("clean record lost its source: %q", r.Raw)
		}
	}
}

// TestResilientResumeAfterKill: a run killed mid-stream (consumer
// failure) and resumed from its checkpoint delivers byte-identical
// records to an uninterrupted run over the same damaged stream.
func TestResilientResumeAfterKill(t *testing.T) {
	input := chaosInput(500)
	cfg := faultinject.ReaderConfig{Seed: 13, ShortReads: true, TransientErrProb: 0.04, GarbleProb: 0.001, TearTailBytes: 10}
	rd := Reader{System: logrec.Liberty, Start: time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)}

	full, fullCP, err := collect(t, rd, strings.NewReader(input), cfg, ResilientOptions{MaxRetries: 5})
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	// Killed run: the consumer dies at record 173.
	kill := errors.New("killed")
	var first []logrec.Record
	cp, err := rd.ReadResilient(context.Background(), cfg.Wrap(strings.NewReader(input)),
		func(rec logrec.Record) error {
			if len(first) == 173 {
				return kill
			}
			first = append(first, rec)
			return nil
		}, ResilientOptions{MaxRetries: 5, Sleep: noSleep})
	if !errors.Is(err, kill) {
		t.Fatalf("killed run: err = %v", err)
	}
	if cp.Lines != 173 {
		t.Fatalf("checkpoint covers %d lines, want 173", cp.Lines)
	}

	// Resumed run over a fresh, identically-faulted stream.
	rest, restCP, err := collect(t, rd, strings.NewReader(input), cfg, ResilientOptions{MaxRetries: 5, Resume: &cp})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	got := append(append([]logrec.Record(nil), first...), rest...)
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("kill+resume records differ from uninterrupted run: %d vs %d records", len(got), len(full))
	}
	if restCP.Stats != fullCP.Stats {
		t.Errorf("resumed final stats %+v != uninterrupted %+v", restCP.Stats, fullCP.Stats)
	}
}

// TestResilientResumeAfterHardReaderFailure: the disk dies mid-run
// (permanent read error); the returned checkpoint resumes against a
// healthy stream and the union matches an undamaged run.
func TestResilientResumeAfterHardReaderFailure(t *testing.T) {
	input := chaosInput(400)
	rd := Reader{System: logrec.Liberty, Start: time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)}

	full, _, err := collect(t, rd, strings.NewReader(input), faultinject.ReaderConfig{}, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dying := faultinject.ReaderConfig{Seed: 3, FailAfterBytes: int64(len(input) / 3)}
	var first []logrec.Record
	cp, err := rd.ReadResilient(context.Background(), dying.Wrap(strings.NewReader(input)),
		func(rec logrec.Record) error {
			first = append(first, rec)
			return nil
		}, ResilientOptions{Sleep: noSleep})
	if !errors.Is(err, faultinject.ErrHardFailure) {
		t.Fatalf("err = %v, want ErrHardFailure", err)
	}
	if len(first) != cp.Lines {
		t.Fatalf("checkpoint %d lines != %d delivered", cp.Lines, len(first))
	}

	rest, _, err := collect(t, rd, strings.NewReader(input), faultinject.ReaderConfig{}, ResilientOptions{Resume: &cp})
	if err != nil {
		t.Fatal(err)
	}
	got := append(first, rest...)
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("hard-failure resume differs: %d vs %d records", len(got), len(full))
	}
}

// TestResilientErrorBudget: more damage than the budget tolerates aborts
// with ErrBudgetExceeded; unlimited budget does not.
func TestResilientErrorBudget(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 50; i++ {
		b.WriteString("complete garbage that cannot parse\n")
	}
	rd := Reader{System: logrec.Liberty}
	_, cp, err := collect(t, rd, strings.NewReader(b.String()), faultinject.ReaderConfig{}, ResilientOptions{MaxErrors: 10})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if cp.Stats.ParseErrors != 11 {
		t.Errorf("aborted at %d quarantined, want 11 (budget 10 exceeded)", cp.Stats.ParseErrors)
	}
	recs, _, err := collect(t, rd, strings.NewReader(b.String()), faultinject.ReaderConfig{}, ResilientOptions{})
	if err != nil {
		t.Fatalf("unlimited budget aborted: %v", err)
	}
	if len(recs) != 50 {
		t.Errorf("delivered %d, want all 50", len(recs))
	}
}

// TestResilientContextCancel: cancellation between lines stops the run
// with a checkpoint that resumes cleanly.
func TestResilientContextCancel(t *testing.T) {
	input := chaosInput(300)
	rd := Reader{System: logrec.Liberty, Start: time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)}
	ctx, cancel := context.WithCancel(context.Background())
	var first []logrec.Record
	cp, err := rd.ReadResilient(ctx, strings.NewReader(input), func(rec logrec.Record) error {
		first = append(first, rec)
		if len(first) == 100 {
			cancel()
		}
		return nil
	}, ResilientOptions{Sleep: noSleep})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	rest, _, err := collect(t, rd, strings.NewReader(input), faultinject.ReaderConfig{}, ResilientOptions{Resume: &cp})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := collect(t, rd, strings.NewReader(input), faultinject.ReaderConfig{}, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := append(first, rest...); !reflect.DeepEqual(got, full) {
		t.Fatal("cancel+resume differs from uninterrupted run")
	}
}

// TestResilientPanicRecovery: a parser panic is contained to its line —
// the line comes back as one Corrupted record, the run continues with
// the next line, and the line is quarantined. The panic is forced
// through the loop with a nil YearTracker (a deliberate internal misuse
// standing in for a real parser bug): only the syslog line touches it.
func TestResilientPanicRecovery(t *testing.T) {
	input := strings.Join([]string{
		"2006-03-19 04:11:02 c0-0c1s2 ec_heartbeat_stop warn node heartbeat_fault",
		"Mar  7 14:30:05 ln1 kernel: boom",
		"2005-06-03-15.42.50.363779 R02-M1-N0 RAS KERNEL FATAL data TLB error interrupt",
	}, "\n") + "\n"
	var quarantine bytes.Buffer
	var recs []logrec.Record
	st := &readState{
		rd:   Reader{System: logrec.RedStorm},
		opts: &ResilientOptions{Quarantine: &quarantine},
		fn: func(rec logrec.Record) error {
			recs = append(recs, rec)
			return nil
		},
		ls: newLineScanner(strings.NewReader(input), 1<<20),
	}
	defer st.ls.release()
	if err := st.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.cp.Panics != 1 {
		t.Fatalf("panics = %d, want 1 (nil YearTracker)", st.cp.Panics)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3: the run must continue past the panic", len(recs))
	}
	rec := recs[1]
	if !rec.Corrupted || rec.Raw != "Mar  7 14:30:05 ln1 kernel: boom" || rec.System != logrec.RedStorm || rec.Seq != 1 {
		t.Errorf("panicking line must come back as one corrupted record with its raw text: %+v", rec)
	}
	if recs[0].Corrupted || recs[2].Corrupted {
		t.Error("lines around the panic were damaged")
	}
	want := Stats{Lines: 3, ParseErrors: 1, Syslog: 1, RAS: 1, Event: 1}
	if st.cp.Stats != want {
		t.Errorf("stats = %+v, want %+v", st.cp.Stats, want)
	}
	if quarantine.String() != "Mar  7 14:30:05 ln1 kernel: boom\n" {
		t.Errorf("quarantine = %q", quarantine.String())
	}
}

// TestResilientPanicInCallbackPropagates: only parser panics are
// contained; a panic in the consumer's callback is the caller's bug and
// must reach the caller.
func TestResilientPanicInCallbackPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "consumer bug" {
			t.Fatalf("recovered %v, want the callback's panic", r)
		}
	}()
	rd := Reader{System: logrec.Liberty}
	rd.ReadResilient(context.Background(), strings.NewReader("Mar  7 14:30:05 ln1 kernel: a\n"),
		func(logrec.Record) error { panic("consumer bug") }, ResilientOptions{})
	t.Fatal("callback panic was swallowed")
}

// TestResilientYearRolloverAcrossResume: the checkpoint carries the
// YearTracker, so a resume after New Year stamps the right year — the
// Spirit 558-day scenario.
func TestResilientYearRolloverAcrossResume(t *testing.T) {
	input := strings.Join([]string{
		"Dec 30 10:00:00 sn300 kernel: a",
		"Dec 31 10:00:00 sn300 kernel: b",
		"Jan  2 10:00:00 sn300 kernel: c",
		"Jan  3 10:00:00 sn300 kernel: d",
	}, "\n") + "\n"
	rd := Reader{System: logrec.Spirit, Start: time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)}

	// Kill after the rollover already happened (3 records in).
	kill := errors.New("killed")
	var first []logrec.Record
	cp, err := rd.ReadResilient(context.Background(), strings.NewReader(input), func(rec logrec.Record) error {
		if len(first) == 3 {
			return kill
		}
		first = append(first, rec)
		return nil
	}, ResilientOptions{Sleep: noSleep})
	if !errors.Is(err, kill) {
		t.Fatal(err)
	}
	rest, _, err := collect(t, rd, strings.NewReader(input), faultinject.ReaderConfig{}, ResilientOptions{Resume: &cp})
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || rest[0].Time.Year() != 2006 {
		t.Fatalf("resumed record year = %v, want 2006", rest[0].Time)
	}
}

// TestCheckpointFileRoundTrip: Save/Load preserve every field and the
// write is atomic (no torn .tmp left behind).
func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	want := Checkpoint{
		Lines: 42, Seq: 42, Year: 2006, LastMonth: time.February,
		Stats:   Stats{Lines: 42, ParseErrors: 3, Oversized: 1, Syslog: 40, RAS: 1, Event: 1},
		Retries: 7, Panics: 1,
	}
	if err := SaveCheckpoint(path, want); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("temp file left behind")
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want ErrNotExist", err)
	}
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("corrupt checkpoint must not load silently")
	}
}

// TestOversizedLineContinues: the satellite fix — an oversized line
// becomes one Corrupted record (capped prefix) and ingestion continues,
// with zero options too.
func TestOversizedLineContinues(t *testing.T) {
	lines := []string{
		"Mar  7 14:30:05 ln1 kernel: before",
		"Mar  7 14:30:06 ln1 kernel: " + strings.Repeat("B", 5000),
		"Mar  7 14:30:07 ln1 kernel: after",
	}
	input := strings.Join(lines, "\n") + "\n"
	rd := Reader{System: logrec.Liberty, MaxLineBytes: 100, Start: time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)}
	recs, stats, err := readPlain(rd, input)
	if err != nil {
		t.Fatalf("oversized line aborted the stream: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	if stats.Oversized != 1 || stats.ParseErrors != 1 {
		t.Errorf("stats = %+v, want 1 oversized / 1 parse error", stats)
	}
	if !recs[1].Corrupted {
		t.Error("oversized record not marked corrupted")
	}
	if len(recs[1].Raw) != 100 {
		t.Errorf("capped prefix = %d bytes, want 100", len(recs[1].Raw))
	}
	// The capped prefix still recovered the timestamp and source.
	if recs[1].Source != "ln1" {
		t.Errorf("oversized record lost its source: %q", recs[1].Source)
	}
	if recs[2].Body != "after" || recs[2].Corrupted {
		t.Error("line after the oversized one was damaged")
	}
	// Sequence numbers are contiguous: nothing was dropped or split.
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("seq[%d] = %d", i, r.Seq)
		}
	}
}

// TestTornFinalLine: a final line with no newline (torn tail) is still
// delivered, matching the old Scanner behavior.
func TestTornFinalLine(t *testing.T) {
	input := "Mar  7 14:30:05 ln1 kernel: complete\nMar  7 14:30:06 ln1 ker"
	rd := Reader{System: logrec.Liberty, Start: time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)}
	recs, stats, err := readPlain(rd, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || stats.Lines != 2 {
		t.Fatalf("records = %d, lines = %d; want 2, 2", len(recs), stats.Lines)
	}
	if recs[1].Raw != "Mar  7 14:30:06 ln1 ker" {
		t.Errorf("torn line raw = %q", recs[1].Raw)
	}
}

// TestResilientCheckpointEvery: periodic checkpoints fire on schedule
// and each is a valid resume point.
func TestResilientCheckpointEvery(t *testing.T) {
	input := chaosInput(100)
	rd := Reader{System: logrec.Liberty, Start: time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)}
	var cps []Checkpoint
	_, err := rd.ReadResilient(context.Background(), strings.NewReader(input),
		func(logrec.Record) error { return nil },
		ResilientOptions{CheckpointEvery: 30, OnCheckpoint: func(cp Checkpoint) error {
			cps = append(cps, cp)
			return nil
		}, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	// 30, 60, 90, plus the final one at 100.
	if len(cps) != 4 {
		t.Fatalf("checkpoints = %d, want 4", len(cps))
	}
	full, _, err := collect(t, rd, strings.NewReader(input), faultinject.ReaderConfig{}, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mid := cps[1]
	rest, _, err := collect(t, rd, strings.NewReader(input), faultinject.ReaderConfig{}, ResilientOptions{Resume: &mid})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rest, full[60:]) {
		t.Error("resume from periodic checkpoint diverges")
	}
}
