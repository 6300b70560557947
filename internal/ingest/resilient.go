package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
)

// Fault-path telemetry: how often the resilience machinery actually
// fires. These are per-event (rare by construction), not per-line.
var (
	mRetries     = obs.Default.Counter("ingest_retries_total")
	mPanics      = obs.Default.Counter("ingest_parser_panics_total")
	mCheckpoints = obs.Default.Counter("ingest_checkpoints_total")
)

// Resilient ingestion: the paper's logs arrive damaged (Section 3.2.1)
// and its collection windows span 558 days (Table 2) — at that scale the
// ingest process itself fails mid-run: readers hiccup, disks die, parser
// bugs surface on line 400 million. ReadResilient survives all of it:
// parser panics are contained per line and context cancellation is
// honored between lines always; on request, transient reader errors are
// retried with exponential backoff, damaged lines are quarantined
// (preserved, never dropped) under an error budget, and a checkpoint
// carrying the sequence number and YearTracker state lets a killed run
// resume exactly where it died.

// ErrBudgetExceeded reports that a run quarantined more lines than its
// error budget allows — the signal that the input is damaged beyond what
// the operator declared tolerable, not just routinely corrupted.
var ErrBudgetExceeded = errors.New("ingest: quarantined lines exceed error budget")

// Checkpoint is the complete resumable state of an ingestion run. A run
// killed at any point can be restarted from its last checkpoint against
// the same stream and deliver exactly the records the uninterrupted run
// would have, because the only state ingestion carries across lines is
// captured here: the count of fully delivered lines, the next sequence
// number, and the YearTracker's position (which is what makes a resumed
// Spirit-scale ingest stamp post-New-Year records with the right year).
type Checkpoint struct {
	// Lines is the number of physical lines fully delivered.
	Lines int `json:"lines"`
	// Seq is the next sequence number to assign.
	Seq uint64 `json:"seq"`
	// Year and LastMonth restore the YearTracker.
	Year      int        `json:"year"`
	LastMonth time.Month `json:"last_month"`
	// Stats is the cumulative run statistics at the checkpoint.
	Stats Stats `json:"stats"`
	// Retries is the cumulative count of retried transient read errors.
	Retries int `json:"retries"`
	// Panics is the cumulative count of parser panics contained.
	Panics int `json:"panics"`
}

// SaveCheckpoint atomically writes a checkpoint file (write temp +
// rename), so a crash mid-save never leaves a torn checkpoint — the
// harness injects exactly that kind of failure elsewhere.
func SaveCheckpoint(path string, cp Checkpoint) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads a checkpoint file. A missing file returns
// os.ErrNotExist, which callers treat as "start fresh".
func LoadCheckpoint(path string) (Checkpoint, error) {
	var cp Checkpoint
	data, err := os.ReadFile(path)
	if err != nil {
		return cp, err
	}
	if err := json.Unmarshal(data, &cp); err != nil {
		return cp, fmt.Errorf("ingest: corrupt checkpoint %s: %w", path, err)
	}
	return cp, nil
}

// ResilientOptions configures fault tolerance. The zero value is the
// plain reader: no retry, no sleep, no error budget, no quarantine copy,
// no checkpoint — a reader error fails the run at once.
type ResilientOptions struct {
	// MaxRetries bounds retries per transient reader error. Zero or
	// negative disables retry.
	MaxRetries int
	// RetryBase is the first backoff delay, doubling per attempt
	// (default 50ms).
	RetryBase time.Duration
	// MaxErrors is the error budget: the run aborts with
	// ErrBudgetExceeded once more than MaxErrors lines have been
	// quarantined. Zero or negative means unlimited — corruption is an
	// object of study, so the default is to keep going.
	MaxErrors int
	// Quarantine receives each damaged line (raw, newline-terminated):
	// unparseable, oversized, or panic-inducing. The record is still
	// delivered to the callback — quarantine is a copy for later study,
	// not a diversion. Nil disables.
	Quarantine io.Writer
	// Resume restores a prior run's state; the first Resume.Lines
	// physical lines of the stream are skipped (re-framed but not
	// re-parsed or re-delivered).
	Resume *Checkpoint
	// CheckpointEvery invokes OnCheckpoint after every N delivered
	// lines (and once at the end). Zero disables periodic checkpoints.
	CheckpointEvery int
	// OnCheckpoint persists a checkpoint; an error aborts the run. Nil
	// disables checkpoints.
	OnCheckpoint func(Checkpoint) error
	// Sleep replaces time.Sleep in backoff, for tests. Nil uses
	// time.Sleep; context cancellation interrupts either way.
	Sleep func(time.Duration)
}

// temporary is the conventional retryable-error classification
// (net.Error and faultinject.TransientError both satisfy it).
type temporary interface{ Temporary() bool }

// IsTransient reports whether a read error is worth retrying.
func IsTransient(err error) bool {
	var t temporary
	return errors.As(err, &t) && t.Temporary()
}

// retryReader absorbs transient errors below the line framer: a failed
// Read is retried with exponential backoff, so the scanner above only
// ever sees data, EOF, or a permanent error.
type retryReader struct {
	r       io.Reader
	ctx     context.Context
	max     int
	base    time.Duration
	sleep   func(time.Duration)
	retries *int
}

func (rr *retryReader) Read(p []byte) (int, error) {
	delay := rr.base
	for attempt := 0; ; attempt++ {
		n, err := rr.r.Read(p)
		if err == nil || !IsTransient(err) {
			return n, err
		}
		if n > 0 {
			// Deliver the data; if the fault is real it resurfaces on
			// the next call with nothing read.
			return n, nil
		}
		if attempt >= rr.max {
			return 0, err
		}
		*rr.retries++
		mRetries.Inc()
		select {
		case <-rr.ctx.Done():
			return 0, rr.ctx.Err()
		default:
		}
		rr.sleep(delay)
		delay *= 2
	}
}

// ReadResilient is the one read loop: it frames the stream into capped
// lines, parses each through the per-line step, and streams the records
// to fn in arrival order, with as much fault tolerance as opts asks for
// (the zero value is the plain reader ReadAll uses). Parser panics are
// contained per line and context cancellation is honored between lines
// whatever the options. It returns the final checkpoint — valid for
// resumption whether the run completed, was cancelled, hit its error
// budget, or died on a permanent reader error — and the first fatal
// error, if any. A record is covered by the checkpoint only after fn
// has accepted it, so a resumed run never skips or double-delivers.
func (rd Reader) ReadResilient(ctx context.Context, r io.Reader, fn func(logrec.Record) error, opts ResilientOptions) (Checkpoint, error) {
	sp := obs.Default.StartSpan("ingest")
	defer sp.End()
	if ctx == nil {
		ctx = context.Background()
	}
	maxLine := rd.MaxLineBytes
	if maxLine <= 0 {
		maxLine = 1 << 20
	}
	st := &readState{rd: rd, fn: fn, opts: &opts, done: ctx.Done()}
	if opts.Resume != nil {
		st.cp = *opts.Resume
		st.published = st.cp.Stats
		st.years = RestoreYearTracker(st.cp.Year, st.cp.LastMonth)
	} else {
		start := rd.Start
		if start.IsZero() {
			start = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)
		}
		st.years = NewYearTracker(start)
	}
	if opts.MaxRetries > 0 {
		base := opts.RetryBase
		if base <= 0 {
			base = 50 * time.Millisecond
		}
		sleep := opts.Sleep
		if sleep == nil {
			sleep = time.Sleep
		}
		r = &retryReader{r: r, ctx: ctx, max: opts.MaxRetries, base: base, sleep: sleep, retries: &st.cp.Retries}
	}
	st.ls = newLineScanner(r, maxLine)
	defer st.ls.release()
	defer st.publish()

	// Skip the lines a prior run already delivered. The stream is
	// re-framed with the same capping rules, so line boundaries — and
	// therefore everything downstream — are identical to the first run.
	for skipped := 0; skipped < st.cp.Lines; skipped++ {
		if _, _, err := st.ls.next(); err != nil {
			if err == io.EOF {
				return st.snap(), fmt.Errorf("ingest %v: stream ended at line %d, before resume point %d", rd.System, skipped, st.cp.Lines)
			}
			return st.snap(), fmt.Errorf("ingest %v: replaying to resume point: %w", rd.System, err)
		}
	}
	if err := st.run(ctx); err != nil {
		return st.snap(), err
	}
	if err := st.checkpoint(); err != nil {
		return st.snap(), fmt.Errorf("ingest %v: checkpoint: %w", rd.System, err)
	}
	return st.snap(), nil
}

// readState is one ReadResilient run: the framer, the year tracker and
// the checkpoint being built.
type readState struct {
	rd    Reader
	fn    func(logrec.Record) error
	opts  *ResilientOptions
	done  <-chan struct{}
	ls    lineScanner
	years *YearTracker
	cp    Checkpoint
	// published is the Stats already added to the ingest_* counters;
	// lineBytes holds the delivered line sizes not yet merged into
	// ingest_line_bytes.
	published Stats
	lineBytes obs.Tally
}

// line is one framed line in flight.
type line struct {
	raw       string
	dialect   dialect
	oversized bool
}

// snap returns the checkpoint with the year tracker's position. The
// tracker is safe to snapshot even when the last parsed line was not
// delivered (fn error): re-parsing the same line on resume is
// idempotent, because the tracker only advances on a month jump and the
// rejected line's month is now LastMonth.
func (st *readState) snap() Checkpoint {
	st.cp.Year, st.cp.LastMonth = st.years.State()
	return st.cp
}

// checkpoint hands a snapshot to OnCheckpoint, if there is one, with
// the telemetry brought up to it first.
func (st *readState) checkpoint() error {
	if st.opts.OnCheckpoint == nil {
		return nil
	}
	st.publish()
	mCheckpoints.Inc()
	return st.opts.OnCheckpoint(st.snap())
}

// publish folds the run's progress since the last publish into the
// shared telemetry: the line, parse-error and oversized counters by
// their Stats deltas, and the tallied line sizes.
func (st *readState) publish() {
	s := st.cp.Stats
	mLines.Add(int64(s.Lines - st.published.Lines))
	mParseErrs.Add(int64(s.ParseErrors - st.published.ParseErrors))
	mOversized.Add(int64(s.Oversized - st.published.Oversized))
	mLineBytes.Merge(&st.lineBytes)
	st.published = s
}

// run drives lines to the end of the stream. A parser panic unwinds out
// of lines, so the hot loop carries no per-line defer; run delivers the
// panicking line as one Corrupted record carrying its raw text, exactly
// like any other unparseable input, and resumes with the next line.
func (st *readState) run(ctx context.Context) error {
	for {
		ln, panicked, err := st.lines(ctx)
		if !panicked {
			return err
		}
		st.cp.Panics++
		mPanics.Inc()
		rec := logrec.Record{System: st.rd.System, Raw: ln.raw, Corrupted: true}
		if err := st.deliver(&rec, &ln); err != nil {
			return err
		}
	}
}

// lines frames, parses and delivers lines until the stream ends, a line
// fails the run, or the parser panics; on a panic it returns the line
// in flight. Only a panic while parsing is recovered: one in fn or
// OnCheckpoint is the caller's and propagates.
func (st *readState) lines(ctx context.Context) (ln line, panicked bool, err error) {
	parsing := false
	defer func() {
		if parsing {
			recover()
			panicked = true
		}
	}()
	for {
		if st.done != nil {
			select {
			case <-st.done:
				return ln, false, ctx.Err()
			default:
			}
		}
		raw, oversized, rerr := st.ls.next()
		if rerr == io.EOF {
			return ln, false, nil
		}
		if rerr != nil {
			return ln, false, fmt.Errorf("ingest %v: %w", st.rd.System, rerr)
		}
		ln.raw, ln.oversized = raw, oversized
		ln.dialect = sniff(ln.raw)
		parsing = true
		rec := st.rd.parseLine(ln.raw, ln.dialect, st.years)
		parsing = false
		if err := st.deliver(&rec, &ln); err != nil {
			return ln, false, err
		}
	}
}

// deliver hands the parsed line to fn and, once fn accepts it, folds
// the line into the checkpoint: sequence number, Stats (dialect
// included), quarantine, budget, periodic checkpoint.
func (st *readState) deliver(rec *logrec.Record, ln *line) error {
	if ln.oversized {
		// The capped prefix may still have parsed a timestamp and
		// source, but the record is damaged by definition.
		rec.Corrupted = true
	}
	rec.Seq = st.cp.Seq
	if err := st.fn(*rec); err != nil {
		return err
	}
	cp := &st.cp
	cp.Seq++
	cp.Lines++
	cp.Stats.Lines++
	st.lineBytes.Observe(int64(len(ln.raw)))
	switch {
	case ln.dialect == rasDialect || (st.rd.System == logrec.BlueGeneL && !rec.Corrupted):
		cp.Stats.RAS++
	case ln.dialect == eventDialect:
		cp.Stats.Event++
	default:
		cp.Stats.Syslog++
	}
	if ln.oversized {
		cp.Stats.Oversized++
	}
	if rec.Corrupted {
		cp.Stats.ParseErrors++
		if st.opts.Quarantine != nil {
			if _, err := io.WriteString(st.opts.Quarantine, ln.raw+"\n"); err != nil {
				return fmt.Errorf("ingest %v: quarantine: %w", st.rd.System, err)
			}
		}
		if st.opts.MaxErrors > 0 && cp.Stats.ParseErrors > st.opts.MaxErrors {
			return fmt.Errorf("%w: %d > %d", ErrBudgetExceeded, cp.Stats.ParseErrors, st.opts.MaxErrors)
		}
	}
	if st.opts.CheckpointEvery > 0 && cp.Lines%st.opts.CheckpointEvery == 0 {
		if err := st.checkpoint(); err != nil {
			return fmt.Errorf("ingest %v: checkpoint: %w", st.rd.System, err)
		}
	}
	return nil
}
