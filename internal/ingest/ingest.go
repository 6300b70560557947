// Package ingest reads system-log text — real or synthetic — into the
// structured record model, handling the practical problems Section 3.2.1
// catalogs: mixed dialects within one system's log (Red Storm's syslog
// and SMW event streams arrive interleaved), BSD timestamps with no year
// across multi-year windows (Spirit's 558-day log crosses two New
// Years), and corrupted lines that must be preserved rather than
// dropped, because corruption is itself an object of study.
//
// Every raw line goes through one streaming loop (ReadResilient) over an
// io.Reader, which never holds the whole log in memory beyond the
// returned records; in-memory lines take the same per-line step
// (ParseLine).
package ingest

import (
	"bytes"
	"context"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"whatsupersay/internal/ddn"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
	"whatsupersay/internal/rasdb"
	"whatsupersay/internal/syslogng"
)

// Ingestion telemetry, folded in by the one read loop (ReadResilient)
// at the end of each run and before each checkpoint: the counters as
// deltas of the run's Stats, the line sizes from a run-local tally, so
// the per-line path touches no shared cache line (DESIGN.md §8).
var (
	mLines     = obs.Default.Counter("ingest_lines_total")
	mParseErrs = obs.Default.Counter("ingest_parse_errors_total")
	mOversized = obs.Default.Counter("ingest_oversized_total")
	mLineBytes = obs.Default.Histogram("ingest_line_bytes", obs.Bytes)
)

// Stats summarizes one ingestion run.
type Stats struct {
	// Lines is the total lines read.
	Lines int
	// ParseErrors counts lines that failed to parse (returned as
	// Corrupted records, never dropped).
	ParseErrors int
	// Oversized counts lines longer than MaxLineBytes; each comes back
	// as one Corrupted record carrying the capped prefix, with the
	// remainder of the physical line discarded.
	Oversized int
	// ByDialect counts lines per sniffed dialect. A BG/L line that
	// parsed counts as RAS whatever its shape.
	Syslog, RAS, Event int
}

// dialect is a line's wire format, sniffed once from its leading shape.
type dialect uint8

const (
	syslogDialect dialect = iota // the fallback
	rasDialect
	eventDialect
)

// sniff decides a line's dialect: each wire format has an unambiguous
// leading shape.
func sniff(line string) dialect {
	switch {
	case sniffRAS(line):
		return rasDialect
	case sniffEvent(line):
		return eventDialect
	default:
		return syslogDialect
	}
}

// sniffRAS detects the BG/L RAS timestamp "2005-06-03-15.42.50.363779".
func sniffRAS(line string) bool {
	if len(line) < len(rasdb.TimeLayout) {
		return false
	}
	return line[4] == '-' && line[7] == '-' && line[10] == '-' &&
		line[13] == '.' && line[16] == '.' && line[19] == '.'
}

// sniffEvent detects the SMW event timestamp "2006-03-19 04:11:02".
func sniffEvent(line string) bool {
	if len(line) < len(ddn.EventTimeLayout) {
		return false
	}
	return line[4] == '-' && line[7] == '-' && line[10] == ' ' &&
		line[13] == ':' && line[16] == ':'
}

// YearTracker infers the missing year of BSD-syslog timestamps from
// stream order: when the month jumps backward by more than six months,
// the stream has crossed New Year.
type YearTracker struct {
	year      int
	lastMonth time.Month
}

// NewYearTracker starts tracking at the window's first instant.
func NewYearTracker(start time.Time) *YearTracker {
	return &YearTracker{year: start.Year(), lastMonth: start.Month()}
}

// State exposes the tracker's position so it can be checkpointed.
func (y *YearTracker) State() (year int, lastMonth time.Month) {
	return y.year, y.lastMonth
}

// RestoreYearTracker reconstructs a tracker from checkpointed state.
func RestoreYearTracker(year int, lastMonth time.Month) *YearTracker {
	return &YearTracker{year: year, lastMonth: lastMonth}
}

// Year returns the year to use for a record bearing the given month, and
// advances the tracker.
func (y *YearTracker) Year(m time.Month) int {
	if m < y.lastMonth && y.lastMonth-m > 6 {
		y.year++
	}
	y.lastMonth = m
	return y.year
}

// Reader ingests one system's log.
type Reader struct {
	// System stamps ingested records.
	System logrec.System
	// Start anchors year inference for BSD timestamps; it should be the
	// collection window's start (Table 2).
	Start time.Time
	// MaxLineBytes bounds one line (default 1 MiB); a longer line comes
	// back as one Corrupted record carrying the capped prefix, with the
	// remainder of the physical line discarded — ingestion continues.
	MaxLineBytes int
}

// lineScanner reads capped newline-delimited lines without ever aborting
// the stream: an oversized line is capped at max bytes (the rest of the
// physical line is discarded) and reported truncated, and a final line
// with no trailing newline — a torn tail — is still delivered. Only real
// reader errors surface, after every line read before them.
//
// It reads the stream in 64 KiB blocks and converts each block's run of
// complete lines with one string conversion; the lines it returns are
// substrings of that run. A partial line carries over to the next
// block, and a line longer than a block is assembled in its own buffer.
type lineScanner struct {
	r     io.Reader
	max   int
	block []byte // block[pos:n] is read but not yet framed
	pos   int
	n     int
	seen  int    // block[pos:pos+seen] holds no newline
	lines string // complete lines framed from the block, not yet returned
	long  []byte // the first max bytes of a line longer than a block
	longN int    // that line's length so far
	err   error  // the reader's error, surfaced once the data before it is out
}

const blockSize = 64 * 1024

// blockPool recycles read blocks across streams: serve frames one
// stream per ingest request.
var blockPool = sync.Pool{New: func() any { return new([blockSize]byte) }}

func newLineScanner(r io.Reader, max int) lineScanner {
	return lineScanner{r: r, max: max, block: blockPool.Get().(*[blockSize]byte)[:]}
}

// release returns the block to the pool and drops the reader, so the
// pool pins neither. Lines already returned stay valid: they are
// strings of their own.
func (ls *lineScanner) release() {
	blockPool.Put((*[blockSize]byte)(ls.block))
	*ls = lineScanner{}
}

// next returns the next line without its terminator, plus whether the
// line was oversized-and-capped. At end of stream it returns io.EOF.
func (ls *lineScanner) next() (string, bool, error) {
	for {
		if i := strings.IndexByte(ls.lines, '\n'); i >= 0 {
			line := ls.lines[:i]
			ls.lines = ls.lines[i+1:]
			return ls.frame(line, i+1)
		}
		buf := ls.block[ls.pos:ls.n]
		if i := bytes.IndexByte(buf[ls.seen:], '\n'); i >= 0 {
			i += ls.seen
			ls.seen = 0
			if ls.longN > 0 {
				ls.pos += i + 1
				line, total := ls.takeLong(buf[:i])
				return ls.frame(line, total+1)
			}
			end := bytes.LastIndexByte(buf, '\n') + 1
			ls.lines = string(buf[:end])
			ls.pos += end
			continue
		}
		if ls.err != nil {
			if ls.err != io.EOF {
				return "", false, ls.err
			}
			if ls.longN == 0 && len(buf) == 0 {
				return "", false, io.EOF
			}
			// Torn tail: the last line has no newline.
			ls.pos, ls.seen = ls.n, 0
			line, total := ls.takeLong(buf)
			return ls.frame(line, total)
		}
		ls.seen = len(buf)
		ls.fill()
	}
}

// fill slides the partial line to the front of the block and reads more
// behind it. A block filled by one partial line moves into long first.
// Like bufio, it gives up with io.ErrNoProgress after 100 empty reads.
func (ls *lineScanner) fill() {
	ls.n = copy(ls.block, ls.block[ls.pos:ls.n])
	ls.pos = 0
	if ls.n == len(ls.block) {
		ls.appendLong(ls.block)
		ls.n, ls.seen = 0, 0
	}
	for i := 0; i < 100; i++ {
		m, err := ls.r.Read(ls.block[ls.n:])
		ls.n += m
		if err != nil {
			ls.err = err
			return
		}
		if m > 0 {
			return
		}
	}
	ls.err = io.ErrNoProgress
}

// appendLong adds a block-spanning line's next bytes, keeping only the
// first max: no framed line is longer.
func (ls *lineScanner) appendLong(b []byte) {
	ls.longN += len(b)
	if room := ls.max - len(ls.long); room > 0 {
		ls.long = append(ls.long, b[:min(room, len(b))]...)
	}
}

// takeLong completes the line held in long with its last bytes b (b is
// the whole line when none is held) and returns it with its length,
// emptying long.
func (ls *lineScanner) takeLong(b []byte) (string, int) {
	ls.appendLong(b)
	line, total := string(ls.long), ls.longN
	ls.long, ls.longN = ls.long[:0], 0
	return line, total
}

// frame caps a line of total bytes — its newline included, so a line of
// exactly max bytes plus its newline counts as oversized — at max bytes
// and strips one trailing carriage return from what is left; it
// returns next's results for that line.
func (ls *lineScanner) frame(line string, total int) (string, bool, error) {
	oversized := total > ls.max
	if oversized {
		line = line[:ls.max]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, oversized, nil
}

// ParseLine is the per-line step every raw line goes through, for a
// line that is already framed: sniff its dialect, then parse it with
// that dialect's parser (BSD-syslog lines take their year from years,
// which advances across New Year). A line that fails to parse comes
// back Corrupted with its raw text, never dropped. Sequence numbers are
// the caller's.
func (rd Reader) ParseLine(line string, years *YearTracker) logrec.Record {
	return rd.parseLine(line, sniff(line), years)
}

// parseLine parses one line of sniffed dialect d. BG/L speaks only RAS,
// so its lines go to the RAS parser whatever their shape.
func (rd Reader) parseLine(line string, d dialect, years *YearTracker) logrec.Record {
	switch {
	case d == rasDialect || rd.System == logrec.BlueGeneL:
		rec, _ := rasdb.Parse(line)
		rec.System = rd.System
		return rec
	case d == eventDialect:
		rec, _ := ddn.ParseEvent(line)
		rec.System = rd.System
		return rec
	default:
		// Two-phase parse for year inference: parse with the current
		// year, then re-parse if the tracker advances.
		rec, _ := syslogng.Parse(line, years.year, rd.System)
		if !rec.Corrupted {
			if y := years.Year(rec.Time.Month()); y != rec.Time.Year() {
				rec, _ = syslogng.Parse(line, y, rd.System)
			}
		}
		return rec
	}
}

// ReadAll ingests, sorts canonically, and reports dialect stats — the
// common entry point for analysis. It is the one read loop with zero
// options: no retry, no budget, no checkpoint, so a reader error fails
// it at once. The record slice grows by doubling rather than by
// append's ~1.25× for large slices, so a whole log's records are zeroed
// and copied about once, not many times over.
func ReadAll(r io.Reader, sys logrec.System, start time.Time) ([]logrec.Record, Stats, error) {
	rd := Reader{System: sys, Start: start}
	var recs []logrec.Record
	cp, err := rd.ReadResilient(context.Background(), r, func(rec logrec.Record) error {
		if len(recs) == cap(recs) {
			recs = slices.Grow(recs, max(len(recs), 256))
		}
		recs = append(recs, rec)
		return nil
	}, ResilientOptions{})
	if err != nil {
		return nil, cp.Stats, err
	}
	logrec.SortRecords(recs)
	return recs, cp.Stats, nil
}
