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
	"bufio"
	"context"
	"io"
	"sync"
	"time"

	"whatsupersay/internal/ddn"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
	"whatsupersay/internal/rasdb"
	"whatsupersay/internal/syslogng"
)

// Ingestion telemetry, updated per line by the one read loop
// (ReadResilient) — each update is one atomic add on a pointer resolved
// once at init, so the instrumented parse stays within the bench
// overhead budget (DESIGN.md §8).
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
// reader errors surface.
type lineScanner struct {
	br  *bufio.Reader
	max int
	buf []byte
}

// scannerPool recycles lineScanners — the 64 KiB bufio buffer and the
// line scratch buffer dominate the framer's allocations, and ingestion
// creates one scanner per file segment (many, when resuming). A pooled
// scanner whose scratch grew past maxPooledBuf is dropped rather than
// pinned in the pool.
var scannerPool = sync.Pool{New: func() any { return new(lineScanner) }}

const maxPooledBuf = 1 << 20

func newLineScanner(r io.Reader, max int) *lineScanner {
	ls := scannerPool.Get().(*lineScanner)
	if ls.br == nil {
		ls.br = bufio.NewReaderSize(r, 64*1024)
	} else {
		ls.br.Reset(r)
	}
	ls.max = max
	ls.buf = ls.buf[:0]
	return ls
}

// release returns the scanner to the pool. The caller must not touch the
// scanner — or any []byte returned by next — afterwards.
func (ls *lineScanner) release() {
	if cap(ls.buf) > maxPooledBuf {
		ls.buf = nil
	}
	scannerPool.Put(ls)
}

// next returns the next line without its terminator, plus whether the
// line was oversized-and-capped. At end of stream it returns io.EOF.
func (ls *lineScanner) next() (line []byte, oversized bool, err error) {
	ls.buf = ls.buf[:0]
	discarding := false
	for {
		frag, ferr := ls.br.ReadSlice('\n')
		if !discarding {
			ls.buf = append(ls.buf, frag...)
			if len(ls.buf) > ls.max {
				// Cap the line; keep consuming to the newline so the
				// next call starts on the next physical line.
				ls.buf = ls.buf[:ls.max]
				oversized = true
				discarding = true
			}
		}
		switch {
		case ferr == nil:
			return ls.trim(), oversized, nil
		case ferr == bufio.ErrBufferFull:
			continue
		case ferr == io.EOF:
			if len(ls.buf) == 0 {
				return nil, false, io.EOF
			}
			return ls.trim(), oversized, nil
		default:
			return nil, false, ferr
		}
	}
}

// trim strips the trailing newline (and a preceding carriage return)
// from the buffered line.
func (ls *lineScanner) trim() []byte {
	b := ls.buf
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
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
// it at once.
func ReadAll(r io.Reader, sys logrec.System, start time.Time) ([]logrec.Record, Stats, error) {
	rd := Reader{System: sys, Start: start}
	var recs []logrec.Record
	cp, err := rd.ReadResilient(context.Background(), r, func(rec logrec.Record) error {
		recs = append(recs, rec)
		return nil
	}, ResilientOptions{})
	if err != nil {
		return nil, cp.Stats, err
	}
	logrec.SortRecords(recs)
	return recs, cp.Stats, nil
}
