package ingest

import (
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
	"whatsupersay/internal/parallel"
	"whatsupersay/internal/syslogng"
)

// Chunk-parallel parsing. Per-line parsing is embarrassingly parallel
// except for one strand of sequential state: the BSD-timestamp year
// tracker, which infers the missing year from stream order. ParseAll
// parallelizes anyway by exploiting the tracker's structure: within a
// chunk, only the *first* advancing record's rollover decision depends
// on state carried in from earlier chunks (every later decision
// compares against a month seen inside the chunk). So each chunk is
// parsed optimistically against the window-start state, and a cheap
// sequential stitch afterwards computes, per chunk, a constant year
// delta for the records before and after its first advancing record —
// re-parsing a line only when its effective year actually shifts,
// which in practice is no line at all (rollovers are rare and chunk
// counts small). The result is byte-identical to the serial Reader
// (enforced by property tests across chunk sizes and worker counts).

// parsedChunk is one worker's output plus the year bookkeeping the
// stitch needs.
type parsedChunk struct {
	recs  []logrec.Record
	stats Stats
	// yearUsed[i] is the effective year line i was parsed with, or -1
	// for non-syslog lines (whose wire form carries its own year).
	yearUsed []int
	// advIdx is the index of the first record that advanced the year
	// tracker (syslog dialect, clean parse), or -1 if none did.
	advIdx int
	// advMonth is that record's month.
	advMonth time.Month
	// endYear/endMonth are the tracker's state after the chunk, under
	// the optimistic assumption that it entered at the window start.
	endYear  int
	endMonth time.Month
}

// rollsOver reports the tracker's New-Year inference: month jumped
// backward by more than six months.
func rollsOver(last, m time.Month) bool {
	return m < last && last-m > 6
}

// ParseAll parses an in-memory slice of raw lines into records,
// chunk-parallel, assigning sequence numbers in slice order. It is the
// batch analogue of ReadFunc: identical records, identical stats.
func (rd Reader) ParseAll(lines []string, opts parallel.Options) ([]logrec.Record, Stats) {
	sp := obs.Default.StartSpan("parse")
	defer sp.End()
	start := rd.Start
	if start.IsZero() {
		start = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)
	}
	startYear, startMonth := start.Year(), start.Month()

	n := len(lines)
	chunks := make([]parsedChunk, opts.Chunks(n))
	cs := opts.ChunkSize
	if cs <= 0 {
		cs = parallel.DefaultChunkSize
	}
	parallel.Do(n, opts, func(lo, hi int) {
		pc := parsedChunk{
			recs:     make([]logrec.Record, 0, hi-lo),
			yearUsed: make([]int, hi-lo),
			advIdx:   -1,
		}
		years := NewYearTracker(start)
		for i := lo; i < hi; i++ {
			rec, perr := rd.parseLine(lines[i], years)
			k := i - lo
			pc.yearUsed[k] = -1
			if !(rd.System == logrec.BlueGeneL || sniffRAS(lines[i]) || sniffEvent(lines[i])) {
				// Syslog-dialect line: its effective year is whatever
				// the tracker held when it was (re)parsed.
				pc.yearUsed[k] = years.year
				if perr {
					// Failed lines do not advance the tracker; their
					// (possibly zero) time used the pre-advance year.
					pc.yearUsed[k] = years.year
				} else if pc.advIdx < 0 {
					pc.advIdx = k
					pc.advMonth = rec.Time.Month()
				}
			}
			rec.Seq = uint64(i)
			pc.stats.Lines++
			if perr {
				pc.stats.ParseErrors++
			}
			pc.recs = append(pc.recs, rec)
		}
		pc.endYear, pc.endMonth = years.State()
		chunks[lo/cs] = pc
	})

	// Sequential stitch: thread the real tracker state through the
	// chunks and repair any line whose effective year shifted.
	recs := make([]logrec.Record, 0, n)
	var stats Stats
	year, month := startYear, startMonth
	for ci := range chunks {
		pc := &chunks[ci]
		preDelta := year - startYear
		postDelta := preDelta
		if pc.advIdx >= 0 {
			dAssumed, dActual := 0, 0
			if rollsOver(startMonth, pc.advMonth) {
				dAssumed = 1
			}
			if rollsOver(month, pc.advMonth) {
				dActual = 1
			}
			postDelta += dActual - dAssumed
		}
		if preDelta != 0 || postDelta != 0 {
			lo := ci * cs
			for k := range pc.recs {
				if pc.yearUsed[k] < 0 {
					continue
				}
				delta := preDelta
				if pc.advIdx >= 0 && k >= pc.advIdx {
					delta = postDelta
				}
				if delta == 0 {
					continue
				}
				rec, _ := rd.reparse(lines[lo+k], pc.yearUsed[k]+delta)
				rec.Seq = pc.recs[k].Seq
				pc.recs[k] = rec
			}
		}
		if pc.advIdx >= 0 {
			year = pc.endYear + postDelta
			month = pc.endMonth
		}
		recs = append(recs, pc.recs...)
		stats.add(pc.stats)
	}
	// One fold into the ingest counters per call, not per line: the
	// batch path is the benched hot loop.
	recordStats(stats)
	return recs, stats
}

// reparse re-runs the syslog parse of one line with its corrected
// effective year (the stitch path). The serial reader's final answer
// for a syslog line is always syslogng.Parse(line, effectiveYear), so
// calling it directly reproduces the serial record exactly.
func (rd Reader) reparse(line string, year int) (logrec.Record, bool) {
	rec, perr := syslogng.Parse(line, year, rd.System)
	rec.System = rd.System
	return rec, perr != nil
}
