package ingest_test

// Equivalence property tests for the chunk-parallel parser: ParseAll
// must be byte-identical to the serial reader for every system's
// traffic and for adversarial year-rollover streams, across
// chunk sizes and worker counts. The serial path is the specification;
// the parallel path is only an optimization.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/parallel"
	"whatsupersay/internal/simulate"
)

var parseOpts = []parallel.Options{
	{Workers: 1, ChunkSize: 1},
	{Workers: 1, ChunkSize: 1000},
	{Workers: 2, ChunkSize: 3},
	{Workers: 4, ChunkSize: 257},
	{Workers: 8, ChunkSize: 4096},
	{},
}

func firstDiff(t *testing.T, got, want []logrec.Record, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: record %d diverged\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// TestParseAllMatchesSerial: on each system's generated traffic
// (including injected corruption), ParseAll reproduces the streaming
// reader record-for-record and stat-for-stat under every pool shape.
func TestParseAllMatchesSerial(t *testing.T) {
	for _, sys := range logrec.Systems() {
		out, err := simulate.Generate(simulate.Config{
			System: sys, Scale: 0.0002, Seed: 42, CorruptionProb: 0.01,
		})
		if err != nil {
			t.Fatalf("%v: generate: %v", sys, err)
		}
		// Re-split on newlines so corrupted lines with embedded breaks
		// frame identically for the streaming and in-memory paths.
		lines := strings.Split(strings.Join(out.Lines, "\n"), "\n")
		rd := ingest.Reader{System: sys, Start: out.Start}

		want, wantStats, err := rd.Read(strings.NewReader(strings.Join(lines, "\n") + "\n"))
		if err != nil {
			t.Fatalf("%v: serial read: %v", sys, err)
		}
		for _, opts := range parseOpts {
			got, gotStats := rd.ParseAll(lines, opts)
			label := fmt.Sprintf("%v opts %+v", sys, opts)
			firstDiff(t, got, want, label)
			if gotStats != wantStats {
				t.Fatalf("%s: stats %+v, want %+v", label, gotStats, wantStats)
			}
		}
	}
}

// rolloverLines builds a BSD-syslog stream that crosses New Year twice
// (the Spirit shape: a 558-day window spans two rollovers), with
// corrupted lines scattered through it — including immediately before
// and after the month jumps, where they stress the stitch: a failed
// parse must keep the pre-advance year while its clean neighbors shift.
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
		// Corruption at every month seam.
		lines = append(lines, fmt.Sprintf("#### garbage at seam %d ####", mi))
	}
	return lines
}

// TestParseAllYearRollover: the year stitch. Chunk sizes are chosen so
// boundaries land before, on, and after the rollover records, and the
// test asserts the stream really did advance two years serially (so the
// stitch is exercised, not vacuous).
func TestParseAllYearRollover(t *testing.T) {
	lines := rolloverLines()
	start := time.Date(2004, time.October, 1, 0, 0, 0, 0, time.UTC)
	rd := ingest.Reader{System: logrec.Spirit, Start: start}

	want, wantStats, err := rd.Read(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatalf("serial read: %v", err)
	}
	maxYear := 0
	for _, r := range want {
		if !r.Corrupted && r.Time.Year() > maxYear {
			maxYear = r.Time.Year()
		}
	}
	if maxYear != start.Year()+2 {
		t.Fatalf("serial stream ends in year %d, want %d: rollover not exercised", maxYear, start.Year()+2)
	}
	if wantStats.ParseErrors == 0 {
		t.Fatal("no corrupted lines in rollover stream: stitch not stressed")
	}

	for cs := 1; cs <= len(lines)+1; cs++ {
		for _, workers := range []int{1, 3, 8} {
			opts := parallel.Options{Workers: workers, ChunkSize: cs}
			got, gotStats := rd.ParseAll(lines, opts)
			label := fmt.Sprintf("chunk=%d workers=%d", cs, workers)
			firstDiff(t, got, want, label)
			if gotStats != wantStats {
				t.Fatalf("%s: stats %+v, want %+v", label, gotStats, wantStats)
			}
		}
	}
}

// BenchmarkParseAll times serial vs chunk-parallel parsing of a
// Thunderbird-shaped stream.
func BenchmarkParseAll(b *testing.B) {
	out, err := simulate.Generate(simulate.Config{System: logrec.Thunderbird, Scale: 0.001, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	rd := ingest.Reader{System: logrec.Thunderbird, Start: out.Start}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rd.ParseAll(out.Lines, parallel.Options{Workers: 1})
		}
		b.ReportMetric(float64(len(out.Lines))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rd.ParseAll(out.Lines, parallel.Options{})
		}
		b.ReportMetric(float64(len(out.Lines))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}
