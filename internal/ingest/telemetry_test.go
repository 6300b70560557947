package ingest

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
)

// telemetry is the read loop's shared telemetry: the three ingest_*
// counters and the observation count of ingest_line_bytes.
type telemetry struct{ lines, parseErrs, oversized, sizes int64 }

func readTelemetry() telemetry {
	return telemetry{mLines.Value(), mParseErrs.Value(), mOversized.Value(), mLineBytes.Count()}
}

func (a telemetry) minus(b telemetry) telemetry {
	return telemetry{a.lines - b.lines, a.parseErrs - b.parseErrs, a.oversized - b.oversized, a.sizes - b.sizes}
}

// telemetryOf is what the telemetry should have moved by for s: one
// size observation per delivered line.
func telemetryOf(s Stats) telemetry {
	return telemetry{int64(s.Lines), int64(s.ParseErrors), int64(s.Oversized), int64(s.Lines)}
}

// telemetryInput mixes clean lines, unparseable ones and lines past a
// 64-byte cap, so every counter moves.
func telemetryInput() string {
	var b strings.Builder
	for i, line := range strings.SplitAfter(chaosInput(120), "\n") {
		switch i % 10 {
		case 3:
			b.WriteString("garbage that is not syslog\n")
		case 7:
			b.WriteString(strings.Repeat("long", 30) + "\n")
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestTelemetryFoldedPerRun: the read loop publishes its telemetry once
// per run and before each checkpoint, yet the counters stay exact — they
// move by the run's Stats for a plain ReadAll, by each leg's share when a
// stopped run resumes from its checkpoint (the resumed prefix is not
// counted twice), and they are current at every OnCheckpoint. Last, a
// ReadAll beside a checkpointing run moves them by the sum of both
// runs' Stats.
func TestTelemetryFoldedPerRun(t *testing.T) {
	input := telemetryInput()
	start := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	rd := Reader{System: logrec.Liberty, Start: start, MaxLineBytes: 64}
	read := func(opts ResilientOptions, stopAt int) (Checkpoint, error) {
		n := 0
		stop := errors.New("stop")
		cp, err := rd.ReadResilient(context.Background(), strings.NewReader(input), func(logrec.Record) error {
			if n == stopAt {
				return stop
			}
			n++
			return nil
		}, opts)
		if errors.Is(err, stop) {
			err = nil
		}
		return cp, err
	}

	t.Run("read-all", func(t *testing.T) {
		before := readTelemetry()
		_, stats, err := ReadAll(strings.NewReader(input), logrec.Liberty, start)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := readTelemetry().minus(before), telemetryOf(stats); got != want || stats.ParseErrors == 0 {
			t.Fatalf("telemetry moved by %+v, Stats say %+v", got, want)
		}
	})

	t.Run("stop-and-resume", func(t *testing.T) {
		before := readTelemetry()
		whole, err := read(ResilientOptions{}, -1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := readTelemetry().minus(before), telemetryOf(whole.Stats); got != want || whole.Stats.Oversized == 0 {
			t.Fatalf("uninterrupted run moved telemetry by %+v, Stats say %+v", got, want)
		}
		before = readTelemetry()
		stopped, err := read(ResilientOptions{}, 50)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := readTelemetry().minus(before), telemetryOf(stopped.Stats); got != want || stopped.Lines != 50 {
			t.Fatalf("stopped run moved telemetry by %+v, Stats say %+v", got, want)
		}
		resumed, err := read(ResilientOptions{Resume: &stopped}, -1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := readTelemetry().minus(before), telemetryOf(whole.Stats); got != want || resumed.Stats != whole.Stats {
			t.Fatalf("stopped + resumed runs moved telemetry by %+v, the uninterrupted run by %+v", got, want)
		}
	})

	t.Run("checkpoint-every", func(t *testing.T) {
		before := readTelemetry()
		checkpoints := 0
		cp, err := read(ResilientOptions{CheckpointEvery: 7, OnCheckpoint: func(cp Checkpoint) error {
			checkpoints++
			if got, want := readTelemetry().minus(before), telemetryOf(cp.Stats); got != want {
				t.Errorf("at checkpoint %d telemetry moved by %+v, Stats say %+v", checkpoints, got, want)
			}
			return nil
		}}, -1)
		if err != nil {
			t.Fatal(err)
		}
		if checkpoints < 2 || readTelemetry().minus(before) != telemetryOf(cp.Stats) {
			t.Fatalf("%d checkpoints; telemetry moved by %+v, Stats say %+v", checkpoints, readTelemetry().minus(before), telemetryOf(cp.Stats))
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		before := readTelemetry()
		var wg sync.WaitGroup
		var stats [2]Stats
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, s, err := ReadAll(strings.NewReader(input), logrec.Liberty, start)
			if err != nil {
				t.Error(err)
			}
			stats[0] = s
		}()
		go func() {
			defer wg.Done()
			cp, err := read(ResilientOptions{CheckpointEvery: 5, OnCheckpoint: func(Checkpoint) error { return nil }}, -1)
			if err != nil {
				t.Error(err)
			}
			stats[1] = cp.Stats
		}()
		wg.Wait()
		a, b := telemetryOf(stats[0]), telemetryOf(stats[1])
		want := telemetry{a.lines + b.lines, a.parseErrs + b.parseErrs, a.oversized + b.oversized, a.sizes + b.sizes}
		if got := readTelemetry().minus(before); got != want {
			t.Fatalf("two concurrent runs moved telemetry by %+v, their Stats sum to %+v", got, want)
		}
	})
}
