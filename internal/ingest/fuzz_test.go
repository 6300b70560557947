package ingest

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
)

// FuzzReadFunc: on arbitrary byte input the read loop must never panic,
// never error (framing and parsing are total — only real reader
// failures surface), never drop a line, and always preserve what it
// read: one record per framed line, sequence numbers contiguous, and the
// raw form of every non-oversized line intact. A run stopped at a line
// derived from the data and resumed from its checkpoint must deliver
// exactly the uninterrupted run's records and Stats.
func FuzzReadFunc(f *testing.F) {
	f.Add([]byte("Mar  7 14:30:05 ln42 kernel: GM: LANai is not running\n"))
	f.Add([]byte("2005-06-03-15.42.50.363779 R02-M1-N0 RAS KERNEL FATAL data TLB error interrupt\n"))
	f.Add([]byte("2006-03-19 04:11:02 c0-0c1s2 ec_heartbeat_stop warn node heartbeat_fault\n"))
	f.Add([]byte("<6>Mar 19 04:12:00 ddn1 DMT_DINT Failing Disk 2A\n"))
	f.Add([]byte("torn line with no newline"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{0x00, 0xff, 0x0a, 0x7f, 0x0a})
	f.Add(bytes.Repeat([]byte("x"), 300))
	f.Add([]byte("Dec 30 10:00:00 sn300 kernel: a\ngarbage\nJan  2 10:00:00 sn300 kernel: b\nJan  3 10:00:00 sn300 kernel: c\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		systems := logrec.Systems()
		sys := systems[len(data)%len(systems)]
		rd := Reader{System: sys, Start: time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC), MaxLineBytes: 128}
		read := func(opts ResilientOptions, stopAt int) ([]logrec.Record, Checkpoint, error) {
			var recs []logrec.Record
			stop := errors.New("stop")
			cp, err := rd.ReadResilient(context.Background(), bytes.NewReader(data), func(rec logrec.Record) error {
				if len(recs) == stopAt {
					return stop
				}
				recs = append(recs, rec)
				return nil
			}, opts)
			if errors.Is(err, stop) {
				err = nil
			}
			return recs, cp, err
		}
		recs, cp, err := read(ResilientOptions{}, -1)
		if err != nil {
			t.Fatalf("read loop errored on byte input: %v", err)
		}
		stats := cp.Stats
		if len(recs) != stats.Lines {
			t.Fatalf("delivered %d records for %d lines", len(recs), stats.Lines)
		}
		// No line vanishes: the framer must account for every
		// newline-delimited line in the input.
		wantLines := bytes.Count(data, []byte{'\n'})
		if len(data) > 0 && data[len(data)-1] != '\n' {
			wantLines++ // torn tail still delivered
		}
		if stats.Lines != wantLines {
			t.Fatalf("framed %d lines, input has %d", stats.Lines, wantLines)
		}
		if stats.Syslog+stats.RAS+stats.Event != stats.Lines {
			t.Fatalf("dialect counts %+v do not cover every line", stats)
		}
		for i, r := range recs {
			if r.Seq != uint64(i) {
				t.Fatalf("seq[%d] = %d: drop or split detected", i, r.Seq)
			}
			if len(r.Raw) > 128 {
				t.Fatalf("record %d exceeds MaxLineBytes: %d bytes", i, len(r.Raw))
			}
			if !strings.Contains(string(data), r.Raw) && !r.Corrupted {
				t.Fatalf("clean record %d carries raw text not present in input", i)
			}
		}

		// Stop at line k, resume from the checkpoint, compare.
		k := 0
		if len(data) > 0 {
			k = int(data[0]) % (stats.Lines + 1)
		}
		first, stopped, err := read(ResilientOptions{}, k)
		if err != nil {
			t.Fatalf("stopped run: %v", err)
		}
		if stopped.Lines != k || len(first) != k {
			t.Fatalf("run stopped at line %d covers %d lines, delivered %d", k, stopped.Lines, len(first))
		}
		rest, resumed, err := read(ResilientOptions{Resume: &stopped}, -1)
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		if got := append(first, rest...); !reflect.DeepEqual(got, recs) {
			t.Fatalf("stop at %d + resume differs from the uninterrupted run", k)
		}
		if resumed != cp {
			t.Fatalf("stop at %d + resume ends at %+v, uninterrupted at %+v", k, resumed, cp)
		}
	})
}
