package tag

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/logrec"
)

// benchRecords builds a synthetic record stream for one system without
// pulling in the full generator: alertFrac of the records carry bodies
// drawn from the system's own categories (matching lines), the rest a
// benign body no rule matches (non-matching lines).
func benchRecords(sys logrec.System, n int, alertFrac float64, seed int64) []logrec.Record {
	rng := rand.New(rand.NewSource(seed))
	cats := catalog.BySystem(sys)
	recs := make([]logrec.Record, n)
	base := time.Date(2005, time.June, 1, 0, 0, 0, 0, time.UTC)
	for i := range recs {
		r := logrec.Record{
			System: sys,
			Time:   base.Add(time.Duration(i) * time.Second),
			Source: fmt.Sprintf("n%d", rng.Intn(512)),
			Seq:    uint64(i),
		}
		if rng.Float64() < alertFrac {
			c := cats[rng.Intn(len(cats))]
			r.Body = c.Gen(rng)
			r.Facility = c.Facility
			r.Program = c.Program
			r.Severity = c.Severity
		} else {
			r.Body = fmt.Sprintf("session opened for user user%d by (uid=0)", rng.Intn(400))
			r.Program = "sshd"
		}
		recs[i] = r
	}
	return recs
}

// TestTagAllMatchesSerial: TagAll returns exactly what tagging each
// record on its own returns — same alerts, same order — for every
// system, on a stream long enough that the result grows many times.
func TestTagAllMatchesSerial(t *testing.T) {
	for _, sys := range logrec.Systems() {
		tg := NewTagger(sys)
		recs := benchRecords(sys, 20000, 0.2, int64(sys))
		var want []Alert
		for i := range recs {
			if c, ok := tg.Tag(&recs[i]); ok {
				want = append(want, Alert{Record: recs[i], Category: c})
			}
		}
		if len(want) == 0 {
			t.Fatalf("%v: no alerts in bench stream", sys)
		}
		got := tg.TagAll(recs)
		if len(got) != len(want) {
			t.Fatalf("%v: %d alerts, want %d", sys, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: alert %d diverged (seq %d/%d cat %s/%s)",
					sys, i, got[i].Record.Seq, want[i].Record.Seq,
					got[i].Category.Name, want[i].Category.Name)
			}
		}
	}
}

// BenchmarkTagger times Tag per system on matching and non-matching
// lines separately: the non-matching case is the prefilter's win (the
// regexp engine never runs), the matching case its overhead ceiling.
func BenchmarkTagger(b *testing.B) {
	for _, sys := range logrec.Systems() {
		tg := NewTagger(sys)
		match := benchRecords(sys, 4096, 1, 17)
		miss := benchRecords(sys, 4096, 0, 17)
		b.Run(sys.ShortName()+"/match", func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				if _, ok := tg.Tag(&match[i%len(match)]); ok {
					hits++
				}
			}
			if hits == 0 {
				b.Fatal("no matches in matching stream")
			}
		})
		b.Run(sys.ShortName()+"/miss", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := tg.Tag(&miss[i%len(miss)]); ok {
					b.Fatal("match in non-matching stream")
				}
			}
		})
	}
}

// BenchmarkTagAll times the full scan.
func BenchmarkTagAll(b *testing.B) {
	tg := NewTagger(logrec.Spirit)
	recs := benchRecords(logrec.Spirit, 100000, 0.15, 5)
	for i := 0; i < b.N; i++ {
		tg.TagAll(recs)
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
