package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
)

// The reference walk: a sequential varint decode of the whole segment
// on every walk. It decides each record's time window and postings
// membership from the record's own decoded fields, so it shares nothing
// with the column projection or the posting sets but decodeRawAt —
// which is what FuzzSegmentWalk pins the column walks against: the same
// entries, the same SegmentColumns and the same ScanStats, ErrPastBound
// refusals included. The stats it derives are the records a walk
// examines, each with its encoded bytes, through a refusal: every
// record in the window for a filter naming no postings dimension, the
// window's candidates for one that does.

// matchRawRef applies the Kept flag and the body substring to a raw
// record, comparing the body bytes in place.
func (g *segment) matchRawRef(f *Filter, r raw, bodyPat []byte) bool {
	if f.Kept != nil && *f.Kept != (r.flags&entryFlagKept != 0) {
		return false
	}
	return len(bodyPat) == 0 || bytes.Contains(g.blob[r.bodyOff:r.bodyOff+r.bodyLen], bodyPat)
}

// candidateRef reports whether r is a candidate of the filter's
// postings dimensions (every record is, for a filter naming none).
func (g *segment) candidateRef(f *Filter, r raw) bool {
	return (len(f.Sources) == 0 || slices.Contains(f.Sources, g.sources[r.srcID])) &&
		(len(f.Categories) == 0 || slices.Contains(f.Categories, g.categories[r.catID])) &&
		(len(f.Severities) == 0 || slices.Contains(f.Severities, r.sev))
}

func (g *segment) walkRef(f Filter, st *ScanStats, visit func(raw) error) error {
	bodyPat := bodyPattern(f)
	off := g.recordsOff
	for ord := 0; ord < g.count; ord++ {
		r, next, err := g.decodeRawAt(off)
		if err != nil {
			return err
		}
		size := next - off
		off = next
		if !f.To.IsZero() && r.nanos >= f.To.UnixNano() {
			return nil // records are time-ordered: nothing later is inside
		}
		if (!f.From.IsZero() && r.nanos < f.From.UnixNano()) || !g.candidateRef(&f, r) {
			continue
		}
		st.RecordsScanned++
		st.BytesScanned += int64(size)
		if !g.matchRawRef(&f, r, bodyPat) {
			continue
		}
		st.Matched++
		if err := visit(r); err != nil {
			return err
		}
	}
	return nil
}

func (g *segment) scanRef(f Filter, st *ScanStats, bound *int64, emit func(Entry) error) error {
	return g.walkRef(f, st, func(r raw) error { return lowerBound(emit(g.materialize(r)), r.nanos, bound) })
}

func (g *segment) scanColumnsRef(f Filter, st *ScanStats, sc *SegmentColumns) error {
	return g.walkRef(f, st, func(r raw) error {
		sc.Matched++
		if r.flags&entryFlagKept != 0 {
			sc.Kept++
		}
		sc.SrcCounts[r.srcID]++
		sc.CatCounts[r.catID]++
		for int(r.sev) >= len(sc.SevCounts) {
			sc.SevCounts = append(sc.SevCounts, 0)
		}
		sc.SevCounts[r.sev]++
		sc.Times = append(sc.Times, r.nanos)
		return nil
	})
}

// walkFuzzEntries generates n canonically sorted entries. ties (0-255)
// is the chance, in 256ths, that a record shares its predecessor's
// timestamp; other gaps are whole seconds or arbitrary nanoseconds.
func walkFuzzEntries(rng *rand.Rand, n int, ties uint8) []Entry {
	sources := []string{"sn373", "admin1", "cn12", "cn13", "sm0"}
	cats := []string{"ECC", "KERNDTLB", "PBS_CON", "GM_PAR"}
	sevs := []logrec.Severity{logrec.SeverityUnknown, logrec.SevErr, logrec.SevFatal, logrec.SevInfo}
	words := []string{"needle", "hay", "PANIC", ""}
	cur := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case rng.Intn(256) < int(ties):
		case rng.Intn(2) == 0:
			cur = cur.Add(time.Duration(1+rng.Intn(3)) * time.Second)
		default:
			cur = cur.Add(time.Duration(1 + rng.Int63n(int64(2*time.Second))))
		}
		out = append(out, Entry{
			Record: logrec.Record{
				Seq:       uint64(i),
				Time:      cur,
				System:    logrec.Thunderbird,
				Source:    sources[rng.Intn(len(sources))],
				Severity:  sevs[rng.Intn(len(sevs))],
				Program:   "kernel",
				Facility:  "kern",
				Body:      fmt.Sprintf("body %d %s", i, words[rng.Intn(len(words))]),
				Corrupted: rng.Intn(10) == 0,
			},
			Category: cats[rng.Intn(len(cats))],
			Kept:     rng.Intn(3) == 0,
		})
	}
	sortEntries(out)
	return out
}

// walkFuzzFilters draws filters over entries: time bounds at, one
// nanosecond before and one after every 64th record's time (and at
// random record times), and the Kept flag, a body substring and
// source/category/severity postings, alone and combined.
func walkFuzzFilters(rng *rand.Rand, entries []Entry) []Filter {
	var instants []time.Time
	for i := 0; i < len(entries); i += 64 {
		for _, d := range []time.Duration{-1, 0, 1} {
			instants = append(instants, entries[i].Record.Time.Add(d))
		}
	}
	for i := 0; i < 4; i++ {
		instants = append(instants, entries[rng.Intn(len(entries))].Record.Time)
	}
	pickTime := func() time.Time {
		if rng.Intn(3) == 0 {
			return time.Time{}
		}
		return instants[rng.Intn(len(instants))]
	}
	yes, no := true, false
	dims := []func(*Filter){
		func(f *Filter) { f.Kept = &yes },
		func(f *Filter) { f.Kept = &no },
		func(f *Filter) { f.BodyContains = "needle" },
		func(f *Filter) { f.BodyContains = "no such body" },
		func(f *Filter) { f.Sources = []string{"cn12"} },
		func(f *Filter) { f.Sources = []string{"sm0", "absent", "sn373"} },
		func(f *Filter) { f.Categories = []string{"ECC"} },
		func(f *Filter) { f.Categories = []string{"absent"} },
		func(f *Filter) { f.Severities = []logrec.Severity{logrec.SevFatal} },
		func(f *Filter) { f.Severities = []logrec.Severity{logrec.SevErr, logrec.SeverityUnknown} },
	}
	var out []Filter
	for _, dim := range append(dims, func(*Filter) {}) {
		for i := 0; i < 3; i++ {
			f := Filter{From: pickTime(), To: pickTime()}
			dim(&f)
			out = append(out, f)
		}
	}
	for i := 0; i < 24; i++ {
		f := Filter{From: pickTime(), To: pickTime()}
		for _, d := range rng.Perm(len(dims))[:1+rng.Intn(3)] {
			dims[d](&f)
		}
		out = append(out, f)
	}
	return out
}

// walkOutcome is everything one segment walk reports.
type walkOutcome struct {
	Entries []Entry
	Cols    *SegmentColumns
	Stats   ScanStats
	Bound   int64
	Err     error
}

// FuzzSegmentWalk pins the column walks to the reference walk: for
// random sealed segments (many equal timestamps included) and filters
// cutting at, just before and just after every 64th record, the entry
// scan — unbounded and refusing with ErrPastBound from its k-th entry
// on — and the columnar fold must report exactly what the reference
// does.
func FuzzSegmentWalk(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(0), uint8(3))
	f.Add(int64(2), uint16(64), uint8(200), uint8(0))
	f.Add(int64(3), uint16(129), uint8(255), uint8(1))
	f.Add(int64(4), uint16(1), uint8(0), uint8(0))
	f.Add(int64(5), uint16(300), uint8(128), uint8(7))
	f.Add(int64(6), uint16(193), uint8(240), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, ties, refuseAfter uint8) {
		rng := rand.New(rand.NewSource(seed))
		entries := walkFuzzEntries(rng, 1+int(n)%600, ties)
		g, err := parseSegment("fuzz.seg", buildSegment(logrec.Thunderbird, entries))
		if err != nil {
			t.Fatal(err)
		}
		for i, fl := range walkFuzzFilters(rng, entries) {
			for _, limit := range []int{0, 1 + int(refuseAfter)%40} {
				scan := func(walk func(Filter, *ScanStats, *int64, func(Entry) error) error) walkOutcome {
					o := walkOutcome{Bound: 1<<63 - 1}
					o.Err = walk(fl, &o.Stats, &o.Bound, func(en Entry) error {
						o.Entries = append(o.Entries, en)
						if limit > 0 && len(o.Entries) >= limit {
							return ErrPastBound
						}
						return nil
					})
					return o
				}
				got, want := scan(g.scan), scan(g.scanRef)
				if !errors.Is(got.Err, want.Err) || !reflect.DeepEqual(got.Entries, want.Entries) ||
					got.Stats != want.Stats || got.Bound != want.Bound {
					t.Fatalf("filter %d %+v, limit %d: scan diverged\ngot:  %d entries %+v bound %d err %v\nwant: %d entries %+v bound %d err %v",
						i, fl, limit, len(got.Entries), got.Stats, got.Bound, got.Err,
						len(want.Entries), want.Stats, want.Bound, want.Err)
				}
			}
			fold := func(walk func(Filter, *ScanStats, *SegmentColumns) error) walkOutcome {
				o := walkOutcome{Cols: newSegmentColumns(g)}
				o.Err = walk(fl, &o.Stats, o.Cols)
				return o
			}
			got, want := fold(g.scanColumns), fold(g.scanColumnsRef)
			if got.Err != nil || want.Err != nil || !reflect.DeepEqual(got.Cols, want.Cols) || got.Stats != want.Stats {
				t.Fatalf("filter %d %+v: columnar fold diverged\ngot:  %+v %+v err %v\nwant: %+v %+v err %v",
					i, fl, got.Stats, got.Cols, got.Err, want.Stats, want.Cols, want.Err)
			}
		}
	})
}

// TestWalkCountsExaminedRecords: a walk's ScanStats count the records
// it examined. A filter naming only postings examines exactly its
// candidates, so it reports RecordsScanned == Matched; a time-only
// window examines exactly the records inside it, hi - lo of them — on
// the entry scan and the columnar fold alike.
func TestWalkCountsExaminedRecords(t *testing.T) {
	entries := walkFuzzEntries(rand.New(rand.NewSource(7)), 500, 96)
	g, err := parseSegment("stats.seg", buildSegment(logrec.Thunderbird, entries))
	if err != nil {
		t.Fatal(err)
	}
	walks := func(f Filter) []ScanStats {
		var row, col ScanStats
		bound := int64(1<<63 - 1)
		if err := g.scan(f, &row, &bound, func(Entry) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := g.scanColumns(f, &col, newSegmentColumns(g)); err != nil {
			t.Fatal(err)
		}
		return []ScanStats{row, col}
	}
	for _, f := range []Filter{
		{Sources: []string{"cn12"}},
		{Categories: []string{"ECC", "GM_PAR"}},
		{Severities: []logrec.Severity{logrec.SevFatal}},
		{Sources: []string{"sm0"}, Categories: []string{"PBS_CON"}},
	} {
		for _, st := range walks(f) {
			if st.Matched == 0 || st.RecordsScanned != st.Matched || st.BytesScanned <= 0 {
				t.Errorf("postings-only %+v: %+v, want RecordsScanned == Matched > 0", f, st)
			}
		}
	}
	from, to := entries[130].Record.Time, entries[390].Record.Time.Add(time.Nanosecond)
	var lo, hi int
	for _, en := range entries {
		if en.Record.Time.Before(from) {
			lo++
		}
		if en.Record.Time.Before(to) {
			hi++
		}
	}
	for _, st := range walks(Filter{From: from, To: to}) {
		if st.RecordsScanned != hi-lo || st.Matched != hi-lo {
			t.Errorf("window [%d, %d): %+v, want %d records examined and matched", lo, hi, st, hi-lo)
		}
	}
}
