package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
)

// The reference walk: the varint walk the column projection replaced,
// kept here with its behaviour unchanged. It decodes records in place
// from the sparse index's seek point on every walk, so it shares
// nothing with the projection but decodeRawAt — which is what
// FuzzSegmentWalk pins the column walks against: the same entries, the
// same SegmentColumns and the same ScanStats, ErrPastBound refusals
// included.

// matchRawRef applies the Kept flag and the body substring to a raw
// record, comparing the body bytes in place.
func (g *segment) matchRawRef(f *Filter, r raw, bodyPat []byte) bool {
	if f.Kept != nil && *f.Kept != (r.flags&entryFlagKept != 0) {
		return false
	}
	return len(bodyPat) == 0 || bytes.Contains(g.blob[r.bodyOff:r.bodyOff+r.bodyLen], bodyPat)
}

func (g *segment) walkRef(f Filter, st *ScanStats, visit func(raw) error) error {
	ords, constrained := g.candidates(f)
	if constrained {
		return g.walkOrdinalsRef(ords, f, st, visit)
	}
	return g.walkRangeRef(f, st, visit)
}

// walkRangeRef walks the time window sequentially, seeking the start
// block through the sparse index and stopping at the first record past
// To.
func (g *segment) walkRangeRef(f Filter, st *ScanStats, visit func(raw) error) error {
	bodyPat := bodyPattern(f)
	var fromN, toN int64
	block := 0
	if !f.From.IsZero() {
		fromN = f.From.UnixNano()
		block = sort.Search(len(g.idxNanos), func(i int) bool { return g.idxNanos[i] >= fromN })
		if block > 0 {
			block--
		}
	}
	if !f.To.IsZero() {
		toN = f.To.UnixNano()
	}
	if block >= len(g.idxOffsets) {
		return nil
	}
	off := g.recordsOff + int(g.idxOffsets[block])
	start := off
	defer func() { st.BytesScanned += int64(off - start) }()
	for ord := block * indexInterval; ord < g.count; ord++ {
		r, next, err := g.decodeRawAt(off)
		if err != nil {
			return err
		}
		off = next
		st.RecordsScanned++
		if toN != 0 && r.nanos >= toN {
			return nil
		}
		if fromN != 0 && r.nanos < fromN {
			continue
		}
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

// walkOrdinalsRef decodes exactly the index blocks containing candidate
// ordinals, sequentially within each block.
func (g *segment) walkOrdinalsRef(ords []uint32, f Filter, st *ScanStats, visit func(raw) error) error {
	bodyPat := bodyPattern(f)
	var fromN, toN int64
	if !f.From.IsZero() {
		fromN = f.From.UnixNano()
	}
	if !f.To.IsZero() {
		toN = f.To.UnixNano()
	}
	i := 0
	for i < len(ords) {
		block := int(ords[i]) / indexInterval
		if toN != 0 && g.idxNanos[block] >= toN {
			return nil
		}
		end := i
		for end < len(ords) && int(ords[end])/indexInterval == block {
			end++
		}
		if fromN != 0 && block+1 < len(g.idxNanos) && g.idxNanos[block+1] < fromN {
			i = end
			continue
		}
		off := g.recordsOff + int(g.idxOffsets[block])
		start := off
		want := ords[i:end]
		for ord := block * indexInterval; len(want) > 0 && ord < g.count; ord++ {
			r, next, err := g.decodeRawAt(off)
			if err != nil {
				return err
			}
			off = next
			st.RecordsScanned++
			if uint32(ord) != want[0] {
				continue
			}
			want = want[1:]
			if (fromN != 0 && r.nanos < fromN) || (toN != 0 && r.nanos >= toN) || !g.matchRawRef(&f, r, bodyPat) {
				continue
			}
			st.Matched++
			if err := visit(r); err != nil {
				return err
			}
		}
		st.BytesScanned += int64(off - start)
		i = end
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

// walkFuzzFilters draws filters over g: time bounds at, one nanosecond
// before and one after index-block starts (and at record times), and
// the Kept flag, a body substring and source/category/severity
// postings, alone and combined.
func walkFuzzFilters(rng *rand.Rand, g *segment, entries []Entry) []Filter {
	var instants []time.Time
	for _, n := range g.idxNanos {
		for _, d := range []int64{-1, 0, 1} {
			instants = append(instants, unixNano(n+d))
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
// cutting at, just before and just after index-block starts, the entry
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
		for i, fl := range walkFuzzFilters(rng, g, entries) {
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
