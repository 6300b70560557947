package logrec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSystemString(t *testing.T) {
	want := map[System]string{
		BlueGeneL:   "Blue Gene/L",
		Thunderbird: "Thunderbird",
		RedStorm:    "Red Storm",
		Spirit:      "Spirit",
		Liberty:     "Liberty",
	}
	for sys, name := range want {
		if got := sys.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", int(sys), got, name)
		}
	}
	if got := System(99).String(); got != "System(99)" {
		t.Errorf("unknown system String() = %q", got)
	}
}

func TestSystemsOrder(t *testing.T) {
	systems := Systems()
	if len(systems) != 5 {
		t.Fatalf("Systems() returned %d systems, want 5", len(systems))
	}
	want := []System{BlueGeneL, Thunderbird, RedStorm, Spirit, Liberty}
	for i, sys := range systems {
		if sys != want[i] {
			t.Errorf("Systems()[%d] = %v, want %v", i, sys, want[i])
		}
	}
}

func TestParseSystem(t *testing.T) {
	cases := []struct {
		in      string
		want    System
		wantErr bool
	}{
		{"bgl", BlueGeneL, false},
		{"Blue Gene/L", BlueGeneL, false},
		{"BLUE GENE/L", BlueGeneL, false},
		{"tbird", Thunderbird, false},
		{"redstorm", RedStorm, false},
		{"Red Storm", RedStorm, false},
		{"spirit", Spirit, false},
		{"  liberty  ", Liberty, false},
		{"asci-red", 0, true},
		{"", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseSystem(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSystem(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSystem(%q) error: %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSystem(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestShortNameRoundTrip(t *testing.T) {
	for _, sys := range Systems() {
		got, err := ParseSystem(sys.ShortName())
		if err != nil {
			t.Fatalf("ParseSystem(%q): %v", sys.ShortName(), err)
		}
		if got != sys {
			t.Errorf("round trip via ShortName: got %v, want %v", got, sys)
		}
	}
}

func TestRecordBefore(t *testing.T) {
	t0 := time.Date(2005, 6, 3, 0, 0, 0, 0, time.UTC)
	a := Record{Time: t0, Seq: 1}
	b := Record{Time: t0.Add(time.Second), Seq: 0}
	c := Record{Time: t0, Seq: 2}
	if !a.Before(&b) {
		t.Error("earlier time should sort first")
	}
	if b.Before(&a) {
		t.Error("Before must not be symmetric for distinct times")
	}
	if !a.Before(&c) {
		t.Error("same time: lower Seq should sort first")
	}
	if a.Before(&a) {
		t.Error("a record must not be before itself")
	}
}

func TestSortRecords(t *testing.T) {
	t0 := time.Date(2005, 6, 3, 0, 0, 0, 0, time.UTC)
	recs := []Record{
		{Time: t0.Add(3 * time.Second), Seq: 0},
		{Time: t0, Seq: 2},
		{Time: t0, Seq: 1},
		{Time: t0.Add(time.Second), Seq: 3},
	}
	SortRecords(recs)
	if !IsSorted(recs) {
		t.Fatal("SortRecords did not produce sorted output")
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Errorf("tie-break by Seq failed: got seqs %d,%d", recs[0].Seq, recs[1].Seq)
	}
}

func TestSortRecordsPropertyIdempotentAndOrdered(t *testing.T) {
	base := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	f := func(offsets []int16, seqs []uint16) bool {
		n := len(offsets)
		if len(seqs) < n {
			n = len(seqs)
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{Time: base.Add(time.Duration(offsets[i]) * time.Second), Seq: uint64(seqs[i])}
		}
		SortRecords(recs)
		if !IsSorted(recs) {
			return false
		}
		// Idempotent: sorting again changes nothing.
		again := make([]Record, len(recs))
		copy(again, recs)
		SortRecords(again)
		for i := range recs {
			if !recs[i].Time.Equal(again[i].Time) || recs[i].Seq != again[i].Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestSortRecordsMatchesReference: SortRecords returns exactly the
// records a general sort returns — sorted input, a few zero-time
// stragglers (corrupted lines), a few stragglers anywhere, a late spike
// that strands everything after it, and input in no order at all.
func TestSortRecordsMatchesReference(t *testing.T) {
	base := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func(i, n int) time.Time{
		"sorted": func(i, n int) time.Time { return base.Add(time.Duration(i/3) * time.Second) },
		"zero stragglers": func(i, n int) time.Time {
			if rng.Intn(100) == 0 {
				return time.Time{}
			}
			return base.Add(time.Duration(i/3) * time.Second)
		},
		"stragglers anywhere": func(i, n int) time.Time {
			if rng.Intn(100) == 0 {
				return base.Add(time.Duration(rng.Intn(n)) * time.Second)
			}
			return base.Add(time.Duration(i) * time.Second)
		},
		"late spike": func(i, n int) time.Time {
			if i == n/3 {
				return base.Add(time.Duration(2*n) * time.Second)
			}
			return base.Add(time.Duration(i) * time.Second)
		},
		"random": func(i, n int) time.Time { return base.Add(time.Duration(rng.Intn(50)) * time.Second) },
	}
	for name, at := range shapes {
		for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 5000} {
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = Record{Time: at(i, n), Seq: uint64(i), Body: fmt.Sprint(i)}
			}
			want := append([]Record(nil), recs...)
			sort.Slice(want, func(i, j int) bool { return want[i].Before(&want[j]) })
			SortRecords(recs)
			for i := range recs {
				if recs[i] != want[i] {
					t.Fatalf("%s n=%d: record %d is %s, want %s", name, n, i, recs[i].Key(), want[i].Key())
				}
			}
		}
	}
}

func TestRecordKeyAndClone(t *testing.T) {
	r := Record{
		Time: time.Unix(1117800000, 0).UTC(), Seq: 7,
		System: Spirit, Source: "sn373", Body: "x",
	}
	c := r.Clone()
	c.Body = "y"
	if r.Body != "x" {
		t.Error("Clone must not share mutable state")
	}
	if got := r.Key(); got != "spirit/sn373@1117800000#7" {
		t.Errorf("Key() = %q", got)
	}
}
