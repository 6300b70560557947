package main

import (
	"net/url"
	"strings"
	"testing"
	"time"
)

// fakeContent has 10,000 alerts: a quiet tenth spread over most of the
// span and a storm holding the rest in one hour.
func fakeContent() *content {
	first := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	var times []int64
	for i := 0; i < 1000; i++ {
		times = append(times, first+int64(i)*8000)
	}
	storm := times[len(times)-1] + 8000
	for i := 0; i < 9000; i++ {
		times = append(times, storm+int64(i)*3600/9000)
	}
	return &content{
		times:      times,
		sources:    []string{"sn1", "sn2", "sadmin2"},
		categories: []string{"EXT_FS", "PBS_CHK"},
		words:      []string{"error", "panic"},
	}
}

// The history mix is 2:1:2, every window is distinct (so the aggregate
// cache cannot answer any of them) and holds 10-20 % of the alerts,
// storm or no storm. Three operations in four of a class have its main
// shape.
func TestWindowQueriesMixAndWindows(t *testing.T) {
	ct := fakeContent()
	ops := ct.windowQueries(1, 0, 500)
	count := map[string]int{}
	shape := map[string]int{}
	paths := map[string]bool{}
	for _, op := range ops {
		count[op.class]++
		paths[op.path] = true
		switch {
		case op.class == classAgg && len(op.filter.Categories) == 0,
			op.class == classSelect && op.filter.Kept != nil,
			op.class == classAggBody && op.filter.BodyContains != "":
			shape[op.class]++
		}
		held := 0
		for _, ts := range ct.times {
			at := time.Unix(ts, 0)
			if !at.Before(op.filter.From) && at.Before(op.filter.To) {
				held++
			}
			if at.Equal(op.filter.From) || at.Equal(op.filter.To) {
				t.Errorf("%s: an alert sits on a window boundary", op.path)
			}
		}
		// Alerts sharing the window's last second are cut off, and those
		// sharing its first are all let in: three a second in the storm.
		if held < 1000-3 || held > 2000+3 {
			t.Errorf("%s: window holds %d of %d alerts, want 10-20%%", op.path, held, len(ct.times))
		}
	}
	if count[classAgg] != 200 || count[classAggBody] != 100 || count[classSelect] != 200 {
		t.Errorf("mix %v, want agg:agg_body:select = 200:100:200", count)
	}
	if shape[classAgg] != 150 || shape[classSelect] != 150 || shape[classAggBody] != 100 {
		t.Errorf("main shapes %v, want three in four aggregates plain and selects kept=true, every agg_body with a word", shape)
	}
	if len(paths) != len(ops) {
		t.Errorf("%d distinct requests in %d: the cache could answer a repeat", len(paths), len(ops))
	}
	if again := ct.windowQueries(1, 0, 500); again[17].path != ops[17].path {
		t.Error("the same seed and repetition gave different queries")
	}
	if other := ct.windowQueries(2, 0, 500); other[17].path == ops[17].path {
		t.Error("another seed gave the same queries")
	}
	if next := ct.windowQueries(1, 1, 500); next[17].path == ops[17].path {
		t.Error("another repetition gave the same queries")
	}
}

// The mixed stream is the windowed mix with a dashboard tile after every
// tilePeriod operations, asked twice in a row, the six tiles in turn.
func TestStreamQueriesTiles(t *testing.T) {
	ops := fakeContent().streamQueries(1, 0, 120)
	if want := 120 + 2*(120/tilePeriod); len(ops) != want {
		t.Fatalf("%d operations, want %d", len(ops), want)
	}
	tiles := map[string]int{}
	pinned := 0
	for i, op := range ops {
		isTile := i%(tilePeriod+2) >= tilePeriod
		if isTile != (op.class == classOther) {
			t.Fatalf("operation %d is class %s", i, op.class)
		}
		if !isTile {
			continue
		}
		tiles[op.path]++
		if i%(tilePeriod+2) == tilePeriod {
			if ops[i+1].path != op.path {
				t.Errorf("tile %s at %d is not asked twice in a row", op.path, i)
			}
			if len(op.filter.Sources) == 1 {
				pinned++
			}
		}
	}
	if len(tiles) != 6 || pinned != 4 {
		t.Errorf("tiles %v with %d source-pinned asks, want six tiles, each asked two times two, two of them source-pinned", tiles, pinned)
	}
	for path, n := range tiles {
		if n != 4 {
			t.Errorf("tile %s asked %d times in two rounds, want 4", path, n)
		}
	}
}

// The URL and the in-process filter are two renderings of one request:
// what the oracle compares is only equal if they say the same thing.
func TestMakeOpRendersURLAndFilterAlike(t *testing.T) {
	from := time.Date(2005, 3, 1, 12, 0, 0, 0, time.UTC)
	op := makeOp(classSelect, queryParams{from: from, to: from.Add(time.Hour), source: "sn1", category: "EXT_FS", body: "disk full", kept: true, limit: 50})
	path, raw, _ := strings.Cut(op.path, "?")
	if path != "/api/query" {
		t.Errorf("path %q, want /api/query for a limit", path)
	}
	v, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	f := op.filter
	if v.Get("from") != f.From.Format(time.RFC3339Nano) || v.Get("to") != f.To.Format(time.RFC3339Nano) ||
		v.Get("source") != f.Sources[0] || v.Get("category") != f.Categories[0] ||
		v.Get("body") != f.BodyContains || v.Get("kept") != "true" || f.Kept == nil || !*f.Kept ||
		v.Get("limit") != "50" || op.limit != 50 {
		t.Errorf("URL %q and filter %+v disagree", op.path, f)
	}
	if got := makeOp(classAgg, queryParams{}).path; got != "/api/aggregate" {
		t.Errorf("empty request renders as %q", got)
	}
}

func TestFingerprintCoversBodiesQueriesAndSchedule(t *testing.T) {
	bodies := [][]byte{[]byte("a\n"), []byte("b\n")}
	ops := []queryOp{{path: "/api/aggregate"}}
	base := fingerprint(bodies, ops, "s")
	for name, other := range map[string]string{
		"body":     fingerprint([][]byte{[]byte("a\n"), []byte("c\n")}, ops, "s"),
		"batching": fingerprint([][]byte{[]byte("a\nb\n")}, ops, "s"),
		"query":    fingerprint(bodies, []queryOp{{path: "/api/query"}}, "s"),
		"schedule": fingerprint(bodies, ops, "t"),
	} {
		if other == base {
			t.Errorf("changing the %s did not change the fingerprint", name)
		}
	}
	if fingerprint(bodies, ops, "s") != base {
		t.Error("fingerprint is not a function of its input")
	}
}
