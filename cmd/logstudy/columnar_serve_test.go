package main

import (
	"net/url"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/shard"
	"whatsupersay/internal/store"
)

// HTTP-layer columnar differential: the /api/aggregate answer of the
// served cluster (whose per-shard engines fold every aggregate from the
// columnar scan) must equal, byte for byte, what the row-decode
// reference — decodeAggregate: select everything, then the pure
// query.Aggregate — computes over the same records, for every filter
// the API can express, the body predicate included.

// columnarParams is the query matrix for the HTTP differentials. The
// body= cases cover a needle in every record, in some, in none, and
// combined with each other kind of predicate.
func columnarParams(entries []store.Entry) []url.Values {
	midEntry := entries[len(entries)/2]
	mid := midEntry.Record.Time
	late := entries[3*len(entries)/4].Record.Time
	kept := entries[0].Category
	needle := midEntry.Record.Body
	if len(needle) > 8 {
		needle = needle[:8]
	}
	return []url.Values{
		{},
		{"category": {kept}},
		{"source": {entries[0].Record.Source}},
		{"kept": {"true"}},
		{"from": {mid.Format(time.RFC3339Nano)}, "to": {late.Format(time.RFC3339Nano)}},
		{"topk": {"3"}, "quantiles": {"0.5,0.95"}},
		{"body": {"."}},
		{"body": {"no such substring anywhere"}},
		{"body": {"."}, "kept": {"true"}},
		{"body": {needle}},
		{"body": {needle}, "category": {midEntry.Category}},
		{"body": {"."}, "from": {mid.Format(time.RFC3339Nano)}, "to": {late.Format(time.RFC3339Nano)}, "source": {midEntry.Record.Source}},
	}
}

// TestAggregateColumnarMatchesDecodeOverHTTP serves a multi-segment
// store directory in place and pins every answer to the decode
// reference taken from that very directory, scan accounting included:
// columnar and decode walk the same segments.
func TestAggregateColumnarMatchesDecodeOverHTTP(t *testing.T) {
	entries := studyEntries(t)
	dir := t.TempDir()
	st, err := store.Create(dir, logrec.Liberty, store.Options{FlushEvery: len(entries)/3 + 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	checkServedInPlace(t, dir, columnarParams(entries))
}

// TestBodyFilterOverHTTP checks the body predicate against the linear
// reference: the filtered total must equal a direct count over the
// entries, and must be a strict subset when the substring is selective.
func TestBodyFilterOverHTTP(t *testing.T) {
	entries := studyEntries(t)
	srv, _ := newTestServer(t, flat, entries, shard.Options{})

	// Pick a substring that matches some but not all bodies.
	needle := entries[0].Record.Body
	if len(needle) > 8 {
		needle = needle[:8]
	}
	f := store.Filter{BodyContains: needle}
	want := 0
	for _, en := range entries {
		if matchesFilter(f, en) {
			want++
		}
	}

	var resp struct {
		Aggregate struct {
			Total int `json:"total"`
		} `json:"aggregate"`
	}
	getJSON(t, srv.URL+"/api/aggregate?body="+url.QueryEscape(needle), &resp)
	if resp.Aggregate.Total != want {
		t.Fatalf("body filter total = %d, linear reference = %d", resp.Aggregate.Total, want)
	}
	getJSON(t, srv.URL+"/api/aggregate?body="+url.QueryEscape("no such substring anywhere"), &resp)
	if resp.Aggregate.Total != 0 {
		t.Fatalf("impossible body filter matched %d entries", resp.Aggregate.Total)
	}
}

// TestShardedAggregateMatchesDecodeReference is the columnar differential
// across layouts and shard counts, against the decode reference over one
// in-process store holding the same entries — byte equality of the
// aggregate for every query shape, body predicates included.
func TestShardedAggregateMatchesDecodeReference(t *testing.T) {
	entries := studyEntries(t)
	st, err := store.Create(t.TempDir(), logrec.Liberty, store.Options{FlushEvery: len(entries)/3 + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(entries...); err != nil {
		t.Fatal(err)
	}
	params := columnarParams(entries)
	want := make([]string, len(params))
	for i, p := range params {
		_, want[i], _ = decodeAggregate(t, st, p)
	}

	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			srv, _ := newTestServer(t, l, entries, shard.Options{})
			for i, p := range params {
				var got aggResponse
				getJSON(t, srv.URL+"/api/aggregate?"+p.Encode(), &got)
				if got.Partial {
					t.Fatalf("%q: partial answer on a healthy cluster", p.Encode())
				}
				if string(got.Aggregate) != want[i] {
					t.Errorf("%q: served aggregate diverges from decode reference\nserved: %s\ndecode: %s",
						p.Encode(), got.Aggregate, want[i])
				}
			}
		})
	}
}
