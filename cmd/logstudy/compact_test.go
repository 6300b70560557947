package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"whatsupersay/internal/shard"
	"whatsupersay/internal/store"
)

// TestAggregateByteIdenticalAcrossCompactionAndCache: for a battery of
// filters, the /api/aggregate "aggregate" payload is byte-identical (a)
// before compaction, (b) after the directory a default serve left behind
// was compacted offline and served again, and (c) on a cache hit —
// compaction and the cache are pure optimizations, never semantics
// changes. The "stats" side channel legitimately reflects the storage
// layout (fewer, larger segments after a merge), so it is pinned only
// between a post-compaction miss and its cache hit, where the store is
// unchanged and the full body must match to the byte.
func TestAggregateByteIdenticalAcrossCompactionAndCache(t *testing.T) {
	entries := studyEntries(t)
	dir := t.TempDir()

	// get returns the full response body and the raw bytes of its
	// "aggregate" field.
	get := func(base string, params url.Values) (body, agg string) {
		t.Helper()
		resp, err := http.Get(base + "/api/aggregate?" + params.Encode())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("aggregate: %d %v: %s", resp.StatusCode, err, raw)
		}
		var fields struct {
			Aggregate json.RawMessage `json:"aggregate"`
		}
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatalf("aggregate response is not JSON: %v: %s", err, raw)
		}
		return string(raw), string(fields.Aggregate)
	}

	batteries := []url.Values{
		{},
		{"category": {entries[0].Category}},
		{"kept": {"true"}},
		{"topk": {"3"}, "quantiles": {"0.5,0.95"}},
		{"source": {entries[0].Record.Source}},
	}

	c := flat.create(t, dir, shard.Options{Store: store.Options{FlushEvery: len(entries)/6 + 1}})
	if _, err := c.Append(entries); err != nil {
		t.Fatal(err)
	}
	srv := serveCluster(t, c, apiOptions{})
	before := make([]string, len(batteries))
	for i, p := range batteries {
		_, before[i] = get(srv.URL, p)
	}
	segsBefore := c.Health()[0].Segments
	srv.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"compact", "-dir", dir}, &out); err != nil || !strings.Contains(out.String(), "compacted") {
		t.Fatalf("compact over the served directory: %v: %s", err, out.String())
	}

	c, _, err := shard.Open(dir, shard.Options{CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if got := c.Health()[0].Segments; got >= segsBefore {
		t.Fatalf("compaction did not restructure the store: %d segments, then %d", segsBefore, got)
	}
	srv = serveCluster(t, c, apiOptions{})
	for i, p := range batteries {
		missBody, afterCompact := get(srv.URL, p) // recomputed from the merged layout
		if afterCompact != before[i] {
			t.Errorf("battery %d: aggregate changed across compaction\nbefore: %s\nafter:  %s", i, before[i], afterCompact)
		}
		hitBody, cacheHit := get(srv.URL, p) // unchanged store: served from the cache
		if cacheHit != before[i] {
			t.Errorf("battery %d: cache hit aggregate diverges\nmiss: %s\nhit:  %s", i, before[i], cacheHit)
		}
		if hitBody != missBody {
			t.Errorf("battery %d: cached full body (stats included) diverges from its miss\nmiss: %s\nhit:  %s", i, missBody, hitBody)
		}
	}
	if hits, misses := c.CacheStats(); hits != int64(len(batteries)) || misses != int64(len(batteries)) {
		t.Errorf("cache saw %d hits, %d misses; want %d of each", hits, misses, len(batteries))
	}
}

// TestIngestBodyLimitReturns413 pins the -max-body contract: an
// oversized POST /api/ingest is rejected with 413 and a JSON error, and
// nothing from it reaches the store.
func TestIngestBodyLimitReturns413(t *testing.T) {
	c := flat.create(t, t.TempDir(), shard.Options{})
	srv := serveCluster(t, c, apiOptions{MaxBody: 512})

	big := strings.Repeat("x", 2048)
	resp, err := http.Post(srv.URL+"/api/ingest", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("413 body is not a JSON error: %s", body)
	}
	if c.Len() != 0 {
		t.Fatalf("rejected body reached the store: %d entries", c.Len())
	}

	// A body under the cap still works end to end.
	resp, err = http.Post(srv.URL+"/api/ingest", "text/plain", strings.NewReader("not a log line\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body rejected: %d", resp.StatusCode)
	}
}

// TestCompactCommand drives the subcommand end to end: build a store
// with many small segments, compact it, and check the inventory shrank
// without changing the served aggregate.
func TestCompactCommand(t *testing.T) {
	dir := t.TempDir() + "/alerts"
	if err := run(testArgs("build-store", "-system", "liberty", "-dir", dir, "-flush-every", "300"), io.Discard); err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	segsBefore := len(st.Segments())
	wantEntries := st.Len()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if segsBefore < 2 {
		t.Fatalf("fixture store too coarse: %d segments", segsBefore)
	}

	var b strings.Builder
	if err := run([]string{"compact", "-dir", dir}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "compacted") {
		t.Fatalf("no compaction summary: %s", b.String())
	}

	st2, rep, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rep.SupersededSegments != 0 || rep.TailDedupedEntries != 0 {
		t.Fatalf("compact left recovery work: %+v", rep)
	}
	if got := len(st2.Segments()); got >= segsBefore {
		t.Fatalf("segments %d, want fewer than %d", got, segsBefore)
	}
	if st2.Len() != wantEntries {
		t.Fatalf("entries %d, want %d", st2.Len(), wantEntries)
	}

	// Usage contract: missing -dir is exit-code-2 material.
	if err := run([]string{"compact"}, io.Discard); err == nil {
		t.Error("missing -dir must error")
	}
}
