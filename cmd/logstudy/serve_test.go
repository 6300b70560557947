package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"whatsupersay/internal/cluster"
	"whatsupersay/internal/core"
	"whatsupersay/internal/faultinject/shardfault"
	"whatsupersay/internal/filter"
	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/query"
	"whatsupersay/internal/shard"
	"whatsupersay/internal/simulate"
	"whatsupersay/internal/store"
	"whatsupersay/internal/tag"
)

// The differential contract under test: every /api/aggregate response
// must be byte-identical to running query.Aggregate over the batch
// pipeline's output (store.FromAlerts of the study's alerts) on the
// same records, whatever shape the directory behind the server has.
// The store, the shard router and the HTTP layer are an optimization,
// never a semantics change — and when shards fail, responses stay HTTP
// 200 with partial:true and coverage that accounts for every shard,
// until none answers (503).

const testScale = 0.00005

// layout is one on-disk shape serve must answer identically over.
type layout struct {
	name   string
	shards int
	// manifest puts the single shard behind a CLUSTER file in shard-00/,
	// the layout one-shard clusters had before the flat one.
	manifest bool
}

// layouts is the table every serve differential runs over; flat is the
// shape a plain `serve -system X` and `build-store` both leave on disk.
var (
	flat       = layout{name: "flat-1", shards: 1}
	twoShards  = layout{name: "2", shards: 2}
	fourShards = layout{name: "4", shards: 4}
	layouts    = []layout{flat, {name: "manifest-1", shards: 1, manifest: true}, twoShards, fourShards, {name: "7", shards: 7}}
)

// create makes an empty Liberty cluster of this layout in dir, closed at
// cleanup.
func (l layout) create(t *testing.T, dir string, opts shard.Options) *shard.Cluster {
	t.Helper()
	if l.manifest {
		m := fmt.Sprintf(`{"version":1,"shards":%d,"system":"liberty"}`+"\n", l.shards)
		if err := os.WriteFile(filepath.Join(dir, "CLUSTER"), []byte(m), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, rep, err := shard.Create(dir, logrec.Liberty, l.shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if len(rep.Quarantined) != 0 && opts.OpenStore == nil {
		t.Fatalf("fresh cluster quarantined shards: %v", rep.Quarantined)
	}
	return c
}

// serveCluster serves c through the real handler.
func serveCluster(t *testing.T, c *shard.Cluster, opts apiOptions) *httptest.Server {
	t.Helper()
	handler, _ := newShardAPI(c, opts)
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv
}

// newTestServer loads entries into a cluster of layout l and serves it.
// Unless opts says otherwise, the flush size leaves several sealed
// segments plus a tail on every shard, so queries cross every storage
// tier.
func newTestServer(t *testing.T, l layout, entries []store.Entry, opts shard.Options) (*httptest.Server, *shard.Cluster) {
	t.Helper()
	if opts.Store.FlushEvery == 0 {
		opts.Store.FlushEvery = len(entries)/(3*l.shards) + 1
	}
	c := l.create(t, t.TempDir(), opts)
	if len(entries) > 0 {
		ar, err := c.Append(entries)
		if err != nil {
			t.Fatal(err)
		}
		if ar.Appended != len(entries) {
			t.Fatalf("append did not land in full: %+v", ar)
		}
	}
	return serveCluster(t, c, apiOptions{}), c
}

func sumValues(m map[int]int) int {
	var n int
	for _, v := range m {
		n += v
	}
	return n
}

// studyEntries runs the batch pipeline once at test scale and returns
// its output in store form.
func studyEntries(t *testing.T) []store.Entry {
	t.Helper()
	s, err := core.New(simulate.Config{System: logrec.Liberty, Scale: testScale, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	entries := store.FromAlerts(s.Alerts, s.Filtered)
	if len(entries) < 20 {
		t.Fatalf("test study too small: %d entries", len(entries))
	}
	return entries
}

// matchesFilter replicates store.Filter semantics as an independent
// linear reference for building expected aggregates.
func matchesFilter(f store.Filter, en store.Entry) bool {
	tm := en.Record.Time
	if !f.From.IsZero() && tm.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && !tm.Before(f.To) {
		return false
	}
	if len(f.Categories) > 0 && !containsString(f.Categories, en.Category) {
		return false
	}
	if len(f.Sources) > 0 && !containsString(f.Sources, en.Record.Source) {
		return false
	}
	if len(f.Severities) > 0 {
		ok := false
		for _, sev := range f.Severities {
			if sev == en.Record.Severity {
				ok = true
			}
		}
		if !ok {
			return false
		}
	}
	if f.Kept != nil && *f.Kept != en.Kept {
		return false
	}
	return f.BodyContains == "" || strings.Contains(en.Record.Body, f.BodyContains)
}

func containsString(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func getJSON(t *testing.T, rawURL string, into any) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", rawURL, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", rawURL, err)
	}
}

// aggResponse is the /api/aggregate wire shape.
type aggResponse struct {
	Stats     store.ScanStats `json:"stats"`
	Coverage  shard.Coverage  `json:"coverage"`
	Partial   bool            `json:"partial"`
	Aggregate json.RawMessage `json:"aggregate"`
}

// TestAggregateMatchesBatchPipeline is the HTTP differential across
// layouts and shard counts: several filter shapes, byte equality against
// query.Aggregate over a linear filter of the batch pipeline's entries,
// full coverage, and stats that count exactly the matches.
func TestAggregateMatchesBatchPipeline(t *testing.T) {
	entries := studyEntries(t)
	mid := entries[len(entries)/2].Record.Time
	late := entries[3*len(entries)/4].Record.Time
	kept := true
	topCat := entries[0].Category
	oneSrc := entries[0].Record.Source

	cases := []struct {
		name   string
		params url.Values
		f      store.Filter
		opts   query.AggregateOptions
	}{
		{"everything", url.Values{}, store.Filter{}, query.AggregateOptions{}},
		{"one category", url.Values{"category": {topCat}}, store.Filter{Categories: []string{topCat}}, query.AggregateOptions{}},
		{"one source", url.Values{"source": {oneSrc}}, store.Filter{Sources: []string{oneSrc}}, query.AggregateOptions{}},
		{"survivors only", url.Values{"kept": {"true"}}, store.Filter{Kept: &kept}, query.AggregateOptions{}},
		{
			"time window",
			url.Values{"from": {mid.Format(time.RFC3339Nano)}, "to": {late.Format(time.RFC3339Nano)}},
			store.Filter{From: mid, To: late},
			query.AggregateOptions{},
		},
		{
			"custom topk and quantiles",
			url.Values{"topk": {"3"}, "quantiles": {"0.5,0.95"}},
			store.Filter{},
			query.AggregateOptions{TopK: 3, Quantiles: []float64{0.5, 0.95}},
		},
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			srv, _ := newTestServer(t, l, entries, shard.Options{})
			for _, tc := range cases {
				var got aggResponse
				getJSON(t, srv.URL+"/api/aggregate?"+tc.params.Encode(), &got)

				var ref []store.Entry
				for _, en := range entries {
					if matchesFilter(tc.f, en) {
						ref = append(ref, en)
					}
				}
				want, err := json.Marshal(query.Aggregate(ref, tc.opts))
				if err != nil {
					t.Fatal(err)
				}
				if string(got.Aggregate) != string(want) {
					t.Errorf("%s: served aggregate diverges from batch pipeline\nserved: %s\nbatch:  %s",
						tc.name, got.Aggregate, want)
				}
				if got.Stats.Matched != len(ref) {
					t.Errorf("%s: stats.matched = %d, want %d", tc.name, got.Stats.Matched, len(ref))
				}
				if got.Partial || got.Coverage.ShardsAnswered != got.Coverage.ShardsQueried || got.Coverage.ShardsTotal != l.shards {
					t.Errorf("%s: degraded on a healthy cluster: %+v", tc.name, got.Coverage)
				}
			}
		})
	}
}

// TestQueryEndpoint checks the merged /api/query keeps canonical order,
// honors limits and filters, and reports coverage, on every layout: each
// filter × limit row must return exactly the canonical prefix of a
// linear filter over the batch pipeline's entries, and its stats block
// must account for every segment.
func TestQueryEndpoint(t *testing.T) {
	entries := studyEntries(t)
	kept := true
	cat := entries[0].Category
	src := entries[len(entries)/2].Record.Source
	body := entries[len(entries)/3].Record.Body
	body = body[:min(len(body), 12)]
	mid := entries[len(entries)/3].Record.Time
	late := entries[2*len(entries)/3].Record.Time
	cases := []struct {
		params url.Values
		f      store.Filter
		limit  int
	}{
		{url.Values{"limit": {"10"}}, store.Filter{}, 10},
		{url.Values{"limit": {"1"}}, store.Filter{}, 1},
		{url.Values{"limit": {"0"}}, store.Filter{}, 0},
		{url.Values{"limit": {"50"}, "kept": {"true"}}, store.Filter{Kept: &kept}, 50},
		{url.Values{"limit": {"2"}, "kept": {"true"}}, store.Filter{Kept: &kept}, 2},
		{url.Values{"limit": {"7"}, "source": {src}}, store.Filter{Sources: []string{src}}, 7},
		{url.Values{"limit": {"2"}, "category": {cat}, "kept": {"true"}}, store.Filter{Categories: []string{cat}, Kept: &kept}, 2},
		{url.Values{"limit": {"100"}, "body": {body}}, store.Filter{BodyContains: body}, 100},
		{url.Values{"limit": {"7"}, "from": {mid.Format(time.RFC3339Nano)}, "to": {late.Format(time.RFC3339Nano)}}, store.Filter{From: mid, To: late}, 7},
		{url.Values{"limit": {"0"}, "category": {cat}}, store.Filter{Categories: []string{cat}}, 0},
		{url.Values{"limit": {"100000"}, "category": {cat}}, store.Filter{Categories: []string{cat}}, 100000},
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			srv, _ := newTestServer(t, l, entries, shard.Options{})
			for _, tc := range cases {
				var resp struct {
					Count    int             `json:"count"`
					Partial  bool            `json:"partial"`
					Coverage shard.Coverage  `json:"coverage"`
					Stats    store.ScanStats `json:"stats"`
					Entries  []entryJSON     `json:"entries"`
				}
				getJSON(t, srv.URL+"/api/query?"+tc.params.Encode(), &resp)
				var want []store.Entry
				for _, en := range entries {
					if matchesFilter(tc.f, en) {
						want = append(want, en)
					}
				}
				if tc.limit > 0 && len(want) > tc.limit {
					want = want[:tc.limit]
				}
				if len(want) == 0 {
					t.Fatalf("%s: fixture matches nothing", tc.params.Encode())
				}
				if resp.Count != len(want) || len(resp.Entries) != len(want) || resp.Partial || resp.Coverage.ShardsTotal != l.shards {
					t.Fatalf("%s: count %d (want %d), partial %v, coverage %+v", tc.params.Encode(), resp.Count, len(want), resp.Partial, resp.Coverage)
				}
				for i, en := range resp.Entries {
					w := want[i]
					if !en.Time.Equal(w.Record.Time) || en.Seq != w.Record.Seq || en.Source != w.Record.Source ||
						en.Category != w.Category || en.Kept != w.Kept || en.Body != w.Record.Body {
						t.Fatalf("%s: entry %d is %+v, want seq %d at %v", tc.params.Encode(), i, en, w.Record.Seq, w.Record.Time)
					}
				}
				if st := resp.Stats; st.Segments != st.SegmentsScanned+st.SegmentsPruned || st.Matched < len(want) {
					t.Fatalf("%s: stats %+v", tc.params.Encode(), st)
				}
			}
		})
	}
}

// TestSegmentsEndpoint: the per-shard listing accounts for every entry.
func TestSegmentsEndpoint(t *testing.T) {
	entries := studyEntries(t)
	for _, l := range []layout{flat, fourShards} {
		t.Run(l.name, func(t *testing.T) {
			srv, _ := newTestServer(t, l, entries, shard.Options{})
			var resp struct {
				System       string                `json:"system"`
				Shards       []shard.ShardSegments `json:"shards"`
				TotalEntries int                   `json:"total_entries"`
			}
			getJSON(t, srv.URL+"/api/segments", &resp)
			if resp.System != "liberty" || len(resp.Shards) != l.shards {
				t.Fatalf("system %q, %d shards listed", resp.System, len(resp.Shards))
			}
			total := 0
			for _, sh := range resp.Shards {
				if sh.State != "ok" {
					t.Errorf("shard %d state %q", sh.Shard, sh.State)
				}
				n := sh.TailEntries
				for _, g := range sh.Segments {
					n += g.Records
				}
				if n != sh.Entries {
					t.Errorf("shard %d: segments+tail = %d, entries = %d", sh.Shard, n, sh.Entries)
				}
				total += n
			}
			if l.shards == 1 && len(resp.Shards[0].Segments) < 2 {
				t.Errorf("want multiple sealed segments, got %d", len(resp.Shards[0].Segments))
			}
			if total != len(entries) || resp.TotalEntries != len(entries) {
				t.Errorf("inventory %d, listed %d, want %d", resp.TotalEntries, total, len(entries))
			}
		})
	}
}

// ingestTestBody generates the raw log lines the ingest tests post.
func ingestTestBody(t *testing.T) string {
	t.Helper()
	out, err := simulate.Generate(simulate.Config{System: logrec.Liberty, Scale: testScale, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(out.Lines, "\n") + "\n"
}

// postLines posts raw lines to /api/ingest and asserts the status.
func postLines(t *testing.T, baseURL, body string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Post(baseURL+"/api/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("ingest: %d, want %d: %s", resp.StatusCode, wantStatus, raw)
	}
	return raw
}

// clientPipeline replays a raw body through the exact stages the server
// runs — the batch side of the ingest differentials, and what a 200 ack
// promised was appended.
func clientPipeline(t *testing.T, body string) []store.Entry {
	t.Helper()
	m, err := cluster.New(logrec.Liberty)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := ingest.ReadAll(strings.NewReader(body), logrec.Liberty, m.LogStart)
	if err != nil {
		t.Fatal(err)
	}
	alerts := tag.NewTagger(logrec.Liberty).TagAll(recs)
	tag.SortAlerts(alerts)
	filtered := filter.Simultaneous{T: filter.DefaultThreshold}.Filter(alerts)
	return store.FromAlerts(alerts, filtered)
}

// TestIngestMatchesBatchPipeline posts raw log lines into an empty
// cluster of every layout and checks the routing summary and that the
// served aggregation equals the batch pipeline run directly over the
// same lines — no store or HTTP in the loop.
func TestIngestMatchesBatchPipeline(t *testing.T) {
	body := ingestTestBody(t)
	ref := clientPipeline(t, body)
	want, err := json.Marshal(query.Aggregate(ref, query.AggregateOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			srv, c := newTestServer(t, l, nil, shard.Options{Store: store.Options{FlushEvery: 500}})
			var ing ingestResponse
			if err := json.Unmarshal(postLines(t, srv.URL, body, http.StatusOK), &ing); err != nil {
				t.Fatal(err)
			}
			if ing.Lines != strings.Count(body, "\n") || ing.Alerts != len(ref) || ing.Appended != len(ref) ||
				sumValues(ing.PerShard) != ing.Appended || len(ing.Rejected) != 0 || len(ing.Errors) != 0 {
				t.Fatalf("ingest summary off: %+v (posted %d lines, pipeline made %d entries)", ing, strings.Count(body, "\n"), len(ref))
			}
			if c.Len() != ing.Appended {
				t.Fatalf("cluster holds %d, response said %d", c.Len(), ing.Appended)
			}
			var got aggResponse
			getJSON(t, srv.URL+"/api/aggregate", &got)
			if got.Partial {
				t.Fatalf("healthy ingest produced partial coverage: %+v", got.Coverage)
			}
			if string(got.Aggregate) != string(want) {
				t.Fatalf("ingested aggregate diverges from batch pipeline\nserved: %s\nbatch:  %s", got.Aggregate, want)
			}
		})
	}
}

func TestAPIErrors(t *testing.T) {
	srv, _ := newTestServer(t, flat, studyEntries(t), shard.Options{})

	cases := []struct {
		method, path string
		want         int
	}{
		{"GET", "/api/query?from=yesterday", http.StatusBadRequest},
		{"GET", "/api/query?limit=nope", http.StatusBadRequest},
		{"GET", "/api/aggregate?quantiles=1.5", http.StatusBadRequest},
		{"GET", "/api/aggregate?severity=NOT_A_SEVERITY", http.StatusBadRequest},
		{"POST", "/api/query", http.StatusMethodNotAllowed},
		{"GET", "/api/ingest", http.StatusMethodNotAllowed},
		{"POST", "/api/shards", http.StatusMethodNotAllowed},
		{"GET", "/api/shards", http.StatusOK},
		{"GET", "/healthz", http.StatusOK},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// startServe runs the production open/serve/drain path (openServeBackend
// + serveAndWait, what `logstudy serve` runs) on a loopback port and
// returns the base URL, the backend, and a stop function that cancels
// the context — the SIGTERM path — and returns serveAndWait's error.
func startServe(t *testing.T, cfg serveBackendConfig) (base string, b *serveBackend, stop func() error) {
	t.Helper()
	b, err := openServeBackend(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- serveAndWait(ctx, b, "127.0.0.1:0", 0, 5*time.Second, io.Discard,
			func(a net.Addr) { ready <- a })
	}()
	stopped := false
	stop = func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			t.Error("serveAndWait never returned")
			return nil
		}
	}
	t.Cleanup(func() { stop() })
	select {
	case a := <-ready:
		return "http://" + a.String(), b, stop
	case err := <-errc:
		stopped = true
		cancel()
		t.Fatalf("server died before ready: %v", err)
		return "", nil, nil
	}
}

// decodeAggregate answers params the reference way — in process over
// st, by row decode: select every match (Scan, materialize, canonical
// sort) and fold it with the pure query.Aggregate — and returns the
// filter it parsed with the aggregate's and the scan accounting's JSON.
func decodeAggregate(t *testing.T, st *store.Store, params url.Values) (f store.Filter, agg, stats string) {
	t.Helper()
	f, err := parseFilter(st.System(), params)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := parseAggregateOptions(params)
	if err != nil {
		t.Fatal(err)
	}
	entries, sst, err := (&query.Engine{Store: st}).Select(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := json.Marshal(query.Aggregate(entries, opts))
	sb, _ := json.Marshal(sst)
	return f, string(ab), string(sb)
}

// checkServedInPlace is the in-place differential: the reference is
// taken from a plain store directory by the row-decode reference, in
// process (the way the benchmark's oracle does); the same directory is
// then served in place as a one-shard cluster, and every aggregate,
// its scan accounting, and every select must come back byte-identical.
// After a graceful stop the directory is still exactly a store: no
// CLUSTER file, no shard-* entry, nothing for store.Open to recover.
func checkServedInPlace(t *testing.T, dir string, params []url.Values) {
	t.Helper()
	st, rep, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TailEntries != 0 || len(rep.CorruptSegments) != 0 {
		t.Fatalf("fixture store is dirty: %+v", rep)
	}
	want := make([][3]string, len(params)) // aggregate, stats, entries
	for i, p := range params {
		f, agg, stats := decodeAggregate(t, st, p)
		entries, _, err := (&query.Engine{Store: st}).Select(f, 25)
		if err != nil {
			t.Fatal(err)
		}
		sel := make([]entryJSON, 0, len(entries))
		for _, en := range entries {
			sel = append(sel, toEntryJSON(en))
		}
		raw, _ := json.Marshal(sel)
		want[i] = [3]string{agg, stats, string(raw)}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	base, _, stop := startServe(t, serveBackendConfig{Dir: dir})
	for i, p := range params {
		var got struct {
			aggResponse
			Entries json.RawMessage `json:"entries"`
		}
		getJSON(t, base+"/api/aggregate?"+p.Encode(), &got)
		if got.Partial || got.Coverage.ShardsTotal != 1 {
			t.Errorf("%q: coverage %+v, want one shard answering in full", p.Encode(), got.Coverage)
		}
		stats, _ := json.Marshal(got.Stats)
		getJSON(t, base+"/api/query?limit=25&"+p.Encode(), &got)
		for j, served := range []string{string(got.Aggregate), string(stats), string(got.Entries)} {
			if served != want[i][j] {
				t.Errorf("%q: served %s diverges from the in-process decode engine\nserved: %s\nengine: %s",
					p.Encode(), []string{"aggregate", "stats", "entries"}[j], served, want[i][j])
			}
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}

	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.Name() == "CLUSTER" || strings.HasPrefix(de.Name(), "shard-") {
			t.Errorf("serving a store directory in place left %s behind", de.Name())
		}
	}
	if st, rep, err = store.Open(dir, store.Options{}); err != nil {
		t.Fatalf("store.Open after serve: %v", err)
	}
	defer st.Close()
	if rep.TailEntries != 0 || len(rep.CorruptSegments) != 0 || rep.TailDedupedEntries != 0 {
		t.Fatalf("serve left recovery work behind: %+v", rep)
	}
}

// TestBuildStoreServedInPlace exercises the two subcommands end to end:
// `build-store` writes a plain store directory holding exactly what the
// batch pipeline produced, and serve fronts it in place.
func TestBuildStoreServedInPlace(t *testing.T) {
	dir := t.TempDir() + "/alerts"
	var b strings.Builder
	if err := run(testArgs("build-store", "-system", "liberty", "-dir", dir, "-flush-every", "1000"), &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "stored") {
		t.Fatalf("build summary missing: %s", b.String())
	}
	if err := run([]string{"build-store"}, io.Discard); err == nil {
		t.Error("missing -dir must error")
	}
	entries := studyEntries(t)
	checkServedInPlace(t, dir, columnarParams(entries))

	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	agg, _, err := (&query.Engine{Store: st}).Aggregate(store.Filter{}, query.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(agg)
	if want, _ := json.Marshal(query.Aggregate(entries, query.AggregateOptions{})); string(got) != string(want) {
		t.Fatalf("built store diverges from the pipeline that built it\nstore: %s\nbatch: %s", got, want)
	}
}

// TestServeOpensTheOnDiskShape: serve on an existing cluster directory
// needs no -shards — the CLUSTER manifest names the shape — and a
// -shards that contradicts what is on disk is a usage error naming that
// shape, never a silent re-ring.
func TestServeOpensTheOnDiskShape(t *testing.T) {
	entries := studyEntries(t)
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			dir := t.TempDir()
			c := l.create(t, dir, shard.Options{})
			if _, err := c.Append(entries); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			for _, sysName := range []string{"", "liberty"} {
				_, err := openServeBackend(serveBackendConfig{Dir: dir, SysName: sysName, Shards: l.shards + 1}, io.Discard)
				if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), fmt.Sprintf("%d-shard liberty", l.shards)) {
					t.Fatalf("-shards %d over a %d-shard directory: %v, want a usage error naming the on-disk shape", l.shards+1, l.shards, err)
				}
			}

			for _, cfg := range []serveBackendConfig{{Dir: dir}, {Dir: dir, Shards: l.shards}, {Dir: dir, SysName: "liberty"}} {
				base, _, stop := startServe(t, cfg)
				var health struct {
					OK     bool `json:"ok"`
					Shards int  `json:"shards"`
				}
				getJSON(t, base+"/healthz", &health)
				var agg aggResponse
				getJSON(t, base+"/api/aggregate", &agg)
				var total struct {
					Total int `json:"total"`
				}
				json.Unmarshal(agg.Aggregate, &total)
				if !health.OK || health.Shards != l.shards || agg.Coverage.ShardsTotal != l.shards || total.Total != len(entries) {
					t.Fatalf("%+v: healthz %+v, coverage %+v, total %d (want %d shards, %d entries)",
						cfg, health, agg.Coverage, total.Total, l.shards, len(entries))
				}
				if err := stop(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestServeRefusesWhenNoShardOpens: a shard that fails to open is
// quarantined while its siblings serve, but a cluster with no shard left
// has nothing to serve — the open fails loudly (exit 1) with the first
// shard's error, as a single store that cannot open always did.
func TestServeRefusesWhenNoShardOpens(t *testing.T) {
	for _, l := range []layout{flat, twoShards} {
		t.Run(l.name, func(t *testing.T) {
			dir := t.TempDir()
			c := l.create(t, dir, shard.Options{})
			health := c.Health()
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			// A directory where a segment file belongs fails every store open.
			for _, h := range health {
				if err := os.Mkdir(filepath.Join(h.Dir, "seg-00000000.seg"), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			var errw strings.Builder
			if code := runMain([]string{"serve", "-dir", dir, "-addr", "127.0.0.1:0"}, io.Discard, &errw); code != 1 || !strings.Contains(errw.String(), "seg-00000000.seg") {
				t.Fatalf("serve over a cluster with no openable shard: exit %d, %q; want exit 1 naming the shard's error", code, errw.String())
			}
		})
	}
}

// faultyOpenStore adapts shardfault.OpenFaulty to shard.Options.OpenStore:
// opening one of failDirs fails, and setFaults injects the same faults
// into every shard that did open.
func faultyOpenStore(failDirs ...string) (open func(string, store.Options) (shard.Backend, *store.OpenReport, error), setFaults func(shardfault.StoreFaults)) {
	fail := map[string]bool{}
	for _, dir := range failDirs {
		fail[dir] = true
	}
	sfOpen, wrapped, mu := shardfault.OpenFaulty(fail)
	open = func(dir string, opts store.Options) (shard.Backend, *store.OpenReport, error) {
		b, rep, err := sfOpen(dir, opts)
		if err != nil {
			return nil, rep, err
		}
		return b, rep, nil
	}
	setFaults = func(f shardfault.StoreFaults) {
		mu.Lock()
		defer mu.Unlock()
		for _, w := range wrapped {
			w.SetFaults(f)
		}
	}
	return open, setFaults
}

// TestPartialResultOverHTTP fault-injects one of four shards and checks
// the acceptance contract at the wire: /api/query and /api/aggregate
// return HTTP 200 with partial:true and coverage that names the dead
// shard, and /api/shards reports it quarantined.
func TestPartialResultOverHTTP(t *testing.T) {
	entries := studyEntries(t)

	root := t.TempDir()
	const victim = 1
	open, _ := faultyOpenStore(shard.ShardDir(root, victim))
	c := fourShards.create(t, root, shard.Options{
		Store:     store.Options{FlushEvery: len(entries)/8 + 1},
		OpenStore: open,
	})
	ar, err := c.Append(entries)
	if err != nil {
		t.Fatal(err)
	}
	srv := serveCluster(t, c, apiOptions{})

	// getJSON fails on non-200, so these calls double as status checks.
	var agg aggResponse
	getJSON(t, srv.URL+"/api/aggregate", &agg)
	if !agg.Partial || agg.Coverage.ShardsTotal != 4 || agg.Coverage.ShardsQueried != 4 || agg.Coverage.ShardsAnswered != 3 {
		t.Fatalf("aggregate coverage %+v", agg.Coverage)
	}
	if !strings.Contains(agg.Coverage.ShardErrors[fmt.Sprint(victim)], "quarantined") {
		t.Fatalf("shard errors %v", agg.Coverage.ShardErrors)
	}
	var parsed struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(agg.Aggregate, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Total != ar.Appended {
		t.Fatalf("partial total %d, want the %d entries the healthy shards hold", parsed.Total, ar.Appended)
	}

	var q struct {
		Count    int            `json:"count"`
		Partial  bool           `json:"partial"`
		Coverage shard.Coverage `json:"coverage"`
	}
	getJSON(t, srv.URL+"/api/query?limit=0", &q)
	if !q.Partial || q.Count != ar.Appended {
		t.Fatalf("query degraded wrong: count %d partial %v (want %d)", q.Count, q.Partial, ar.Appended)
	}

	var health struct {
		Shards []shard.Health `json:"shards"`
	}
	getJSON(t, srv.URL+"/api/shards", &health)
	if len(health.Shards) != 4 || health.Shards[victim].State != "quarantined" {
		t.Fatalf("/api/shards: %+v", health.Shards)
	}
}

// TestNoShardAnsweredIs503: one answering shard keeps a response at 200
// + partial:true (above); when no queried shard answers — every scan
// fails, or the request deadline lapses first — there is nothing to
// show, and the answer is 503 with the coverage block as its body.
func TestNoShardAnsweredIs503(t *testing.T) {
	entries := studyEntries(t)
	cases := []struct {
		name   string
		faults shardfault.StoreFaults
		opts   apiOptions
		reason string
	}{
		{"every scan fails", shardfault.StoreFaults{FailScans: -1}, apiOptions{}, "injected scan failure"},
		{"request deadline lapses", shardfault.StoreFaults{ScanDelay: 2 * time.Second}, apiOptions{RequestTimeout: 40 * time.Millisecond}, "request deadline"},
	}
	for _, l := range []layout{flat, twoShards} {
		for _, tc := range cases {
			t.Run(l.name+"/"+tc.name, func(t *testing.T) {
				open, setFaults := faultyOpenStore()
				c := l.create(t, t.TempDir(), shard.Options{OpenStore: open, Retries: -1})
				if _, err := c.Append(entries); err != nil {
					t.Fatal(err)
				}
				srv := serveCluster(t, c, tc.opts)
				setFaults(tc.faults)
				for _, path := range []string{"/api/aggregate", "/api/query?limit=5"} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Fatal(err)
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					var cov shard.Coverage
					if err := json.Unmarshal(raw, &cov); err != nil {
						t.Fatalf("%s: body is not a coverage block: %s", path, raw)
					}
					if resp.StatusCode != http.StatusServiceUnavailable || !cov.Partial || cov.ShardsTotal != l.shards ||
						cov.ShardsQueried != l.shards || cov.ShardsAnswered != 0 || len(cov.ShardErrors) != l.shards {
						t.Fatalf("%s: status %d, coverage %+v; want 503 accounting for all %d shards", path, resp.StatusCode, cov, l.shards)
					}
					for id, msg := range cov.ShardErrors {
						if !strings.Contains(msg, tc.reason) {
							t.Errorf("%s: shard %s error %q does not say %q", path, id, msg, tc.reason)
						}
					}
				}
				// Healed, the same server answers in full again.
				setFaults(shardfault.StoreFaults{})
				var agg aggResponse
				getJSON(t, srv.URL+"/api/aggregate?kept=true", &agg)
				if agg.Partial {
					t.Fatalf("healed cluster still partial: %+v", agg.Coverage)
				}
			})
		}
	}
}

// TestCloseLeavesNoGoroutines: everything openServeBackend starts —
// shard workers, store maintenance loops, registries, miners, the
// standing evaluator, the push hub's streams — is gone once the serve
// loop has stopped and closeStore returned.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	body := ingestTestBody(t)
	for _, l := range []layout{flat, fourShards} {
		t.Run(l.name, func(t *testing.T) {
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			before := runtime.NumGoroutine()

			base, _, stop := startServe(t, serveBackendConfig{
				Dir: t.TempDir(), SysName: "liberty", Shards: l.shards,
				StoreOpts: store.Options{FlushEvery: 100, CompactEvery: 10 * time.Millisecond},
				APIOpts:   apiOptions{CacheSize: 8},
			})
			sub := postSubscribe(t, base, subscribeRequest{Threshold: 1})
			stream := openSSE(t, base+"/api/subscribe/"+sub.ID+"/events")
			defer stream.close()
			stream.next(t, "state")
			postLines(t, base, body, http.StatusOK)
			stream.next(t, "fire")
			var agg aggResponse
			getJSON(t, base+"/api/aggregate", &agg)
			getCorrelationsSettled(t, base)
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			stream.close()
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines before open, %d after close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
