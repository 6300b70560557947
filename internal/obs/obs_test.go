package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("x_total") != c {
		t.Error("counter lookup not idempotent")
	}
	g := r.Gauge("depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c", Seconds).Observe(5)
	sp := r.StartSpan("s")
	sp.End()
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	r.WritePrometheus(io.Discard)
	r.WriteSummary(io.Discard)
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", Seconds)
	// 1000 observations of ~1ms and 10 of ~1s.
	for i := 0; i < 1000; i++ {
		h.Observe(int64(time.Millisecond))
	}
	for i := 0; i < 10; i++ {
		h.Observe(int64(time.Second))
	}
	if got := h.Count(); got != 1010 {
		t.Fatalf("count = %d", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.0005 || p50 > 0.002 {
		t.Errorf("p50 = %g, want ~1ms", p50)
	}
	p999 := h.Quantile(0.999)
	if p999 < 0.5 || p999 > 2 {
		t.Errorf("p99.9 = %g, want ~1s", p999)
	}
	wantSum := 1000*0.001 + 10*1.0
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-9 {
		t.Errorf("sum = %g, want %g", got, wantSum)
	}
}

func TestHistogramEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("e", None)
	h.Observe(0)
	h.Observe(-5)
	h.Observe(1 << 62) // overflow bucket
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d", got)
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("median of {<=0, <=0, huge} = %g, want 0", q)
	}
}

// TestTallyMergeEqualsObserve: a tally merged into a histogram leaves
// it exactly as observing each value directly would, empties the tally,
// and a nil histogram drops the merge.
func TestTallyMergeEqualsObserve(t *testing.T) {
	r := NewRegistry()
	direct, merged := r.Histogram("direct", Bytes), r.Histogram("merged", Bytes)
	var tl Tally
	for _, v := range []int64{0, -5, 1, 7, 8, 130, 1 << 20, 1 << 62} {
		direct.Observe(v)
		tl.Observe(v)
	}
	merged.Observe(3)
	direct.Observe(3)
	merged.Merge(&tl)
	if tl != (Tally{}) {
		t.Fatalf("merge left the tally non-empty: %+v", tl)
	}
	if merged.Count() != direct.Count() || merged.Sum() != direct.Sum() {
		t.Fatalf("merged count/sum %d/%g, direct %d/%g", merged.Count(), merged.Sum(), direct.Count(), direct.Sum())
	}
	for i := range direct.buckets {
		if got, want := merged.buckets[i].Load(), direct.buckets[i].Load(); got != want {
			t.Fatalf("bucket %d: merged %d, direct %d", i, got, want)
		}
	}
	tl.Observe(1)
	var nilHist *Histogram
	nilHist.Merge(&tl)
	if tl != (Tally{}) {
		t.Fatal("merge into a nil histogram left the tally non-empty")
	}
}

func TestSpanRecordsStage(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("tag")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Errorf("span duration %v too short", d)
	}
	sums := r.StageSummaries()
	if len(sums) != 1 || sums[0].Stage != "tag" || sums[0].Count != 1 {
		t.Fatalf("summaries = %+v", sums)
	}
	if sums[0].TotalSec <= 0 {
		t.Error("span total not recorded")
	}
}

func TestSnapshotAndJSONFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("lines_total").Add(42)
	r.Gauge(`shard_queue_depth{shard="3"}`).Set(2.5)
	r.Histogram("sz_bytes", Bytes).Observe(100)
	path := filepath.Join(t.TempDir(), "m.json")
	if err := r.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["lines_total"] != 42 {
		t.Errorf("counters = %v", s.Counters)
	}
	if s.Gauges[`shard_queue_depth{shard="3"}`] != 2.5 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	hs := s.Histograms["sz_bytes"]
	if hs.Count != 1 || hs.Sum != 100 || hs.Unit != "bytes" {
		t.Errorf("histogram snapshot = %+v", hs)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("lines_total").Add(7)
	r.Gauge(`speedup{stage="tag"}`).Set(3)
	h := r.Histogram("lat_seconds", Seconds)
	h.Observe(int64(time.Millisecond))
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE lines_total counter",
		"lines_total 7",
		"# TYPE speedup gauge",
		`speedup{stage="tag"} 3`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="+Inf"} 1`,
		"lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHandlerServesMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "hits_total 1") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d", code)
		_ = body
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("unknown path: code %d, want 404", code)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n_total")
			h := r.Histogram("h_seconds", Seconds)
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n_total").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h_seconds", Seconds).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

// The overhead model of DESIGN.md §9: these pin the per-operation cost
// of the instruments left enabled in the hot paths.

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("x", Seconds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkSpan(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.StartSpan("s").End()
	}
}
