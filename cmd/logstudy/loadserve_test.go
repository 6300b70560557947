package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whatsupersay/internal/connectors/graphite"
	"whatsupersay/internal/faultinject/shardfault"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/shard"
	"whatsupersay/internal/simulate"
	"whatsupersay/internal/store"
)

// --- satellite 1: the request-timeout deadline must exempt SSE ---

// TestRequestDeadlineMiddleware pins which routes the uniform
// per-request deadline covers: every API route gets a context deadline,
// the SSE stream gets none.
func TestRequestDeadlineMiddleware(t *testing.T) {
	opts := apiOptions{RequestTimeout: 5 * time.Second}
	var gotDeadline bool
	h := opts.withRequestDeadlines(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, gotDeadline = r.Context().Deadline()
	}))
	cases := []struct {
		method, path string
		want         bool
	}{
		{http.MethodGet, "/api/query", true},
		{http.MethodGet, "/api/aggregate", true},
		{http.MethodPost, "/api/ingest", true},
		{http.MethodPost, "/api/subscribe", true},
		{http.MethodGet, "/api/subscriptions", true},
		{http.MethodGet, "/api/subscribe/abc123/events", false},
		// DELETE on the subscribe tree is not a stream: deadline applies.
		{http.MethodDelete, "/api/subscribe/abc123", true},
	}
	for _, c := range cases {
		r := httptest.NewRequest(c.method, c.path, nil)
		h.ServeHTTP(httptest.NewRecorder(), r)
		if gotDeadline != c.want {
			t.Errorf("%s %s: deadline=%v, want %v", c.method, c.path, gotDeadline, c.want)
		}
	}
}

// TestSSESurvivesRequestTimeout is the satellite-1 regression: a
// subscriber's event stream must outlive both the per-request deadline
// and the server's WriteTimeout. Pre-fix (no SSE exemption in the
// deadline wrapper) the stream dies at the first deadline window.
func TestSSESurvivesRequestTimeout(t *testing.T) {
	c := flat.create(t, t.TempDir(), shard.Options{Store: store.Options{FlushEvery: 1 << 30}})
	if _, err := c.Append(studyEntries(t)); err != nil {
		t.Fatal(err)
	}
	reqTimeout := 150 * time.Millisecond
	handler, _ := newShardAPI(c, apiOptions{
		RequestTimeout: reqTimeout,
		SSEHeartbeat:   30 * time.Millisecond,
	})
	srv := httptest.NewUnstartedServer(handler)
	srv.Config.WriteTimeout = writeTimeout(reqTimeout)
	srv.Start()
	t.Cleanup(srv.Close)

	// A never-firing subscription to stream against.
	sub := postSubscribe(t, srv.URL, subscribeRequest{Threshold: 1000000})
	stream, err := http.Get(srv.URL + "/api/subscribe/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", stream.StatusCode)
	}

	// Survive at least 4 full request-timeout windows of heartbeats.
	deadline := time.Now().Add(4*reqTimeout + reqTimeout/2)
	sc := bufio.NewScanner(stream.Body)
	var pings int
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	for time.Now().Before(deadline) {
		select {
		case ln, ok := <-lines:
			if !ok {
				t.Fatalf("SSE stream ended after %d pings — killed by a timeout path", pings)
			}
			if strings.HasPrefix(ln, ": ping") {
				pings++
			}
		case <-time.After(2 * time.Second):
			t.Fatal("SSE stream stalled: no heartbeat")
		}
	}
	if pings < 3 {
		t.Fatalf("only %d heartbeats across 4 deadline windows", pings)
	}
	// Meanwhile the deadline still applies to normal routes.
	r, err := http.Get(srv.URL + "/api/query?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("query under SSE load: %d", r.StatusCode)
	}
}

// --- satellite 2: uniform 429 retry contract ---

// fillQueues parks one copy of body in the worker, then one in the
// depth-1 queue, of every shard body routes to, and returns the channel
// the two parked posts report their statuses on. Async, so the test
// goroutine never waits on a response a wedged shard holds hostage (and
// no t.Fatal off it — statuses are checked after).
func fillQueues(t *testing.T, c *shard.Cluster, baseURL, body string) (parked <-chan int, touched map[int]bool) {
	t.Helper()
	touched = map[int]bool{}
	for _, en := range clientPipeline(t, body) {
		touched[shard.ShardFor(en.Record.Source, c.NumShards())] = true
	}
	statuses := make(chan int, 2)
	for queued := 0; queued < 2; queued++ {
		go func() {
			resp, err := http.Post(baseURL+"/api/ingest", "text/plain", strings.NewReader(body))
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
		deadline := time.Now().Add(10 * time.Second)
		for full := false; !full; time.Sleep(time.Millisecond) {
			full = true
			for _, h := range c.Health() {
				full = full && (!touched[h.ID] || (h.Inflight == 1 && h.QueueDepth == queued))
			}
			if time.Now().After(deadline) {
				t.Fatalf("queues never filled: %+v", c.Health())
			}
		}
	}
	return statuses, touched
}

// TestIngestBackpressure429 pins the admission contract on every layout:
// with each shard's appends wedged behind a hold and its worker and
// depth-1 queue occupied, the next post bounces at once with 429 +
// Retry-After (integer seconds, never 0) and a body naming, per rejected
// shard, the bounced count and sources — the retry unit is those
// sources' records, never the whole batch (healthy shards' slices are
// already durable and would duplicate on replay). Releasing the hold
// drains everything and a retry lands.
func TestIngestBackpressure429(t *testing.T) {
	body := ingestTestBody(t)
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			open, setFaults := faultyOpenStore()
			c := l.create(t, t.TempDir(), shard.Options{
				Store:      store.Options{FlushEvery: 1 << 30},
				OpenStore:  open,
				QueueDepth: 1,
				RetryAfter: 2 * time.Second,
			})
			srv := serveCluster(t, c, apiOptions{})
			hold := make(chan struct{})
			setFaults(shardfault.StoreFaults{AppendHold: hold})
			parked, touched := fillQueues(t, c, srv.URL, body)

			// The third post is rejected immediately — backpressure, not a hang.
			resp, err := http.Post(srv.URL+"/api/ingest", "text/plain", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("overflow post: %d: %s", resp.StatusCode, raw)
			}
			// No batch has drained yet, so the hint is the configured fallback.
			if ra := resp.Header.Get("Retry-After"); ra != "2" {
				t.Fatalf("Retry-After = %q, want \"2\"", ra)
			}
			var rej ingestResponse
			if err := json.Unmarshal(raw, &rej); err != nil {
				t.Fatal(err)
			}
			if len(rej.Rejected) != len(touched) || rej.Appended != 0 {
				t.Fatalf("429 detail %+v, want all %d touched shards rejecting", rej, len(touched))
			}
			for id := range touched {
				if rej.Rejected[id] == 0 || len(rej.RejectedSources[id]) == 0 {
					t.Fatalf("429 without rejected count or rejected_sources for shard %d: %s", id, raw)
				}
			}

			close(hold)
			for i := 0; i < 2; i++ {
				select {
				case status := <-parked:
					if status != http.StatusOK {
						t.Errorf("parked post finished with %d, want 200", status)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("parked posts never completed after release")
				}
			}
			if !c.WaitQueuesIdle(10 * time.Second) {
				t.Fatal("queues never drained after release")
			}
			before := c.Len()
			postLines(t, srv.URL, body, http.StatusOK)
			if c.Len() <= before || before == 0 {
				t.Fatalf("held ingests or the retry never landed: %d then %d entries", before, c.Len())
			}
		})
	}
}

// TestRetryAfterTracksDrainRate: Retry-After must reflect the measured
// queue drain rate, not a fixed constant. With a ~1.2s-per-batch backend
// and two batches pending, an honest hint is >= 2 seconds; a fixed
// default would say 1.
func TestRetryAfterTracksDrainRate(t *testing.T) {
	body := ingestTestBody(t)
	open, setFaults := faultyOpenStore()
	c := flat.create(t, t.TempDir(), shard.Options{
		Store:      store.Options{FlushEvery: 1 << 30},
		OpenStore:  open,
		QueueDepth: 1,
	})
	srv := serveCluster(t, c, apiOptions{})
	setFaults(shardfault.StoreFaults{AppendDelay: 1200 * time.Millisecond})

	// Seed the drain EWMA with one slow batch, synchronously; then occupy
	// the worker and the queue.
	postLines(t, srv.URL, body, http.StatusOK)
	parked, _ := fillQueues(t, c, srv.URL, body)

	resp, err := http.Post(srv.URL+"/api/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	<-parked
	<-parked
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow post: %d", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 2 || secs > 60 {
		t.Fatalf("Retry-After = %q, want integer seconds in [2, 60] (drain-rate derived, clamped)", ra)
	}
}

func TestRetryAfterEstimateNeverZero(t *testing.T) {
	cases := []struct {
		pending  int
		drain    time.Duration
		fallback time.Duration
		want     time.Duration
	}{
		{0, 0, 0, time.Second},                   // nothing known: floor
		{5, 0, 3 * time.Second, 3 * time.Second}, // no drain data: fallback
		{1, 1200 * time.Millisecond, 0, 2400 * time.Millisecond},
		{0, time.Microsecond, 0, time.Second},   // fast drain: floor, never 0
		{100, 10 * time.Second, 0, time.Minute}, // ceiling
	}
	for _, c := range cases {
		if got := shard.RetryAfterEstimate(c.pending, c.drain, c.fallback); got != c.want {
			t.Errorf("RetryAfterEstimate(%d, %v, %v) = %v, want %v", c.pending, c.drain, c.fallback, got, c.want)
		}
	}
}

// --- satellite 3: graceful shutdown under load ---

// entryKey is the Seq-independent identity used to compare acked
// batches against a reopened store.
func entryKey(en store.Entry) string {
	return fmt.Sprintf("%d|%s|%s|%s|%t", en.Record.Time.UnixNano(), en.Record.Source, en.Category, en.Record.Body, en.Kept)
}

// TestGracefulShutdownUnderLoad is the satellite-3 kill test: SIGTERM
// (modeled as context cancellation, the same path) while concurrent
// ingesters and an SSE subscriber are attached must (a) complete
// promptly — pre-fix, the never-ending SSE stream wedged Shutdown for
// its whole 5s budget and surfaced an error — and (b) leave every
// 200-acked batch durable in the reopened store.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	dir := t.TempDir()
	base, _, stop := startServe(t, serveBackendConfig{
		Dir:       dir,
		SysName:   "liberty",
		StoreOpts: store.Options{FlushEvery: 1 << 30},
	})

	// An SSE subscriber — the connection that wedged pre-fix shutdown.
	sub := postSubscribe(t, base, subscribeRequest{Threshold: 1000000})
	stream := openSSE(t, base+"/api/subscribe/"+sub.ID+"/events")
	defer stream.close()

	// Concurrent ingesters: each pulls distinct batches and logs what
	// the server acked with a 200.
	out, err := simulate.Generate(simulate.Config{System: logrec.Liberty, Scale: testScale, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const batchLines = 40
	var batches []string
	for i := 0; i < len(out.Lines); i += batchLines {
		end := min(i+batchLines, len(out.Lines))
		batches = append(batches, strings.Join(out.Lines[i:end], "\n")+"\n")
	}
	var next atomic.Int64
	var mu sync.Mutex
	var acked []string // bodies the server answered 200 to
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(batches) {
					return
				}
				resp, err := http.Post(base+"/api/ingest", "text/plain", strings.NewReader(batches[i]))
				if err != nil {
					return // shutdown cut us off mid-request: not acked
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					mu.Lock()
					acked = append(acked, batches[i])
					mu.Unlock()
				}
			}
		}()
	}

	// Let load build, then pull the plug mid-flight.
	time.Sleep(250 * time.Millisecond)
	shutStart := time.Now()
	serveErr := stop()
	shutDur := time.Since(shutStart)
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("shutdown error: %v", serveErr)
	}
	// Pre-fix the SSE stream pinned Shutdown for its full 5s budget.
	if shutDur >= 4*time.Second {
		t.Fatalf("shutdown took %v — drained by timeout, not gracefully", shutDur)
	}
	mu.Lock()
	nAcked := len(acked)
	mu.Unlock()
	if nAcked == 0 {
		t.Fatal("no batches were acked before shutdown; test proves nothing")
	}

	// Replay the client-side success log against the directory reopened
	// as the plain store a default serve leaves behind: every acked entry
	// must be there.
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	have := map[string]int{}
	if _, err := st.Scan(store.Filter{}, func(en store.Entry) error {
		have[entryKey(en)]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, body := range acked {
		for _, en := range clientPipeline(t, body) {
			want[entryKey(en)]++
		}
	}
	for k, n := range want {
		if have[k] < n {
			t.Fatalf("acked entry missing after reopen (%d/%d present): %s", have[k], n, k)
		}
	}
	t.Logf("verified %d acked batches (%d entries) durable; shutdown in %v", nAcked, len(want), shutDur)
}

// --- tentpole: graphite pump from a live serve backend ---

// TestServeGraphitePausedSinkNoStall wires a serve backend to a fake
// graphite sink, pauses the sink, and proves the serve tier never
// stalls: ingest and query requests keep succeeding at full speed while
// the pump counts drops, and metrics flow again after resume.
func TestServeGraphitePausedSinkNoStall(t *testing.T) {
	sink, err := graphite.NewFakeSink()
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	base, b, stop := startServe(t, serveBackendConfig{
		Dir:            t.TempDir(),
		SysName:        "liberty",
		StoreOpts:      store.Options{FlushEvery: 1 << 30},
		GraphiteAddr:   sink.Addr(),
		GraphiteEvery:  20 * time.Millisecond,
		GraphitePrefix: "logstudy",
	})

	body := ingestTestBody(t)
	post := func() time.Duration {
		t0 := time.Now()
		resp, err := http.Post(base+"/api/ingest", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest with graphite attached: %d", resp.StatusCode)
		}
		return time.Since(t0)
	}
	post()

	// Healthy sink first: metrics arrive.
	deadline := time.Now().Add(10 * time.Second)
	for len(sink.Lines()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no metrics reached the sink")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, ln := range sink.Lines() {
		if !strings.HasPrefix(ln, "logstudy.") {
			t.Fatalf("unprefixed metric line %q", ln)
		}
	}

	// Pause the sink and keep hammering the API. The contract is
	// serve-side: every request completes promptly no matter what the
	// sink does, and the pump's gather loop stays alive (sent+dropped
	// keeps advancing — where the overflow lands depends on how much the
	// kernel's socket buffers absorb, which the connector's own paused-
	// sink test pins; here we only require that serve never pays for it).
	sink.Pause()
	paused := b.pump.Stats()
	pauseUntil := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(pauseUntil) {
		if d := post(); d > 3*time.Second {
			t.Fatalf("serve request stalled %v behind a paused sink", d)
		}
		r, err := http.Get(base + "/api/aggregate")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("aggregate with paused sink: %d", r.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	during := b.pump.Stats()
	if during.BatchesSent+during.BatchesDropped <= paused.BatchesSent+paused.BatchesDropped {
		t.Fatalf("pump gather loop stalled behind the paused sink: %+v -> %+v", paused, during)
	}

	sink.Resume()
	before := len(sink.Lines())
	deadline = time.Now().Add(15 * time.Second)
	for len(sink.Lines()) <= before {
		if time.Now().After(deadline) {
			t.Fatalf("sink received nothing after resume: %+v", b.pump.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := stop(); err != nil {
		t.Fatalf("shutdown with graphite attached: %v", err)
	}
}
