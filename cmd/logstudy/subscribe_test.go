package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/shard"
	"whatsupersay/internal/store"
)

// The subscribe smoke contract: registering a standing query, streaming
// its SSE feed, and crossing the threshold produces exactly ONE fire
// event — however many shards the crossing is spread over — and a fresh
// stream's state snapshot is byte-identical to /api/aggregate over the
// same records.

// subEntries fabricates n Liberty entries spread over several sources.
func subEntries(base time.Time, startSeq uint64, n int) []store.Entry {
	sevs := []logrec.Severity{logrec.SevErr, logrec.SevCrit, logrec.SevWarning}
	out := make([]store.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, store.Entry{
			Record: logrec.Record{
				Seq:      startSeq + uint64(i),
				Time:     base.Add(time.Duration(i) * time.Second),
				System:   logrec.Liberty,
				Source:   fmt.Sprintf("ladmin%d", i%9),
				Severity: sevs[i%len(sevs)],
				Program:  "kernel",
				Body:     fmt.Sprintf("subscribe smoke %d", i),
			},
			Category: []string{"MPT_BUS_RESET", "SCSI_ABORT"}[i%2],
			Kept:     i%3 != 0,
		})
	}
	return out
}

// postSubscribe registers a subscription and returns the response body.
func postSubscribe(t *testing.T, baseURL string, req subscribeRequest) subJSON {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(baseURL+"/api/subscribe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe: %d: %s", resp.StatusCode, raw)
	}
	var info subJSON
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatalf("subscribe response %q: %v", raw, err)
	}
	return info
}

// sseStream opens an SSE connection and parses events onto a channel.
type sseStream struct {
	events <-chan sseEvent
	close  func()
}

type sseEvent struct {
	name string
	data string
}

func openSSE(t *testing.T, url string) *sseStream {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("SSE open: %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	ch := make(chan sseEvent, 16)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		var name, data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "":
				if name != "" {
					ch <- sseEvent{name, data}
				}
				name, data = "", ""
			}
		}
	}()
	return &sseStream{events: ch, close: func() { resp.Body.Close() }}
}

// next waits for the stream's next event, failing on timeout.
func (s *sseStream) next(t *testing.T, want string) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-s.events:
		if !ok {
			t.Fatalf("SSE stream closed waiting for %q", want)
		}
		if ev.name != want {
			t.Fatalf("SSE event %q (%s), want %q", ev.name, ev.data, want)
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatalf("no %q event within 5s", want)
		return sseEvent{}
	}
}

// quiet asserts no event arrives for a grace window — the at-most-once
// half of the edge-trigger contract.
func (s *sseStream) quiet(t *testing.T, d time.Duration) {
	t.Helper()
	select {
	case ev, ok := <-s.events:
		if ok {
			t.Fatalf("unexpected SSE event %q: %s", ev.name, ev.data)
		}
	case <-time.After(d):
	}
}

func TestSubscribeSmoke(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) { subscribeSmoke(t, l) })
	}
}

func subscribeSmoke(t *testing.T, l layout) {
	srv, c := newTestServer(t, l, nil, shard.Options{Store: store.Options{FlushEvery: 1000}})
	appendEntries := func(entries []store.Entry) {
		t.Helper()
		if ar, err := c.Append(entries); err != nil || ar.Appended != len(entries) {
			t.Fatalf("append: %v, %+v", err, ar)
		}
	}

	// A webhook target that records every delivery.
	var whMu sync.Mutex
	var hooks []subEvent
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev subEvent
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		whMu.Lock()
		hooks = append(hooks, ev)
		whMu.Unlock()
	}))
	t.Cleanup(hook.Close)

	info := postSubscribe(t, srv.URL, subscribeRequest{Threshold: 5, Webhook: hook.URL})
	if info.ID == "" || info.Threshold != 5 || info.Total != 0 || info.Webhook != hook.URL ||
		info.ShardsStanding != l.shards || info.ShardsTotal != l.shards {
		t.Fatalf("subscribe response %+v", info)
	}

	stream := openSSE(t, srv.URL+"/api/subscribe/"+info.ID+"/events")
	defer stream.close()
	state := stream.next(t, "state")
	if !strings.Contains(state.data, `"total":0`) {
		t.Fatalf("initial state: %s", state.data)
	}

	base := time.Date(2004, 1, 5, 0, 0, 0, 0, time.UTC)
	// Below the threshold: no fire.
	appendEntries(subEntries(base, 0, 3))
	stream.quiet(t, 100*time.Millisecond)

	// Crossing: exactly one fire, with the incremental aggregate inline.
	// Spread over several shards the latch may trip before the last
	// shard's slice lands, so the event's total is anywhere from the
	// threshold to everything appended — never less, and always the
	// total of the aggregate it carries; one shard sees it all at once.
	appendEntries(subEntries(base.Add(time.Minute), 10, 4))
	fire := stream.next(t, "fire")
	var ev subEvent
	if err := json.Unmarshal([]byte(fire.data), &ev); err != nil {
		t.Fatalf("fire payload %q: %v", fire.data, err)
	}
	if ev.SubscriptionID != info.ID || ev.Threshold != 5 || ev.Seq != 1 || ev.ShardsStanding != l.shards ||
		ev.Total < 5 || ev.Total > 7 || (l.shards == 1 && ev.Total != 7) || ev.Aggregate.Total != ev.Total {
		t.Fatalf("fire event %+v", ev)
	}

	// Staying above the line: still exactly one.
	appendEntries(subEntries(base.Add(2*time.Minute), 20, 5))
	stream.quiet(t, 150*time.Millisecond)

	// The webhook got the same single event.
	deadline := time.Now().Add(2 * time.Second)
	for {
		whMu.Lock()
		n := len(hooks)
		whMu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("webhook never delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	whMu.Lock()
	if len(hooks) != 1 || hooks[0].SubscriptionID != info.ID || hooks[0].Total != ev.Total {
		t.Fatalf("webhook deliveries %+v", hooks)
	}
	whMu.Unlock()

	// Listing reflects the live total and the single fire.
	var list struct {
		Count int       `json:"count"`
		Subs  []subJSON `json:"subscriptions"`
	}
	getJSON(t, srv.URL+"/api/subscriptions", &list)
	if list.Count != 1 || list.Subs[0].Total != 12 || list.Subs[0].Events != 1 || !list.Subs[0].Fired {
		t.Fatalf("subscriptions listing %+v", list)
	}

	// A fresh stream's state snapshot — served from the merged per-shard
	// materializations, no rescan — is byte-identical to a from-scratch
	// scatter-gather /api/aggregate.
	fresh := openSSE(t, srv.URL+"/api/subscribe/"+info.ID+"/events")
	defer fresh.close()
	var snap struct {
		Aggregate json.RawMessage `json:"aggregate"`
	}
	if err := json.Unmarshal([]byte(fresh.next(t, "state").data), &snap); err != nil {
		t.Fatal(err)
	}
	var scanned aggResponse
	getJSON(t, srv.URL+"/api/aggregate", &scanned)
	if string(snap.Aggregate) != string(scanned.Aggregate) {
		t.Fatalf("materialized state diverges from /api/aggregate\nstate: %s\nfresh: %s", snap.Aggregate, scanned.Aggregate)
	}

	// DELETE removes it; the listing empties; a second DELETE 404s.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/subscribe/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unsubscribe: %d", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double unsubscribe: %d", resp.StatusCode)
	}
	getJSON(t, srv.URL+"/api/subscriptions", &list)
	if list.Count != 0 {
		t.Fatalf("listing after unsubscribe %+v", list)
	}
}

// TestSubscribeValidation pins the request-side 400s, including the
// strict quantile validation shared with /api/aggregate.
func TestSubscribeValidation(t *testing.T) {
	srv, _ := newTestServer(t, flat, nil, shard.Options{})

	bad := []subscribeRequest{
		{Quantiles: "NaN"},           // parses as a float, not a quantile
		{Quantiles: "+Inf"},          // same
		{Quantiles: "0.9,0.5"},       // not strictly increasing
		{Quantiles: "0"},             // out of (0, 1]
		{Quantiles: "1.5"},           // out of (0, 1]
		{Quantiles: "abc"},           // not a float at all
		{TopK: "x"},                  // bad topk
		{Threshold: -1},              // negative threshold
		{Webhook: "not-a-url"},       // relative / schemeless webhook
		{Webhook: "ftp://host/path"}, // non-http scheme
		{From: "yesterday"},          // bad time
		{Kept: "maybe"},              // bad bool
	}
	for _, req := range bad {
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/api/subscribe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("subscribe %+v: status %d (%s), want 400", req, resp.StatusCode, raw)
		}
	}

	// The same garbage quantiles 400 on the aggregate endpoint (the
	// validation satellite): they must never reach the stats layer or
	// poison a cache entry.
	for _, qs := range []string{"NaN", "+Inf", "0.9,0.5", "0", "1.5"} {
		resp, err := http.Get(srv.URL + "/api/aggregate?quantiles=" + strings.ReplaceAll(qs, "+", "%2B"))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("aggregate quantiles=%s: status %d (%s), want 400", qs, resp.StatusCode, raw)
		}
	}

	// SSE and DELETE on an unknown id 404, and only the exact id
	// Subscribe issued is known: while csub-1 is live, near misses and
	// the old per-shard namespace are unknown.
	if live := postSubscribe(t, srv.URL, subscribeRequest{}); live.ID != "csub-1" {
		t.Fatalf("first subscription id %q, want csub-1", live.ID)
	}
	for _, id := range []string{"sub-999", "csub-1x", "csub-01", "csub-+1", "csub-", "sub-1", ""} {
		// An empty id never reaches the events handler: the mux cleans
		// "//events" and redirects to /api/subscribe/events, the DELETE
		// route's path (405). The cluster test covers "" directly.
		if id != "" {
			resp, err := http.Get(srv.URL + "/api/subscribe/" + id + "/events")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("events on id %q: %d", id, resp.StatusCode)
			}
		}
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/subscribe/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("delete id %q: %d", id, resp.StatusCode)
		}
	}
}
