package main

// Standing-query subscriptions over HTTP, four endpoints:
//
//	POST   /api/subscribe             register a standing query
//	GET    /api/subscriptions         list subscriptions with live totals
//	GET    /api/subscribe/{id}/events SSE stream: state snapshot + fires
//	DELETE /api/subscribe/{id}        remove a subscription
//
// A subscription is a (filter, aggregate options, threshold) triple
// whose aggregate the cluster's per-shard registries maintain
// incrementally off the stores' mutation streams — serving it never
// rescans. When the merged total crosses the threshold the server pushes one event (edge-triggered) to
// every connected SSE client and, if the subscription carries a webhook
// URL, POSTs the event JSON there.
//
// Push semantics are at-most-once: a slow SSE client's buffer overflow
// drops events (counted in standing_push_drops_total) and webhook
// deliveries are one attempt with a 5s budget, no retry (failures in
// standing_push_failures_total). The subscription listing remains the
// source of truth — Events counts every fire whether or not any push
// landed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"whatsupersay/internal/obs"
	"whatsupersay/internal/query"
	"whatsupersay/internal/shard"
)

// Push-delivery telemetry.
var (
	mStandingPushes       = obs.Default.Counter("standing_pushes_total")
	mStandingPushFailures = obs.Default.Counter("standing_push_failures_total")
	mStandingPushDrops    = obs.Default.Counter("standing_push_drops_total")
	hStandingPushLatency  = obs.Default.Histogram("standing_push_latency_seconds", obs.Seconds)
)

// subEvent is the wire form of one threshold crossing, shared by the
// SSE stream and the webhook body.
type subEvent struct {
	SubscriptionID string            `json:"id"`
	Seq            uint64            `json:"seq"`
	Threshold      int               `json:"threshold"`
	Total          int               `json:"total"`
	Aggregate      query.Aggregation `json:"aggregate"`
	ShardsStanding int               `json:"shards_standing"`
	ShardsTotal    int               `json:"shards_total"`
	FiredAt        time.Time         `json:"fired_at"`
}

// subJSON is the wire form of one subscription in listings and the
// subscribe response.
type subJSON struct {
	ID             string `json:"id"`
	Threshold      int    `json:"threshold"`
	Total          int    `json:"total"`
	Fired          bool   `json:"fired"`
	Events         uint64 `json:"events"`
	Webhook        string `json:"webhook,omitempty"`
	ShardsStanding int    `json:"shards_standing"`
	ShardsTotal    int    `json:"shards_total"`
}

func clusterSubJSON(info shard.ClusterSubInfo) subJSON {
	return subJSON{ID: info.ID, Threshold: info.Threshold, Total: info.Total,
		Fired: info.Fired, Events: info.Events,
		ShardsStanding: info.ShardsStanding, ShardsTotal: info.ShardsTotal}
}

// pushHub fans fired events out to SSE clients and webhooks. dispatch
// is called from the registries' notify hooks — which may run under a
// registry lock — so it never blocks: SSE sends are non-blocking (full
// buffer = drop) and webhook POSTs run on their own goroutine.
type pushHub struct {
	mu       sync.Mutex
	clients  map[string]map[chan subEvent]struct{}
	webhooks map[string]string
	client   *http.Client
	// shutdown broadcasts "the server is draining": SSE streams select
	// on it and finish, so a graceful Shutdown is not held hostage by
	// connections that by design never end.
	shutdown     chan struct{}
	shutdownOnce sync.Once
}

func newPushHub() *pushHub {
	return &pushHub{
		clients:  map[string]map[chan subEvent]struct{}{},
		webhooks: map[string]string{},
		client:   &http.Client{Timeout: 5 * time.Second},
		shutdown: make(chan struct{}),
	}
}

// beginShutdown releases every attached SSE stream. Idempotent.
func (h *pushHub) beginShutdown() {
	h.shutdownOnce.Do(func() { close(h.shutdown) })
}

// sseBuffer is each SSE client's event buffer; a client this far behind
// on rare edge-triggered fires is dead or wedged, and dropping beats
// blocking the notify path.
const sseBuffer = 8

func (h *pushHub) attach(id string) chan subEvent {
	ch := make(chan subEvent, sseBuffer)
	h.mu.Lock()
	defer h.mu.Unlock()
	set := h.clients[id]
	if set == nil {
		set = map[chan subEvent]struct{}{}
		h.clients[id] = set
	}
	set[ch] = struct{}{}
	return ch
}

func (h *pushHub) detach(id string, ch chan subEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if set := h.clients[id]; set != nil {
		delete(set, ch)
		if len(set) == 0 {
			delete(h.clients, id)
		}
	}
}

func (h *pushHub) setWebhook(id, url string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if url == "" {
		delete(h.webhooks, id)
		return
	}
	h.webhooks[id] = url
}

func (h *pushHub) webhookOf(id string) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.webhooks[id]
}

// drop forgets a removed subscription's webhook. Attached SSE clients
// simply stop receiving; their handlers exit when the client hangs up.
func (h *pushHub) drop(id string) { h.setWebhook(id, "") }

// dispatch pushes one fired event to every attached SSE client and the
// subscription's webhook, if any. Must not block (see type doc).
func (h *pushHub) dispatch(ev subEvent) {
	ev.FiredAt = time.Now()
	h.mu.Lock()
	chans := make([]chan subEvent, 0, len(h.clients[ev.SubscriptionID]))
	for ch := range h.clients[ev.SubscriptionID] {
		chans = append(chans, ch)
	}
	hook := h.webhooks[ev.SubscriptionID]
	h.mu.Unlock()

	for _, ch := range chans {
		select {
		case ch <- ev:
		default:
			mStandingPushDrops.Add(1)
		}
	}
	if hook != "" {
		go h.postWebhook(hook, ev)
	}
}

// postWebhook is the one-attempt webhook delivery: POST the event JSON,
// 5s budget, any error or non-2xx is a counted failure, never a retry.
func (h *pushHub) postWebhook(url string, ev subEvent) {
	mStandingPushes.Add(1)
	body, err := json.Marshal(ev)
	if err != nil {
		mStandingPushFailures.Add(1)
		return
	}
	resp, err := h.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		mStandingPushFailures.Add(1)
		return
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		mStandingPushFailures.Add(1)
		return
	}
	hStandingPushLatency.ObserveSince(ev.FiredAt)
}

// subscribeRequest is the POST /api/subscribe body. Filter and option
// fields are strings with exactly the syntax of the GET query
// parameters of /api/aggregate, so the two surfaces cannot drift.
type subscribeRequest struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Source    string `json:"source"`
	Category  string `json:"category"`
	Severity  string `json:"severity"`
	Kept      string `json:"kept"`
	Body      string `json:"body"`
	TopK      string `json:"topk"`
	Quantiles string `json:"quantiles"`
	Threshold int    `json:"threshold"`
	Webhook   string `json:"webhook"`
}

// values rebuilds the shared query-parameter form so parseFilter and
// parseAggregateOptions (including strict quantile validation) apply
// verbatim.
func (req subscribeRequest) values() url.Values {
	v := url.Values{}
	set := func(k, s string) {
		if s != "" {
			v.Set(k, s)
		}
	}
	set("from", req.From)
	set("to", req.To)
	set("source", req.Source)
	set("category", req.Category)
	set("severity", req.Severity)
	set("kept", req.Kept)
	set("body", req.Body)
	set("topk", req.TopK)
	set("quantiles", req.Quantiles)
	return v
}

func (a *shardAPI) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req subscribeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "subscribe: %v", err)
		return
	}
	vals := req.values()
	f, err := parseFilter(a.c.System(), vals)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts, err := parseAggregateOptions(vals)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Threshold < 0 {
		httpError(w, http.StatusBadRequest, "bad threshold %d", req.Threshold)
		return
	}
	if req.Webhook != "" {
		u, err := url.Parse(req.Webhook)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			httpError(w, http.StatusBadRequest, "bad webhook %q: need an absolute http(s) URL", req.Webhook)
			return
		}
	}
	cinfo, err := a.c.Subscribe(f, opts, req.Threshold)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "subscribe: %v", err)
		return
	}
	info := clusterSubJSON(cinfo)
	if req.Webhook != "" {
		a.hub.setWebhook(info.ID, req.Webhook)
		info.Webhook = req.Webhook
	}
	writeJSONStatus(w, http.StatusCreated, info)
}

// handleSubscriptions lists subscriptions, bounded by the shared limit
// parameter (default 100, max 1000, 400 on garbage) so a server with
// thousands of standing queries cannot be made to render them all in
// one response. count is the full population; truncated flags a
// clipped listing.
func (a *shardAPI) handleSubscriptions(w http.ResponseWriter, r *http.Request) {
	limit, err := parseBoundedLimit(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	infos := a.c.Subscriptions()
	total := len(infos)
	if len(infos) > limit {
		infos = infos[:limit]
	}
	subs := make([]subJSON, 0, len(infos))
	for _, info := range infos {
		sub := clusterSubJSON(info)
		sub.Webhook = a.hub.webhookOf(sub.ID)
		subs = append(subs, sub)
	}
	writeJSON(w, map[string]any{"count": total, "subscriptions": subs, "truncated": total > limit})
}

func (a *shardAPI) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !a.c.Unsubscribe(id) {
		httpError(w, http.StatusNotFound, "unknown subscription %q", id)
		return
	}
	a.hub.drop(id)
	writeJSON(w, map[string]any{"removed": id})
}

// sseHeartbeat keeps idle streams alive through proxies and surfaces
// dead client connections to the server.
const sseHeartbeat = 15 * time.Second

// handleEvents is the SSE stream: an immediate `state` event carrying
// the subscription's current materialized aggregate, then one `fire`
// event per threshold crossing, with comment heartbeats in between.
func (a *shardAPI) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	agg, ok := a.c.StandingAggregate(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown subscription %q", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	// A standing stream must outlive the server's per-request write
	// budget — it is the one endpoint meant to stay open.
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Time{})

	ch := a.hub.attach(id)
	defer a.hub.detach(id, ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if err := writeSSE(w, "state", map[string]any{"id": id, "aggregate": agg}); err != nil {
		return
	}
	fl.Flush()

	beat := sseHeartbeat
	if a.opts.SSEHeartbeat > 0 {
		beat = a.opts.SSEHeartbeat
	}
	hb := time.NewTicker(beat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-a.hub.shutdown:
			return
		case ev := <-ch:
			if err := writeSSE(w, "fire", ev); err != nil {
				return
			}
			fl.Flush()
			mStandingPushes.Add(1)
			hStandingPushLatency.ObserveSince(ev.FiredAt)
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeSSE emits one server-sent event with a JSON payload.
func writeSSE(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}
