package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"whatsupersay/internal/cluster"
	"whatsupersay/internal/filter"
	"whatsupersay/internal/ingest"
	"whatsupersay/internal/shard"
	"whatsupersay/internal/store"
	"whatsupersay/internal/tag"
)

// shardAPI serves one cluster — the only store shape there is. The
// cluster's failure envelope is surfaced, not hidden: query/aggregate
// responses carry a coverage block and a partial flag (HTTP 200 while
// any queried shard answers — degraded, never dead; 503 with the
// coverage block when none does), ingest backpressure becomes 429 +
// Retry-After, and GET /api/shards reports per-shard breaker and queue
// state.
type shardAPI struct {
	c    *shard.Cluster
	opts apiOptions
	hub  *pushHub
}

// newShardAPI builds the HTTP handler for one open cluster, and the push
// hub whose beginShutdown releases its SSE streams.
func newShardAPI(c *shard.Cluster, opts apiOptions) (http.Handler, *pushHub) {
	if opts.MaxBody == 0 {
		opts.MaxBody = defaultMaxBody
	}
	a := &shardAPI{c: c, opts: opts, hub: newPushHub()}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/query", instrument("/api/query", a.handleQuery))
	mux.HandleFunc("/api/aggregate", instrument("/api/aggregate", a.handleAggregate))
	mux.HandleFunc("/api/segments", instrument("/api/segments", a.handleSegments))
	mux.HandleFunc("/api/shards", instrument("/api/shards", a.handleShards))
	mux.HandleFunc("/api/ingest", instrument("/api/ingest", a.handleIngest))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"ok\":true,\"shards\":%d}\n", a.c.NumShards())
	})
	// Standing queries (subscribe.go): the cluster evaluates the merged
	// threshold, so one crossing spread across N shards pushes exactly
	// one event through the hub.
	mux.HandleFunc("POST /api/subscribe", instrument("/api/subscribe", a.handleSubscribe))
	mux.HandleFunc("GET /api/subscriptions", instrument("/api/subscriptions", a.handleSubscriptions))
	mux.HandleFunc("DELETE /api/subscribe/{id}", instrument("/api/unsubscribe", a.handleUnsubscribe))
	mux.HandleFunc("GET /api/subscribe/{id}/events", a.handleEvents)
	c.SetStandingNotify(func(ev shard.ClusterEvent) {
		a.hub.dispatch(subEvent{
			SubscriptionID: ev.SubscriptionID,
			Seq:            ev.Seq,
			Threshold:      ev.Threshold,
			Total:          ev.Total,
			Aggregate:      ev.Aggregate,
			ShardsStanding: ev.ShardsStanding,
			ShardsTotal:    ev.ShardsTotal,
		})
	})
	// Correlation mining + live prediction over the merged cluster view
	// (correlate_api.go).
	mux.HandleFunc("/api/correlations", instrument("/api/correlations", a.handleCorrelations))
	mux.HandleFunc("/api/predict", instrument("/api/predict", a.handlePredict))
	return opts.withRequestDeadlines(mux), a.hub
}

// writeGathered answers a scatter-gather request: 200 with the coverage
// block and partial flag beside the payload while any queried shard
// answered, 503 with the coverage block alone when none did — a lapsed
// request deadline or a cluster with every targeted shard down has
// nothing to show, and saying so beats an empty 200.
func writeGathered(w http.ResponseWriter, cov shard.Coverage, payload map[string]any) {
	if cov.ShardsAnswered == 0 {
		writeJSONStatus(w, http.StatusServiceUnavailable, cov)
		return
	}
	payload["coverage"] = cov
	payload["partial"] = cov.Partial
	writeJSON(w, payload)
}

// handleQuery scatters the select across the cluster and returns the
// merged entries, in canonical order, with coverage. A shard that is
// down, slow, or open degrades the response (partial:true) instead of
// failing it.
func (a *shardAPI) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	q := r.URL.Query()
	f, err := parseFilter(a.c.System(), q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit, err := parseLimit(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	entries, cov, stats, err := a.c.Select(r.Context(), f, limit)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := make([]entryJSON, 0, len(entries))
	for _, en := range entries {
		out = append(out, toEntryJSON(en))
	}
	writeGathered(w, cov, map[string]any{"stats": stats, "count": len(out), "entries": out})
}

// handleAggregate scatters the aggregation and merges the partials; the
// "aggregate" field over a fully-covered response is byte-identical to
// query.Aggregate over the batch pipeline's output on the same records
// (the differential tests pin that across layouts and shard counts).
func (a *shardAPI) handleAggregate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	q := r.URL.Query()
	f, err := parseFilter(a.c.System(), q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts, err := parseAggregateOptions(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	agg, cov, stats, err := a.c.Aggregate(r.Context(), f, opts)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeGathered(w, cov, map[string]any{"stats": stats, "aggregate": agg})
}

// handleShards is the operator view: every shard's breaker state, queue
// depth, failure counters, and store size — quarantined shards included.
func (a *shardAPI) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, map[string]any{
		"system":        a.c.System().ShortName(),
		"shards":        a.c.Health(),
		"total_entries": a.c.Len(),
	})
}

// handleSegments reports every shard's physical layout.
func (a *shardAPI) handleSegments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, map[string]any{
		"system":        a.c.System().ShortName(),
		"shards":        a.c.Segments(),
		"total_entries": a.c.Len(),
	})
}

// ingestResponse summarizes one POST /api/ingest batch: what the
// pipeline made of the lines, and where the entries went.
type ingestResponse struct {
	Lines       int         `json:"lines"`
	ParseErrors int         `json:"parse_errors"`
	Alerts      int         `json:"alerts"`
	Kept        int         `json:"kept"`
	Appended    int         `json:"appended"`
	PerShard    map[int]int `json:"per_shard"`
	Rejected    map[int]int `json:"rejected,omitempty"`
	// RejectedSources names the bounced sources per rejected shard — the
	// retry unit for a 429 (see handleIngest).
	RejectedSources map[int][]string `json:"rejected_sources,omitempty"`
	Errors          map[int]string   `json:"errors,omitempty"`
}

// handleIngest streams raw log lines through the batch pipeline's exact
// stages — parse, tag, canonical sort, Algorithm 3.1 — and the same
// store.FromAlerts conversion build-store uses, so served aggregates
// stay differential-equal to the batch pipeline no matter which path
// loaded the records, then routes the entries by source hash. The 200
// is written only after every shard's worker applied its slice: an
// acked batch is in the wal. A shard whose bounded queue is full turns
// the whole response into 429 + Retry-After — but slices routed to
// healthy shards have already durably landed, and the store does not
// dedup, so the client must NOT replay the full batch: resend only the
// records whose sources appear in rejected_sources, after Retry-After.
// A shard whose append failed turns the response into 500 with
// per-shard detail. Either way the response says exactly what landed —
// partial acceptance is reported, never hidden.
func (a *shardAPI) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	sys := a.c.System()
	m, err := cluster.New(sys)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body := r.Body
	if a.opts.MaxBody > 0 {
		// The cap also closes the connection on overrun, so a client
		// streaming an unbounded body cannot hold the handler hostage.
		body = http.MaxBytesReader(w, r.Body, a.opts.MaxBody)
	}
	recs, stats, err := ingest.ReadAll(body, sys, m.LogStart)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "ingest: body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "ingest: %v", err)
		return
	}
	// ReadAll's records are canonical and tagging keeps their order.
	alerts := tag.NewTagger(sys).TagAll(recs)
	filtered := filter.Simultaneous{T: filter.DefaultThreshold}.Filter(alerts)
	entries := store.FromAlerts(alerts, filtered)

	rep, err := a.c.Append(entries)
	if err != nil {
		// Append only fails outright on a closed cluster: shutting down.
		httpError(w, http.StatusServiceUnavailable, "ingest: %v", err)
		return
	}
	resp := ingestResponse{
		Lines:           stats.Lines,
		ParseErrors:     stats.ParseErrors,
		Alerts:          len(alerts),
		Kept:            len(filtered),
		Appended:        rep.Appended,
		PerShard:        rep.PerShard,
		Rejected:        rep.Rejected,
		RejectedSources: rep.RejectedSources,
		Errors:          rep.Errors,
	}
	switch {
	case len(rep.Rejected) > 0:
		// Backpressure: tell the client when to come back.
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(rep.RetryAfter.Seconds()))))
		writeJSONStatus(w, http.StatusTooManyRequests, resp)
	case len(rep.Errors) > 0:
		writeJSONStatus(w, http.StatusInternalServerError, resp)
	default:
		writeJSON(w, resp)
	}
}
