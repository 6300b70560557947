package main

// Correlation-mining and live-prediction endpoints:
//
//	GET /api/correlations  the weighted event-correlation graph the
//	                       online miner maintains off the mutation
//	                       stream (filter with min_support,
//	                       min_confidence, node; bound with limit)
//	GET /api/predict       current warnings plus the per-category
//	                       predictor scoreboard AutoSelect maintains
//	                       over the mined graph and baseline predictors
//
// Responses are views over miner state — serving them never rescans the
// store. The graph is the merged cluster view: per-shard timestamp
// columns unioned and edges recomputed, so cross-shard precedence pairs
// are counted exactly (see internal/shard).
//
// Both endpoints carry a "settled" field: false while a baseline scan
// or a retention re-baseline is still installing, so clients
// can tell a warming view from a quiet system.

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"whatsupersay/internal/correlate"
)

// List-endpoint response bounds (satellite: /api/subscriptions shares
// them). The default keeps accidental curls small; the max keeps a
// hostile limit from ballooning a response.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// parseBoundedLimit reads the limit parameter for list endpoints:
// default when absent, 400 (via error) when not an integer in
// [1, maxListLimit].
func parseBoundedLimit(q url.Values) (int, error) {
	limit := defaultListLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxListLimit {
			return 0, fmt.Errorf("bad limit %q: want an integer in 1..%d", v, maxListLimit)
		}
		limit = n
	}
	return limit, nil
}

// handleCorrelations serves the correlation graph. Query parameters:
//
//	limit           max nodes and max edges returned (default 100, max 1000)
//	min_support     drop edges with fewer co-occurrence pairs
//	min_confidence  drop edges below this P(target | source)
//	node            keep only edges touching this node (neighborhood view)
func (a *shardAPI) handleCorrelations(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	q := r.URL.Query()
	limit, err := parseBoundedLimit(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	minSupport := 0
	if v := q.Get("min_support"); v != "" {
		if minSupport, err = strconv.Atoi(v); err != nil || minSupport < 0 {
			httpError(w, http.StatusBadRequest, "bad min_support %q", v)
			return
		}
	}
	minConfidence := 0.0
	if v := q.Get("min_confidence"); v != "" {
		if minConfidence, err = strconv.ParseFloat(v, 64); err != nil || minConfidence < 0 || minConfidence > 1 {
			httpError(w, http.StatusBadRequest, "bad min_confidence %q: want a number in [0, 1]", v)
			return
		}
	}

	g := a.c.CorrelationGraph()
	edges := correlate.FilterEdges(g.Edges, int64(minSupport), minConfidence, q.Get("node"))
	nodeCount, edgeCount := len(g.Nodes), len(edges)
	nodes := g.Nodes
	if len(nodes) > limit {
		nodes = nodes[:limit]
	}
	if len(edges) > limit {
		edges = edges[:limit]
	}
	writeJSON(w, map[string]any{
		"window_ns":  g.Window,
		"node_mode":  g.NodeMode,
		"events":     g.Events,
		"settled":    a.c.CorrelateSettled(),
		"node_count": nodeCount,
		"nodes":      nodes,
		"edge_count": edgeCount,
		"edges":      edges,
		"truncated":  nodeCount > limit || edgeCount > limit,
	})
}

// handlePredict serves the live failure-prediction view: the warnings
// active in the horizon ending at the newest event, and the
// per-category champion scoreboard. limit bounds both lists.
func (a *shardAPI) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	limit, err := parseBoundedLimit(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rep := a.c.PredictionReport(a.opts.Predict)
	scoreCount, warnCount := len(rep.Scoreboard), len(rep.Warnings)
	scoreboard := rep.Scoreboard
	if len(scoreboard) > limit {
		scoreboard = scoreboard[:limit]
	}
	warnings := rep.Warnings
	if len(warnings) > limit {
		warnings = warnings[:limit]
	}
	writeJSON(w, map[string]any{
		"as_of":            rep.AsOf,
		"horizon_ns":       rep.Horizon,
		"events":           rep.Events,
		"categories":       rep.Categories,
		"settled":          a.c.CorrelateSettled(),
		"scoreboard_count": scoreCount,
		"scoreboard":       scoreboard,
		"warning_count":    warnCount,
		"warnings":         warnings,
		"truncated":        scoreCount > limit || warnCount > limit,
	})
}
