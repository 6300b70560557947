package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"whatsupersay/internal/correlate"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
	"whatsupersay/internal/query"
	"whatsupersay/internal/store"
)

// runServe answers alert queries out of a store built by `build-store`
// (or filled through POST /api/ingest), so interarrival quantiles,
// top-k sources, and filter-reduction ratios come back without
// re-running the batch pipeline. The API is JSON over HTTP:
//
//	GET  /api/query      matching entries (filter params + limit)
//	GET  /api/aggregate  the standard aggregation over the match
//	GET  /api/segments   every shard's sealed-segment inventory
//	GET  /api/shards     every shard's breaker, pending ingest and store state
//	POST /api/ingest     raw log lines -> tag -> filter -> append
//	GET  /healthz        liveness and the shard count
//
// The store is always a cluster (internal/shard) of one or more shards:
// ingest routes by source hash, queries scatter-gather with per-shard
// breakers and deadlines, and responses carry coverage metadata. A
// one-shard cluster is a plain store directory, so what `build-store`
// wrote is served in place.
func runServe(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (required)")
	addr := fs.String("addr", "localhost:8080", "listen address")
	sysName := fs.String("system", "", "create the store for this system if the directory is not one yet")
	flushEvery := fs.Int("flush-every", store.DefaultFlushEvery, "seal a segment every N appended entries")
	syncAppends := fs.Bool("sync", false, "fsync the wal after every ingest batch")
	maxBody := fs.Int64("max-body", defaultMaxBody, "largest POST /api/ingest body accepted, in bytes (413 beyond it)")
	cacheSize := fs.Int("cache", query.DefaultCacheSize, "aggregate-result cache entries (0 disables the cache)")
	compactEvery := fs.Duration("compact-every", 0, "run retention + compaction in the background on this interval (0 = never)")
	compactTarget := fs.Int("compact-target", 0, "merged-segment size goal, in entries (default 4x flush-every)")
	retention := fs.Duration("retention", 0, "drop segments older than this horizon before the newest record (0 = keep everything)")
	shards := fs.Int("shards", 0, "shard count when creating the store (default 1); an existing directory keeps its on-disk shape, and naming another is a usage error")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline on query/aggregate handlers (0 = none)")
	shutdownGrace := fs.Duration("shutdown-grace", defaultShutdownGrace, "budget for draining in-flight requests on SIGTERM")
	corrWindow := fs.Duration("correlate-window", correlate.DefaultWindow, "co-occurrence window for the online correlation miner")
	corrNodes := fs.String("correlate-nodes", "category", "correlation node identity: category, source-category, or template")
	graphiteAddr := fs.String("graphite", "", "pump aggregate metrics to this graphite (carbon plaintext) host:port")
	graphiteEvery := fs.Duration("graphite-every", 10*time.Second, "graphite pump cadence")
	graphitePrefix := fs.String("graphite-prefix", "logstudy", "graphite metric path prefix")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	if *dir == "" {
		return usageError("serve: -dir is required")
	}
	nodeMode, err := correlate.ParseNodeMode(*corrNodes)
	if err != nil {
		return usageError(fmt.Sprintf("serve: %v", err))
	}
	b, err := openServeBackend(serveBackendConfig{
		Dir:     *dir,
		SysName: *sysName,
		Shards:  *shards,
		StoreOpts: store.Options{
			FlushEvery:    *flushEvery,
			SyncAppends:   *syncAppends,
			CompactTarget: *compactTarget,
			CompactEvery:  *compactEvery,
			Retention:     *retention,
		},
		APIOpts: apiOptions{
			MaxBody: *maxBody, CacheSize: *cacheSize, RequestTimeout: *reqTimeout,
			Correlate: correlate.Config{Window: *corrWindow, NodeMode: nodeMode},
		},
		GraphiteAddr:   *graphiteAddr,
		GraphiteEvery:  *graphiteEvery,
		GraphitePrefix: *graphitePrefix,
	}, w)
	if err != nil {
		return err
	}

	// SIGTERM is how orchestrators (systemd, Kubernetes) ask for a
	// graceful stop; treat it exactly like Ctrl-C.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveAndWait(ctx, b, *addr, *reqTimeout, *shutdownGrace, w, nil)
}

// defaultMaxBody bounds POST /api/ingest bodies: large enough for any
// reasonable batch, small enough that one request cannot balloon the
// server's memory (ingest buffers the parsed records).
const defaultMaxBody = int64(32 << 20)

// writeTimeout derives the server's WriteTimeout from the per-request
// deadline: the handler budget plus headroom to stream the response.
// With no request deadline there is no write timeout either (bulk
// /api/query responses can be legitimately large).
func writeTimeout(reqTimeout time.Duration) time.Duration {
	if reqTimeout <= 0 {
		return 0
	}
	return reqTimeout + 10*time.Second
}

// apiOptions tune the HTTP layer.
type apiOptions struct {
	// MaxBody caps POST /api/ingest bodies in bytes (defaultMaxBody
	// when zero; negative disables the cap — tests only).
	MaxBody int64
	// CacheSize enables the cluster's aggregate-result cache with this
	// many entries (0 disables it).
	CacheSize int
	// RequestTimeout bounds each query/aggregate handler: the request
	// context gets this deadline and the scan aborts cooperatively when
	// it passes (0 = no per-request deadline).
	RequestTimeout time.Duration
	// Correlate configures the online correlation miner behind
	// /api/correlations (zero value = defaults).
	Correlate correlate.Config
	// Predict tunes the /api/predict evaluation (zero value = defaults).
	Predict correlate.PredictOptions
	// SSEHeartbeat overrides the SSE comment-heartbeat cadence (default
	// sseHeartbeat; tests shrink it to cross deadline windows quickly).
	SSEHeartbeat time.Duration
}

// isSSERequest recognizes GET /api/subscribe/{id}/events — the one
// endpoint that is designed to outlive every per-request budget.
func isSSERequest(r *http.Request) bool {
	return r.Method == http.MethodGet &&
		strings.HasPrefix(r.URL.Path, "/api/subscribe/") &&
		strings.HasSuffix(r.URL.Path, "/events")
}

// withRequestDeadlines applies RequestTimeout to every route's context
// uniformly — except the SSE stream, which must be exempt from both
// this deadline and the server's WriteTimeout (the handler clears the
// latter itself) or every subscriber would be dropped mid-heartbeat
// the moment the budget elapses. TestSSEExemptFromRequestTimeout pins
// the exemption.
func (o apiOptions) withRequestDeadlines(h http.Handler) http.Handler {
	if o.RequestTimeout <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isSSERequest(r) {
			h.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), o.RequestTimeout)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// instrument wraps a handler with per-path request latency and count
// metrics on the process registry, so `-http` exposes serve telemetry
// next to the pipeline stages.
func instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	lat := obs.Default.Histogram(fmt.Sprintf("serve_request_seconds{path=%q}", path), obs.Seconds)
	count := obs.Default.Counter(fmt.Sprintf("serve_requests_total{path=%q}", path))
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		lat.ObserveSince(start)
		count.Inc()
	}
}

// httpError reports an error as a JSON body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSONStatus(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// parseFilter builds a store filter from the shared query parameters —
// from/to (RFC 3339), source/category/severity (comma-separated), kept,
// body (substring-of-message predicate; compared against the record
// bytes in place, on the same scan path as every other filter, see
// DESIGN.md §11) — for a store of the given system (severities parse on
// its native scale).
func parseFilter(sys logrec.System, q url.Values) (store.Filter, error) {
	var f store.Filter
	var err error
	if v := q.Get("from"); v != "" {
		if f.From, err = time.Parse(time.RFC3339, v); err != nil {
			return f, fmt.Errorf("bad from: %w", err)
		}
	}
	if v := q.Get("to"); v != "" {
		if f.To, err = time.Parse(time.RFC3339, v); err != nil {
			return f, fmt.Errorf("bad to: %w", err)
		}
	}
	f.Sources = splitList(q.Get("source"))
	f.Categories = splitList(q.Get("category"))
	for _, name := range splitList(q.Get("severity")) {
		sev, err := parseSeverity(sys, name)
		if err != nil {
			return f, err
		}
		f.Severities = append(f.Severities, sev)
	}
	if v := q.Get("kept"); v != "" {
		kept, err := strconv.ParseBool(v)
		if err != nil {
			return f, fmt.Errorf("bad kept: %w", err)
		}
		f.Kept = &kept
	}
	f.BodyContains = q.Get("body")
	return f, nil
}

// parseAggregateOptions reads the topk/quantiles parameters shared by
// /api/aggregate and POST /api/subscribe.
func parseAggregateOptions(q url.Values) (query.AggregateOptions, error) {
	var opts query.AggregateOptions
	var err error
	if v := q.Get("topk"); v != "" {
		if opts.TopK, err = strconv.Atoi(v); err != nil || opts.TopK <= 0 {
			return opts, fmt.Errorf("bad topk %q", v)
		}
	}
	for _, part := range splitList(q.Get("quantiles")) {
		p, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return opts, fmt.Errorf("bad quantile %q", part)
		}
		opts.Quantiles = append(opts.Quantiles, p)
	}
	// Strict request-side validation (finite, in (0, 1], strictly
	// increasing) with a detail message: garbage quantiles must 400
	// here, not flow into stats.Percentiles and poison a cache entry.
	// ParseFloat accepts "NaN" and "+Inf", so the parse above alone is
	// not enough.
	if err := query.ValidateQuantiles(opts.Quantiles); err != nil {
		return opts, fmt.Errorf("bad quantiles: %w", err)
	}
	return opts, nil
}

// parseLimit reads the limit parameter with its default.
func parseLimit(q url.Values) (int, error) {
	limit := 100
	if v := q.Get("limit"); v != "" {
		var err error
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			return 0, fmt.Errorf("bad limit %q", v)
		}
	}
	return limit, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseSeverity resolves a severity name on the store's native scale:
// the BG/L RAS scale for BG/L stores, BSD syslog for the other four.
func parseSeverity(sys logrec.System, name string) (logrec.Severity, error) {
	if strings.EqualFold(strings.TrimSpace(name), "UNKNOWN") {
		return logrec.SeverityUnknown, nil
	}
	if sys == logrec.BlueGeneL {
		return logrec.ParseBGLSeverity(name)
	}
	return logrec.ParseSyslogSeverity(name)
}

// entryJSON is the wire view of one store entry.
type entryJSON struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	Source   string    `json:"source"`
	Category string    `json:"category"`
	Severity string    `json:"severity"`
	Program  string    `json:"program,omitempty"`
	Body     string    `json:"body,omitempty"`
	Kept     bool      `json:"kept"`
}

func toEntryJSON(en store.Entry) entryJSON {
	return entryJSON{
		Seq:      en.Record.Seq,
		Time:     en.Record.Time,
		Source:   en.Record.Source,
		Category: en.Category,
		Severity: en.Record.Severity.String(),
		Program:  en.Record.Program,
		Body:     en.Record.Body,
		Kept:     en.Kept,
	}
}
