package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"whatsupersay/internal/connectors/graphite"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/query"
	"whatsupersay/internal/report"
	"whatsupersay/internal/shard"
	"whatsupersay/internal/store"
)

// defaultShutdownGrace bounds the graceful drain on SIGTERM. The SSE
// shutdown broadcast means the drain normally completes in
// milliseconds; the budget only matters when a request is legitimately
// mid-flight.
const defaultShutdownGrace = 10 * time.Second

// serveBackendConfig names everything openServeBackend needs to open
// (or create) the cluster behind the API.
type serveBackendConfig struct {
	Dir     string
	SysName string // non-empty: create for this system if Dir holds no store yet
	// Shards is the shard count to create with (0 = 1). An existing
	// directory keeps its on-disk shape; naming another is a usage error.
	Shards    int
	StoreOpts store.Options
	APIOpts   apiOptions

	// GraphiteAddr enables the connector pump (empty = disabled).
	GraphiteAddr   string
	GraphiteEvery  time.Duration
	GraphitePrefix string
}

// serveBackend is an opened cluster plus the lifecycle hooks the serve
// loop drives. runServe and `logstudy loadgen`'s self-hosted mode share
// it, so the loadgen harness exercises the production open/serve/drain
// path, not a test double.
type serveBackend struct {
	handler http.Handler
	banner  string
	// beginShutdown releases long-lived streams (SSE) so the HTTP
	// server's graceful Shutdown is not held open by them.
	beginShutdown func()
	// closeStore closes the cluster, in durability order: wait out the
	// in-flight appends (every batch a client got a 200 for reaches the wal),
	// seal, detach observers, close miners (their one artifact save, so the
	// next open warm-starts), close registries, close stores. Must be
	// called exactly once, after the server stops.
	closeStore func() error
	// pump is the graphite connector (nil when disabled); started by
	// serveAndWait once the listener is up, closed before closeStore.
	pump *graphite.Pump
}

// openCluster opens the cluster in cfg.Dir, creating it first when a
// system is named. What is on disk decides the shape; -shards only
// sizes a new cluster.
func openCluster(cfg serveBackendConfig) (*shard.Cluster, *shard.OpenReport, error) {
	sopts := shard.Options{Store: cfg.StoreOpts, CacheSize: cfg.APIOpts.CacheSize, Correlate: cfg.APIOpts.Correlate}
	onDisk, n, err := shard.Shape(cfg.Dir)
	switch {
	case err != nil:
		// Nothing there yet (or unreadable, which Open/Create report).
		n = max(cfg.Shards, 1)
	case cfg.Shards > 0 && cfg.Shards != n:
		return nil, nil, usageError(fmt.Sprintf("serve: -shards %d, but %s holds a %d-shard %s store; the shard count is fixed when the store is created",
			cfg.Shards, cfg.Dir, n, onDisk.ShortName()))
	}
	if cfg.SysName == "" {
		return shard.Open(cfg.Dir, sopts)
	}
	sys, err := logrec.ParseSystem(cfg.SysName)
	if err != nil {
		return nil, nil, err
	}
	return shard.Create(cfg.Dir, sys, n, sopts)
}

// openServeBackend opens the cluster and assembles its HTTP tier. A
// shard that fails to open is quarantined and the rest serve; when none
// opens there is nothing to serve, and the first shard's error is
// returned.
func openServeBackend(cfg serveBackendConfig, w io.Writer) (*serveBackend, error) {
	c, rep, err := openCluster(cfg)
	if err != nil {
		return nil, err
	}
	if len(rep.Quarantined) == rep.Shards {
		c.Close()
		return nil, fmt.Errorf("serve: no shard of %s opened: %s", cfg.Dir, rep.Quarantined[0])
	}
	for id := 0; id < rep.Shards; id++ {
		if reason, bad := rep.Quarantined[id]; bad {
			fmt.Fprintf(w, "WARNING: shard %d quarantined: %s\n", id, reason)
		} else {
			reportOpen(w, fmt.Sprintf("%s shard %d", c.System().ShortName(), id), rep.Stores[id])
		}
	}
	handler, hub, err := newShardAPI(c, cfg.APIOpts)
	if err != nil {
		c.Close()
		return nil, err
	}
	b := &serveBackend{
		handler:       handler,
		beginShutdown: hub.beginShutdown,
		closeStore:    c.Close,
		banner: fmt.Sprintf("serving alert store API on http://%%s/ (%d shards, %d quarantined, %s entries)\n",
			rep.Shards, len(rep.Quarantined), report.Comma(int64(c.Len()))),
	}
	if cfg.GraphiteAddr != "" {
		b.pump = graphite.New(graphite.Config{
			Addr:     cfg.GraphiteAddr,
			Prefix:   cfg.GraphitePrefix,
			Interval: cfg.GraphiteEvery,
		}, clusterGather(c))
	}
	return b, nil
}

// serveAndWait owns the server lifecycle: listen, serve, and on ctx
// cancellation (SIGTERM/Ctrl-C in production, a test's cancel in the
// kill tests) drain gracefully and close the backend in durability
// order. onReady, when set, receives the bound address once the
// listener is accepting — the seam the loadgen self-host mode and the
// kill tests use.
func serveAndWait(ctx context.Context, b *serveBackend, addr string, reqTimeout, grace time.Duration, w io.Writer, onReady func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		b.closeStore()
		return err
	}
	if grace <= 0 {
		grace = defaultShutdownGrace
	}
	srv := &http.Server{
		Handler: b.handler,
		// Slowloris defense: a client must finish its headers promptly
		// and cannot park an idle keep-alive connection forever.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// WriteTimeout backstops the per-request deadline: even a handler
		// that ignores its context cannot hold a connection past the
		// request budget plus response-writing headroom. (The SSE stream
		// clears its own write deadline — see handleEvents.)
		WriteTimeout: writeTimeout(reqTimeout),
	}
	fmt.Fprintf(w, b.banner, ln.Addr())
	if b.pump != nil {
		b.pump.Start()
	}
	if onReady != nil {
		onReady(ln.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var serveErr error
	select {
	case serveErr = <-errc:
	case <-ctx.Done():
		// Release SSE streams first: they are request-scoped goroutines
		// that by design never finish, and Shutdown waits for every
		// in-flight request. Without the broadcast a single subscriber
		// wedges the drain until the grace budget expires.
		b.beginShutdown()
		shutCtx, cancel := context.WithTimeout(context.Background(), grace)
		serveErr = srv.Shutdown(shutCtx)
		cancel()
	}
	if b.pump != nil {
		b.pump.Close()
	}
	// closeStore waits out in-flight appends before sealing: every batch
	// a client got a 200 for is on disk when this returns.
	if err := b.closeStore(); err != nil && serveErr == nil {
		serveErr = err
	}
	if serveErr == nil {
		fmt.Fprintln(w, "shut down; tail sealed on close")
	}
	return serveErr
}

// clusterGather flattens the cluster's live aggregate, per-shard
// pending-ingest and breaker health, and standing subscriptions into graphite samples.
// It runs on the pump's ticker goroutine, never on a request path.
func clusterGather(c *shard.Cluster) func() []graphite.Metric {
	return func() []graphite.Metric {
		now := time.Now()
		ms := []graphite.Metric{{Name: "cluster.entries", Value: float64(c.Len()), Time: now}}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if agg, cov, _, err := c.Aggregate(ctx, store.Filter{}, query.AggregateOptions{}); err == nil {
			ms = append(ms, aggregateMetrics("aggregate", agg, now)...)
			ms = append(ms, graphite.Metric{Name: "cluster.shards_answered", Value: float64(cov.ShardsAnswered), Time: now})
		}
		for _, h := range c.Health() {
			base := fmt.Sprintf("shard.%d", h.ID)
			state := 0.0
			switch h.State {
			case "half-open":
				state = 1
			case "open":
				state = 2
			case "quarantined":
				state = 3
			}
			ms = append(ms,
				graphite.Metric{Name: base + ".queue_depth", Value: float64(h.QueueDepth + h.Inflight), Time: now},
				graphite.Metric{Name: base + ".breaker_state", Value: state, Time: now},
				graphite.Metric{Name: base + ".failures_total", Value: float64(h.TotalFailures), Time: now},
			)
		}
		subs := c.Subscriptions()
		ms = append(ms, graphite.Metric{Name: "standing.subscriptions", Value: float64(len(subs)), Time: now})
		for _, info := range subs {
			base := "standing." + info.ID
			fired := 0.0
			if info.Fired {
				fired = 1
			}
			ms = append(ms,
				graphite.Metric{Name: base + ".total", Value: float64(info.Total), Time: now},
				graphite.Metric{Name: base + ".fired", Value: fired, Time: now},
				graphite.Metric{Name: base + ".events", Value: float64(info.Events), Time: now},
			)
		}
		return ms
	}
}

// aggregateMetrics flattens one query.Aggregation into samples.
func aggregateMetrics(base string, agg query.Aggregation, now time.Time) []graphite.Metric {
	ms := []graphite.Metric{
		{Name: base + ".total", Value: float64(agg.Total), Time: now},
		{Name: base + ".kept", Value: float64(agg.Kept), Time: now},
		{Name: base + ".removed", Value: float64(agg.Removed), Time: now},
		{Name: base + ".reduction_ratio", Value: agg.ReductionRatio, Time: now},
		{Name: base + ".categories", Value: float64(agg.Categories), Time: now},
	}
	for sev, n := range agg.BySeverity {
		ms = append(ms, graphite.Metric{Name: base + ".by_severity." + sev, Value: float64(n), Time: now})
	}
	if ia := agg.Interarrival; ia != nil {
		ms = append(ms,
			graphite.Metric{Name: base + ".interarrival.mean_sec", Value: ia.MeanSec, Time: now},
			graphite.Metric{Name: base + ".interarrival.max_sec", Value: ia.MaxSec, Time: now},
		)
		for _, qv := range ia.Quantiles {
			name := fmt.Sprintf("%s.interarrival.p%g", base, qv.Q*100)
			ms = append(ms, graphite.Metric{Name: name, Value: qv.Sec, Time: now})
		}
	}
	return ms
}
