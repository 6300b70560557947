package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whatsupersay/internal/stats"
)

// PathStats aggregates one request path's outcomes over a step.
type PathStats struct {
	Requests        int64 `json:"requests"`
	OK              int64 `json:"ok"`
	Backpressure429 int64 `json:"backpressure_429"`
	Unavailable503  int64 `json:"unavailable_503"`
	ClientErr4xx    int64 `json:"client_err_4xx"`
	ServerErr5xx    int64 `json:"server_err_5xx"`
	NetErrors       int64 `json:"net_errors"`
	// Retries counts requests that were 429 resends of rejected sources.
	Retries int64 `json:"retries"`
	// LatencyQuantiles maps "p50"-style labels to seconds, over every
	// request that got an HTTP response.
	LatencyQuantiles map[string]float64 `json:"latency_quantiles,omitempty"`
	MeanLatencySec   float64            `json:"mean_latency_sec"`
}

// ErrorFraction is the share of requests that did not return 200.
func (s PathStats) ErrorFraction() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Requests-s.OK) / float64(s.Requests)
}

// StepReport is one schedule step's measurements.
type StepReport struct {
	Index int `json:"index"`
	// Mode is "closed" (send-on-response) or "open" (paced offered load).
	Mode string `json:"mode"`
	// OfferedPerSec is the target ingest rate in batches/sec (0 when
	// closed); AchievedPerSec is the measured rate of batches fully
	// delivered (200, possibly after 429 retries).
	OfferedPerSec  float64 `json:"offered_per_sec"`
	AchievedPerSec float64 `json:"achieved_per_sec"`
	DurationSec    float64 `json:"duration_sec"`

	Ingest PathStats `json:"ingest"`
	Query  PathStats `json:"query"`

	// RecordsAppended sums the server's "appended" acknowledgments;
	// RecordsPerSec and RecordsPerSecPerCore normalize it.
	RecordsAppended    int64   `json:"records_appended"`
	RecordsPerSec      float64 `json:"records_per_sec"`
	RecordsPerSecCore  float64 `json:"records_per_sec_per_core"`
	BatchesDelivered   int64   `json:"batches_delivered"`
	BatchesAbandoned   int64   `json:"batches_abandoned"`
	RejectedSourceHits int64   `json:"rejected_source_hits"`
}

// Saturation names the knee step of a ramp.
type Saturation struct {
	StepIndex      int     `json:"step_index"`
	OfferedPerSec  float64 `json:"offered_per_sec"`
	AchievedPerSec float64 `json:"achieved_per_sec"`
	ErrorFraction  float64 `json:"error_fraction"`
	Reason         string  `json:"reason"`
}

// Report is one complete load run: the run's configuration and plan
// fingerprint, one StepReport per schedule step, and the knee verdict.
// `logstudy loadgen -o FILE` writes exactly this, as standalone JSON.
type Report struct {
	System          string       `json:"system"`
	Seed            int64        `json:"seed"`
	Scale           float64      `json:"scale"`
	Shards          int          `json:"shards"`
	Ingesters       int          `json:"ingesters"`
	Queriers        int          `json:"queriers"`
	BatchLines      int          `json:"batch_lines"`
	PlanFingerprint string       `json:"plan_fingerprint"`
	Cores           int          `json:"cores"`
	Steps           []StepReport `json:"steps"`
	Saturation      *Saturation  `json:"saturation,omitempty"`
}

// FindKnee returns the first open-loop step that fails the saturation
// criteria, or nil if the ramp never saturated.
func FindKnee(steps []StepReport, kneeFrac, maxErrFrac float64) *Saturation {
	for _, s := range steps {
		if s.Mode != "open" {
			continue
		}
		sat := &Saturation{
			StepIndex:      s.Index,
			OfferedPerSec:  s.OfferedPerSec,
			AchievedPerSec: s.AchievedPerSec,
			ErrorFraction:  s.Ingest.ErrorFraction(),
		}
		if s.OfferedPerSec > 0 && s.AchievedPerSec < kneeFrac*s.OfferedPerSec {
			sat.Reason = fmt.Sprintf("achieved %.1f < %.0f%% of offered %.1f batches/sec",
				s.AchievedPerSec, kneeFrac*100, s.OfferedPerSec)
			return sat
		}
		if f := s.Ingest.ErrorFraction(); f > maxErrFrac {
			sat.Reason = fmt.Sprintf("ingest error fraction %.2f > %.2f", f, maxErrFrac)
			return sat
		}
	}
	return nil
}

// pathCollector accumulates one path's outcomes under a mutex; the
// request rates here are far below contention territory.
type pathCollector struct {
	mu        sync.Mutex
	stats     PathStats
	latencies []float64
}

func (c *pathCollector) observe(status int, latency time.Duration, retry bool, netErr bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Requests++
	if retry {
		c.stats.Retries++
	}
	if netErr {
		c.stats.NetErrors++
		return
	}
	c.latencies = append(c.latencies, latency.Seconds())
	switch {
	case status == http.StatusOK:
		c.stats.OK++
	case status == http.StatusTooManyRequests:
		c.stats.Backpressure429++
	case status == http.StatusServiceUnavailable:
		c.stats.Unavailable503++
	case status >= 500:
		c.stats.ServerErr5xx++
	case status >= 400:
		c.stats.ClientErr4xx++
	}
}

func (c *pathCollector) finish(quantiles []float64) PathStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	if len(c.latencies) > 0 {
		xs := append([]float64(nil), c.latencies...)
		sort.Float64s(xs)
		var sum float64
		for _, x := range xs {
			sum += x
		}
		out.MeanLatencySec = sum / float64(len(xs))
		// stats.Percentiles speaks 0–100; Config.Quantiles are fractions.
		ps := make([]float64, len(quantiles))
		for i, q := range quantiles {
			ps[i] = q * 100
		}
		out.LatencyQuantiles = make(map[string]float64, len(quantiles))
		for i, v := range stats.Percentiles(xs, ps) {
			out.LatencyQuantiles[quantileLabel(quantiles[i])] = v
		}
	}
	return out
}

func quantileLabel(q float64) string {
	s := strconv.FormatFloat(q*100, 'f', -1, 64)
	return "p" + strings.ReplaceAll(s, ".", "_")
}

// ingestReply is the subset of the ingest response the harness
// consumes. RejectedSources is keyed by shard id — the 429 retry
// contract.
type ingestReply struct {
	Appended        int                 `json:"appended"`
	Rejected        map[string]int      `json:"rejected"`
	RejectedSources map[string][]string `json:"rejected_sources"`

	retryAfterVal time.Duration
}

// Runner drives one plan against one live endpoint.
type Runner struct {
	Plan    *Plan
	BaseURL string
	// Client is the HTTP client (default: a dedicated client with the
	// plan's timeout and enough idle conns for every worker).
	Client *http.Client
	// Shards is recorded in the report.
	Shards int
}

// Run executes the plan's schedule and assembles the report. It returns
// early (with partial steps) only if ctx is canceled.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	cfg := r.Plan.Config
	client := r.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = cfg.Ingesters + cfg.Queriers + 2
		client = &http.Client{Timeout: cfg.Timeout, Transport: tr}
	}
	rep := &Report{
		System:          cfg.System.ShortName(),
		Seed:            cfg.Seed,
		Scale:           cfg.Scale,
		Shards:          r.Shards,
		Ingesters:       cfg.Ingesters,
		Queriers:        cfg.Queriers,
		BatchLines:      cfg.BatchLines,
		PlanFingerprint: r.Plan.Fingerprint(),
		Cores:           runtime.GOMAXPROCS(0),
	}
	var nextBatch atomic.Int64
	for i, step := range r.Plan.Steps {
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		sr := r.runStep(ctx, client, i, step, &nextBatch)
		rep.Steps = append(rep.Steps, sr)
	}
	rep.Saturation = FindKnee(rep.Steps, cfg.KneeFraction, cfg.MaxErrFraction)
	return rep, nil
}

func (r *Runner) runStep(ctx context.Context, client *http.Client, index int, step Step, nextBatch *atomic.Int64) StepReport {
	cfg := r.Plan.Config
	mode := "closed"
	if step.Offered > 0 {
		mode = "open"
	}
	sr := StepReport{Index: index, Mode: mode, OfferedPerSec: step.Offered}

	stepCtx, cancel := context.WithTimeout(ctx, step.Duration)
	defer cancel()
	ingestC := &pathCollector{}
	queryC := &pathCollector{}
	var appended, delivered, abandoned, rejectedHits atomic.Int64

	// Open-loop pacing: a pacer emits send tokens at the offered rate
	// into a buffer big enough to never drop one — a slow server makes
	// tokens back up, which is exactly what "offered load" means.
	var tokens chan struct{}
	if step.Offered > 0 {
		capacity := int(step.Offered*step.Duration.Seconds()) + cfg.Ingesters + 1
		tokens = make(chan struct{}, capacity)
		interval := time.Duration(float64(time.Second) / step.Offered)
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-stepCtx.Done():
					return
				case <-tick.C:
					select {
					case tokens <- struct{}{}:
					default:
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Ingesters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if tokens != nil {
					select {
					case <-stepCtx.Done():
						return
					case <-tokens:
					}
				} else if stepCtx.Err() != nil {
					return
				}
				b := r.Plan.Batches[int(nextBatch.Add(1)-1)%len(r.Plan.Batches)]
				n, hits, ok := r.sendBatch(stepCtx, client, b, ingestC)
				appended.Add(n)
				rejectedHits.Add(hits)
				if ok {
					delivered.Add(1)
				} else if stepCtx.Err() == nil {
					abandoned.Add(1)
				}
			}
		}()
	}
	var nextQuery atomic.Int64
	for w := 0; w < cfg.Queriers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stepCtx.Err() == nil {
				op := r.Plan.Queries[int(nextQuery.Add(1)-1)%len(r.Plan.Queries)]
				r.sendQuery(stepCtx, client, op, queryC)
			}
		}()
	}

	t0 := time.Now()
	wg.Wait()
	elapsed := time.Since(t0).Seconds()

	sr.DurationSec = elapsed
	sr.Ingest = ingestC.finish(cfg.Quantiles)
	sr.Query = queryC.finish(cfg.Quantiles)
	sr.RecordsAppended = appended.Load()
	sr.BatchesDelivered = delivered.Load()
	sr.BatchesAbandoned = abandoned.Load()
	sr.RejectedSourceHits = rejectedHits.Load()
	if elapsed > 0 {
		sr.AchievedPerSec = float64(sr.BatchesDelivered) / elapsed
		sr.RecordsPerSec = float64(sr.RecordsAppended) / elapsed
		sr.RecordsPerSecCore = sr.RecordsPerSec / float64(runtime.GOMAXPROCS(0))
	}
	return sr
}

// sendBatch posts one batch, following the uniform 429 contract: sleep
// Retry-After seconds, then resend only the rejected sources' lines.
// Returns the records acknowledged, how many lines the rejected-source
// filter salvaged for resend, and whether the batch fully landed.
func (r *Runner) sendBatch(ctx context.Context, client *http.Client, b Batch, col *pathCollector) (appended, rejectedHits int64, delivered bool) {
	lines, sources := b.Lines, b.Sources
	const maxAttempts = 4
	for attempt := 0; attempt < maxAttempts; attempt++ {
		status, reply, err := r.postIngest(ctx, client, lines, col, attempt > 0)
		if err != nil {
			return appended, rejectedHits, false
		}
		if reply != nil {
			appended += int64(reply.Appended)
		}
		switch status {
		case http.StatusOK:
			return appended, rejectedHits, true
		case http.StatusTooManyRequests:
			if reply == nil || len(reply.RejectedSources) == 0 {
				return appended, rejectedHits, false
			}
			rejected := make(map[string]bool)
			for _, srcs := range reply.RejectedSources {
				for _, s := range srcs {
					rejected[s] = true
				}
			}
			var keptLines, keptSources []string
			for i, ln := range lines {
				if rejected[sources[i]] {
					keptLines = append(keptLines, ln)
					keptSources = append(keptSources, sources[i])
				}
			}
			rejectedHits += int64(len(keptLines))
			if len(keptLines) == 0 {
				// Nothing this batch sent was named rejected: the partial
				// append landed everything attributable to us.
				return appended, rejectedHits, true
			}
			lines, sources = keptLines, keptSources
			if !sleepRetryAfter(ctx, reply.retryAfterVal) {
				return appended, rejectedHits, false
			}
		default:
			return appended, rejectedHits, false
		}
	}
	return appended, rejectedHits, false
}

// retryAfter rides along on ingestReply after header parsing.
func (rep *ingestReply) setRetryAfter(h string) {
	if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && secs > 0 {
		rep.retryAfterVal = time.Duration(secs) * time.Second
	} else {
		rep.retryAfterVal = time.Second
	}
}

func sleepRetryAfter(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (r *Runner) postIngest(ctx context.Context, client *http.Client, lines []string, col *pathCollector, isRetry bool) (int, *ingestReply, error) {
	body := strings.Join(lines, "\n") + "\n"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.BaseURL+"/api/ingest", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	t0 := time.Now()
	resp, err := client.Do(req)
	latency := time.Since(t0)
	if err != nil {
		// A context-canceled send at step end is schedule mechanics, not a
		// server failure; don't bill it to the error counters.
		if ctx.Err() == nil {
			col.observe(0, latency, isRetry, true)
		}
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	col.observe(resp.StatusCode, latency, isRetry, false)
	var reply ingestReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return resp.StatusCode, nil, nil
	}
	reply.setRetryAfter(resp.Header.Get("Retry-After"))
	return resp.StatusCode, &reply, nil
}

func (r *Runner) sendQuery(ctx context.Context, client *http.Client, op QueryOp, col *pathCollector) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.BaseURL+op.Path, nil)
	if err != nil {
		return
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	latency := time.Since(t0)
	if err != nil {
		if ctx.Err() == nil {
			col.observe(0, latency, false, true)
		}
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	col.observe(resp.StatusCode, latency, false, false)
}
