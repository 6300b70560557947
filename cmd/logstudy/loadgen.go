package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"whatsupersay/internal/loadgen"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/report"
	"whatsupersay/internal/store"
)

// runLoadgen drives a live serve endpoint with concurrent ingesters and
// queriers on a deterministic, seeded plan, then reports per-path
// latency quantiles, sustained records/sec per core, the 429/503 error
// budget, and the saturation knee found by the open-loop ramp. With no
// -target it self-hosts the production serve stack (openServeBackend +
// serveAndWait — the same code path `logstudy serve` runs) on a
// loopback port, so the harness exercises real listener, middleware,
// and shutdown behavior rather than a test double.
func runLoadgen(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	target := fs.String("target", "", "base URL of a running serve endpoint (default: self-host one)")
	dir := fs.String("dir", "", "store directory for the self-hosted server (default: a temp dir, removed at exit)")
	shards := fs.Int("shards", 0, "shard count of the self-hosted store (default 1)")
	sysName := fs.String("system", "liberty", "system whose synthetic log seeds the load")
	ingesters := fs.Int("ingesters", 8, "closed-loop ingest workers (K)")
	queriers := fs.Int("queriers", 4, "concurrent query workers (M)")
	batchLines := fs.Int("batch-lines", 200, "log lines per ingest batch")
	stepDur := fs.Duration("step", 2*time.Second, "duration of each schedule step")
	rampSteps := fs.Int("ramp-steps", 4, "open-loop ramp steps after the closed-loop warmup")
	startRate := fs.Float64("start-rate", 4, "offered batches/sec at the first ramp step")
	rampFactor := fs.Float64("ramp-factor", 2, "offered-rate multiplier between ramp steps")
	reqTimeout := fs.Duration("request-timeout", 15*time.Second, "per-request client timeout")
	outPath := fs.String("o", "", "write this run's report to FILE as JSON (default: write nothing)")
	scale, seed := commonFlags(fs)
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	sys, err := logrec.ParseSystem(*sysName)
	if err != nil {
		return err
	}
	if *target != "" && *shards != 0 {
		return usageError("loadgen: -shards only applies when self-hosting; the -target server's shape is probed from /healthz")
	}

	plan, err := loadgen.BuildPlan(loadgen.Config{
		System:       sys,
		Seed:         *seed,
		Scale:        *scale,
		Ingesters:    *ingesters,
		Queriers:     *queriers,
		BatchLines:   *batchLines,
		StepDuration: *stepDur,
		RampSteps:    *rampSteps,
		StartRate:    *startRate,
		RampFactor:   *rampFactor,
		Timeout:      *reqTimeout,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "plan: %s batches of <=%d lines (%s records), %d schedule steps, fingerprint %s\n",
		report.Comma(int64(len(plan.Batches))), *batchLines, report.Comma(int64(plan.Records)),
		len(plan.Steps), plan.Fingerprint())

	base := *target
	nShards := 0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var serveDone chan error
	if base == "" {
		d := *dir
		if d == "" {
			var err error
			if d, err = os.MkdirTemp("", "logstudy-loadgen-"); err != nil {
				return err
			}
			defer os.RemoveAll(d)
		}
		b, err := openServeBackend(serveBackendConfig{
			Dir:       d,
			SysName:   *sysName,
			Shards:    *shards,
			StoreOpts: store.Options{},
		}, io.Discard)
		if err != nil {
			return fmt.Errorf("loadgen: self-host: %w", err)
		}
		ready := make(chan net.Addr, 1)
		serveDone = make(chan error, 1)
		go func() {
			serveDone <- serveAndWait(ctx, b, "127.0.0.1:0", 0, defaultShutdownGrace, io.Discard,
				func(a net.Addr) { ready <- a })
		}()
		select {
		case a := <-ready:
			base = "http://" + a.String()
		case err := <-serveDone:
			return fmt.Errorf("loadgen: self-hosted server died: %w", err)
		}
		nShards = max(*shards, 1)
		fmt.Fprintf(w, "self-hosted %s on %s (shards=%d, dir=%s)\n", *sysName, base, nShards, d)
	} else {
		nShards, err = probeShards(base, *reqTimeout)
		if err != nil {
			return fmt.Errorf("loadgen: target %s: %w", base, err)
		}
	}

	runner := &loadgen.Runner{Plan: plan, BaseURL: base, Shards: nShards}
	rep, err := runner.Run(ctx)
	if err != nil {
		return err
	}

	renderLoadReport(w, rep)

	if serveDone != nil {
		// Tear the self-hosted server down the production way (SIGTERM
		// path), so the run also exercises drain-and-seal under load.
		cancel()
		if err := <-serveDone; err != nil {
			return fmt.Errorf("loadgen: self-hosted shutdown: %w", err)
		}
	}

	if *outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "load report written to %s\n", *outPath)
	}
	return nil
}

// probeShards asks the target's /healthz how many shards it fronts.
func probeShards(base string, timeout time.Duration) (int, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz: %s", resp.Status)
	}
	var h struct {
		OK     bool `json:"ok"`
		Shards int  `json:"shards"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	if !h.OK {
		return 0, fmt.Errorf("healthz: target reports not ok")
	}
	return h.Shards, nil
}

// renderLoadReport prints the per-step table and the knee verdict.
func renderLoadReport(w io.Writer, rep *loadgen.Report) {
	t := report.NewTable(
		fmt.Sprintf("load: %s, %d ingesters / %d queriers, %d cores", rep.System, rep.Ingesters, rep.Queriers, rep.Cores),
		"Step", "Mode", "Offered/s", "Achieved/s", "Ingest p50/p99 ms", "Query p50/p99 ms", "429", "Errors", "rec/s/core")
	for _, s := range rep.Steps {
		offered := "-"
		if s.OfferedPerSec > 0 {
			offered = fmt.Sprintf("%.1f", s.OfferedPerSec)
		}
		t.AddRow(s.Index, s.Mode, offered,
			fmt.Sprintf("%.1f", s.AchievedPerSec),
			fmt.Sprintf("%s/%s", latencyMS(s.Ingest.LatencyQuantiles, "p50"), latencyMS(s.Ingest.LatencyQuantiles, "p99")),
			fmt.Sprintf("%s/%s", latencyMS(s.Query.LatencyQuantiles, "p50"), latencyMS(s.Query.LatencyQuantiles, "p99")),
			s.Ingest.Backpressure429+s.Query.Backpressure429,
			s.Ingest.ServerErr5xx+s.Ingest.NetErrors+s.Query.ServerErr5xx+s.Query.NetErrors,
			fmt.Sprintf("%.0f", s.RecordsPerSecCore))
	}
	t.Render(w)
	if rep.Saturation != nil {
		k := rep.Saturation
		fmt.Fprintf(w, "saturation knee: step %d — offered %.1f/s, achieved %.1f/s (%s)\n",
			k.StepIndex, k.OfferedPerSec, k.AchievedPerSec, k.Reason)
	} else {
		fmt.Fprintln(w, "no saturation knee within the ramp (raise -ramp-steps or -ramp-factor to find it)")
	}
}

// latencyMS formats one stored quantile in milliseconds.
func latencyMS(q map[string]float64, label string) string {
	v, ok := q[label]
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.1f", v*1000)
}
