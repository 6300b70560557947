package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"whatsupersay/internal/cluster"
	"whatsupersay/internal/faultinject"
	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/report"
)

// runIngest is the fault-tolerant ingestion mode: it survives transient
// reader errors, oversized and torn lines, and parser bugs; quarantines
// damaged lines under an error budget; and checkpoints its position so a
// killed run (including ^C) resumes where it died. -inject wraps the
// input in the chaos harness, for drills against a known-good log.
func runIngest(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	inPath := fs.String("in", "", "log file to ingest (required)")
	sysName := fs.String("system", "liberty", "system the log belongs to")
	resumePath := fs.String("resume", "", "checkpoint file: resume from it if present, keep it updated")
	maxErrors := fs.Int("max-errors", 0, "error budget: abort after this many quarantined lines (0 = unlimited)")
	quarPath := fs.String("quarantine", "", "write damaged lines to this file for later study")
	every := fs.Int("checkpoint-every", 100000, "checkpoint interval in lines (with -resume)")
	retryBase := fs.Duration("retry-base", 0, "first retry backoff delay for transient reader errors (default 50ms)")
	injectSpec := fs.String("inject", "", `chaos spec, e.g. "seed=7,short,transient=0.05,garble=0.001,tear=40"`)
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	if *inPath == "" {
		return usageError("ingest: -in is required")
	}
	sys, err := logrec.ParseSystem(*sysName)
	if err != nil {
		return err
	}
	m, err := cluster.New(sys)
	if err != nil {
		return err
	}

	f, err := ingest.Open(*inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var r io.Reader = f
	if *injectSpec != "" {
		cfg, err := parseInjectSpec(*injectSpec)
		if err != nil {
			return err
		}
		r = cfg.Wrap(r)
		fmt.Fprintf(w, "chaos injection active: %s\n", *injectSpec)
	}

	opts := ingest.ResilientOptions{MaxRetries: 5, MaxErrors: *maxErrors, RetryBase: *retryBase}
	if *quarPath != "" {
		qf, err := ingest.Create(*quarPath)
		if err != nil {
			return err
		}
		defer qf.Close()
		opts.Quarantine = qf
	}
	if *resumePath != "" {
		cp, err := ingest.LoadCheckpoint(*resumePath)
		switch {
		case err == nil:
			opts.Resume = &cp
			fmt.Fprintf(w, "resuming from %s: %s lines already ingested\n",
				*resumePath, report.Comma(int64(cp.Lines)))
		case errors.Is(err, os.ErrNotExist):
			// Fresh run; the file appears at the first checkpoint.
		default:
			return err
		}
		opts.CheckpointEvery = *every
		opts.OnCheckpoint = func(cp ingest.Checkpoint) error {
			return ingest.SaveCheckpoint(*resumePath, cp)
		}
	}

	// ^C cancels between lines; the checkpoint below still covers
	// everything delivered, so the run resumes cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rd := ingest.Reader{System: sys, Start: m.LogStart}
	cp, runErr := rd.ReadResilient(ctx, r, func(logrec.Record) error { return nil }, opts)

	// Whatever happened, persist the final position so the operator can
	// resume — including after a budget abort or an interrupt.
	if *resumePath != "" {
		if err := ingest.SaveCheckpoint(*resumePath, cp); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "ingested %s lines (%d quarantined, %d oversized, %d retries, %d panics contained)\n",
		report.Comma(int64(cp.Stats.Lines)), cp.Stats.ParseErrors, cp.Stats.Oversized, cp.Retries, cp.Panics)
	if runErr != nil {
		if *resumePath != "" {
			fmt.Fprintf(w, "run stopped; rerun with -resume %s to continue\n", *resumePath)
		}
		return fmt.Errorf("ingest: %w", runErr)
	}
	fmt.Fprintf(w, "dialects: %d syslog, %d RAS, %d event\n", cp.Stats.Syslog, cp.Stats.RAS, cp.Stats.Event)
	if *quarPath != "" && cp.Stats.ParseErrors > 0 {
		fmt.Fprintf(w, "damaged lines preserved in %s\n", *quarPath)
	}
	return nil
}

// parseInjectSpec parses the comma-separated chaos spec: flags (short)
// and k=v pairs (seed, transient, garble, tear, failafter).
func parseInjectSpec(spec string) (faultinject.ReaderConfig, error) {
	var cfg faultinject.ReaderConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, hasVal := strings.Cut(part, "=")
		bad := func() (faultinject.ReaderConfig, error) {
			return cfg, fmt.Errorf("ingest: bad -inject term %q", part)
		}
		switch key {
		case "short":
			if hasVal {
				return bad()
			}
			cfg.ShortReads = true
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return bad()
			}
			cfg.Seed = n
		case "transient":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return bad()
			}
			cfg.TransientErrProb = p
		case "garble":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return bad()
			}
			cfg.GarbleProb = p
		case "tear":
			n, err := strconv.Atoi(val)
			if err != nil {
				return bad()
			}
			cfg.TearTailBytes = n
		case "failafter":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return bad()
			}
			cfg.FailAfterBytes = n
		default:
			return bad()
		}
	}
	return cfg, nil
}
