// Package loadgen is the serve tier's load harness: K concurrent
// synthetic ingesters and M concurrent queriers drive a live endpoint
// through a closed-loop warmup step followed by an open-loop ramp,
// measuring per-path latency quantiles, records/sec per core, error
// class counts, and the saturation knee.
//
// Everything the harness sends is derived from one seeded
// simulate.Generate call, so a (System, Scale, Seed, BatchLines) tuple
// fully determines the byte content of every ingest batch, the URL of
// every query, and the offered-load schedule — independent of worker
// counts on either the generator or the harness side. Plan.Fingerprint
// pins that contract.
package loadgen

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/url"
	"strings"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/simulate"
)

// Config parameterizes one load run. Zero fields get defaults.
type Config struct {
	// System selects the synthetic workload's machine.
	System logrec.System
	// Seed drives both content generation and query-plan sampling.
	Seed int64
	// Scale is the simulate volume scale (default 0.0005 — enough lines
	// to sustain a ramp without minutes of generation).
	Scale float64

	// Ingesters (K) and Queriers (M) are the concurrent client counts
	// (defaults 8 and 4).
	Ingesters int
	Queriers  int
	// BatchLines is how many log lines ride in one POST /api/ingest
	// (default 200).
	BatchLines int

	// StepDuration is how long each load step runs (default 2s).
	StepDuration time.Duration
	// RampSteps is how many open-loop steps follow the closed-loop
	// warmup (default 4).
	RampSteps int
	// StartRate is the first open-loop step's offered ingest load in
	// batches/sec (default 4); each later step multiplies by RampFactor
	// (default 2).
	StartRate  float64
	RampFactor float64

	// Quantiles are the latency percentiles reported per path (default
	// 0.5, 0.9, 0.99).
	Quantiles []float64
	// Timeout bounds each HTTP request (default 15s).
	Timeout time.Duration
	// KneeFraction and MaxErrFraction define saturation: the knee is the
	// first open-loop step whose achieved/offered ratio drops below
	// KneeFraction (default 0.9) or whose ingest error fraction exceeds
	// MaxErrFraction (default 0.1).
	KneeFraction   float64
	MaxErrFraction float64
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.0005
	}
	if c.Ingesters <= 0 {
		c.Ingesters = 8
	}
	if c.Queriers < 0 {
		c.Queriers = 0
	} else if c.Queriers == 0 {
		c.Queriers = 4
	}
	if c.BatchLines <= 0 {
		c.BatchLines = 200
	}
	if c.StepDuration <= 0 {
		c.StepDuration = 2 * time.Second
	}
	if c.RampSteps <= 0 {
		c.RampSteps = 4
	}
	if c.StartRate <= 0 {
		c.StartRate = 4
	}
	if c.RampFactor <= 1 {
		c.RampFactor = 2
	}
	if len(c.Quantiles) == 0 {
		c.Quantiles = []float64{0.5, 0.9, 0.99}
	}
	if c.Timeout <= 0 {
		c.Timeout = 15 * time.Second
	}
	if c.KneeFraction <= 0 || c.KneeFraction >= 1 {
		c.KneeFraction = 0.9
	}
	if c.MaxErrFraction <= 0 {
		c.MaxErrFraction = 0.1
	}
	return c
}

// Batch is one ingest request's payload: a contiguous slice of the
// generated log plus each line's source, which the 429 retry loop needs
// to resend only the rejected sources' lines.
type Batch struct {
	Index   int
	Lines   []string
	Sources []string
}

// Body renders the batch as the POST /api/ingest wire form.
func (b Batch) Body() string { return strings.Join(b.Lines, "\n") + "\n" }

// QueryOp is one querier request: a path + encoded query string under
// the serve API root.
type QueryOp struct {
	Path string
}

// Step is one entry in the offered-load schedule. Offered is the target
// ingest rate in batches/sec; 0 means closed loop (every ingester sends
// as fast as responses return).
type Step struct {
	Offered  float64
	Duration time.Duration
}

// Plan is the fully materialized, deterministic run: content, queries,
// and schedule.
type Plan struct {
	Config  Config
	Batches []Batch
	Queries []QueryOp
	Steps   []Step
	// Records and Lines echo the generator totals for reporting.
	Records int
	Lines   int
}

// BuildPlan generates the synthetic content and derives the query mix
// and ramp schedule. The result depends only on Config fields that name
// the workload — not on Ingesters or Queriers.
func BuildPlan(cfg Config) (*Plan, error) {
	cfg = cfg.withDefaults()
	out, err := simulate.Generate(simulate.Config{System: cfg.System, Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	if len(out.Lines) == 0 {
		return nil, fmt.Errorf("loadgen: scale %v generated no lines", cfg.Scale)
	}
	p := &Plan{Config: cfg, Records: len(out.Records), Lines: len(out.Lines)}

	// Chunk the log into batches, carrying per-line sources alongside.
	for start := 0; start < len(out.Lines); start += cfg.BatchLines {
		end := min(start+cfg.BatchLines, len(out.Lines))
		b := Batch{Index: len(p.Batches), Lines: out.Lines[start:end]}
		b.Sources = make([]string, 0, end-start)
		for _, r := range out.Records[start:end] {
			b.Sources = append(b.Sources, r.Source)
		}
		p.Batches = append(p.Batches, b)
	}

	// Distinct sources in first-appearance order, so the query sampler is
	// deterministic.
	seen := make(map[string]bool)
	var sources []string
	for _, r := range out.Records {
		if r.Source != "" && !seen[r.Source] {
			seen[r.Source] = true
			sources = append(sources, r.Source)
		}
	}

	// The query mix cycles aggregate and point-query shapes with
	// parameters drawn from a seeded RNG distinct from the generator's.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x10adc0de))
	const queryOps = 64
	for i := 0; i < queryOps; i++ {
		var op QueryOp
		switch i % 4 {
		case 0:
			op.Path = "/api/aggregate?topk=5&quantiles=0.5,0.9,0.99"
		case 1:
			v := url.Values{}
			v.Set("source", sources[rng.Intn(len(sources))])
			v.Set("limit", "100")
			op.Path = "/api/query?" + v.Encode()
		case 2:
			v := url.Values{}
			v.Set("source", sources[rng.Intn(len(sources))])
			v.Set("topk", "3")
			op.Path = "/api/aggregate?" + v.Encode()
		default:
			op.Path = "/api/query?kept=true&limit=50"
		}
		p.Queries = append(p.Queries, op)
	}

	// Schedule: one closed-loop warmup step, then the geometric ramp.
	p.Steps = append(p.Steps, Step{Offered: 0, Duration: cfg.StepDuration})
	rate := cfg.StartRate
	for i := 0; i < cfg.RampSteps; i++ {
		p.Steps = append(p.Steps, Step{Offered: rate, Duration: cfg.StepDuration})
		rate *= cfg.RampFactor
	}
	return p, nil
}

// Fingerprint hashes everything the plan would put on the wire — batch
// bytes, per-line sources, query URLs, and the offered-load schedule —
// into a stable hex token. Two plans with equal fingerprints drive a
// server identically.
func (p *Plan) Fingerprint() string {
	h := fnv.New64a()
	for _, b := range p.Batches {
		for _, ln := range b.Lines {
			h.Write([]byte(ln))
			h.Write([]byte{'\n'})
		}
		for _, s := range b.Sources {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
		h.Write([]byte{0xff})
	}
	for _, q := range p.Queries {
		h.Write([]byte(q.Path))
		h.Write([]byte{'\n'})
	}
	for _, s := range p.Steps {
		fmt.Fprintf(h, "%b/%d\n", math.Float64bits(s.Offered), s.Duration.Nanoseconds())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
