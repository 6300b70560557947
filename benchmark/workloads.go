package main

import (
	"fmt"

	"whatsupersay/internal/logrec"
)

// workloads are the four serve-tier workloads. Every one runs an ingest
// and a query phase per repetition, because the driver wants every
// metric from every workload; the phase named in `why` carries the
// weight and the other is kept short. Content sizes are set so that one
// repetition measures one to seven seconds on the two-core sandbox.
var workloads = []spec{
	{
		name: "ingest-sparse",
		why:  "Liberty, <1% alerts: parse+tag do the work, the store almost none; a store or view change must show nothing here",
		sys:  logrec.Liberty, scale: 0.003,
		warmup: 20, queries: 800,
	},
	{
		name: "ingest-dense",
		why:  "Spirit, ~65% alerts, 3 standing views, frequent seals and compaction: append, seal and the incremental folds dominate",
		sys:  logrec.Spirit, scale: 0.001,
		flushEvery: 10000, compactEvery: "500ms", subs: true,
		warmup: 20, queries: 400,
	},
	{
		name: "history",
		why:  "build-store then read-only windowed queries over a store larger than the cache: scan, fold, merge, encode; no write path",
		sys:  logrec.Spirit, scale: 0.002,
		flushEvery:  20000,
		fileBatches: 850, serveFile: true,
		queries: 800,
	},
	{
		name: "mixed",
		why:  "2 shards, paced ingest beside history's query mix and a cache every append empties: reads and writes share layers, answers are gathered",
		sys:  logrec.Spirit, scale: 0.002,
		flushEvery: 10000, shards: 2, subs: true,
		preload: 600, ingest: 104, rate: 20, queries: 2500,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// metricDef names one metric and its unit; the order is the order of
// BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, all taken from
// the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_lines_per_s", "1/s"},
	{"ingest_p50_ms", "ms"},
	{"cpu_s_per_mline", "s"},
	{"disk_bytes_per_alert", "B"},
	{"agg_p50_ms", "ms"},
	{"agg_body_p50_ms", "ms"},
	{"select_p50_ms", "ms"},
	{"query_per_s", "1/s"},
}

// value is one reported number. N is the sample count behind it, where
// there is one; P is the percentile a tail was taken at.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	P     float64 `json:"p,omitempty"`
}

// e2eReport is one untraced run of one workload.
type e2eReport struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Fingerprint string           `json:"fingerprint"`
	Reps        int              `json:"repetitions"`
	MeasuredS   float64          `json:"measured_s"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Metrics     map[string]value `json:"metrics"`
	// Informational are end-to-end numbers that vary too much between
	// runs on a shared two-core box to carry a bound: the tail of each
	// latency at the highest percentile its sample supports, the
	// server's peak memory, and build-store's line rate. The traced run
	// reports them under the serve layer.
	Informational map[string]value `json:"informational"`

	// What the run was made of, for the traced run that follows it: the
	// logs and the first repetition's queries, which are over the first
	// log.
	cts  []*content
	ops  []queryOp
	reps []*repResult
}

// opsFor is what repetition rep of the workload asks: the paced
// workload's stream (long enough that the querier never reaches its end
// within a repetition) or the closed loop's windowed queries.
func (sp spec) opsFor(ct *content, seed int64, rep int) []queryOp {
	if sp.rate > 0 {
		return ct.streamQueries(seed, rep, sp.queries)
	}
	return ct.windowQueries(seed, rep, sp.queries)
}

// logsPerRun is how many logs a run generates; repetition i works on log
// i modulo that. What an operation costs depends on the log, too (where
// its storms fall, how its sources hash over the shards), and from one
// log to another by more than the same log measured twice, so a run's
// pooled medians are over several.
const logsPerRun = 3

// prepare generates the workload's logs, one per generator seed
// seed*logsPerRun+j, so that no two benchmark seeds share one, and
// fingerprints what the first minReps repetitions put on the wire; a
// longer run's further repetitions draw from the same generators.
func prepare(sp spec, seed int64) ([]*content, string, error) {
	var cts []*content
	var bodies [][]byte
	for j := 0; j < logsPerRun; j++ {
		ct, err := makeContent(sp.sys, sp.scale, seed*logsPerRun+int64(j), sp.fileBatches, sp.preload)
		if err != nil {
			return nil, "", err
		}
		if need := sp.fileBatches + sp.preload + sp.warmup + sp.ingest; need >= len(ct.bodies) {
			return nil, "", fmt.Errorf("%s: %d batches generated, %d needed", sp.name, len(ct.bodies), need+1)
		}
		cts = append(cts, ct)
		bodies = append(bodies, ct.bodies...)
	}
	var ops []queryOp
	for rep := 0; rep < minReps; rep++ {
		ops = append(ops, sp.opsFor(cts[rep%len(cts)], seed, rep)...)
	}
	return cts, fingerprint(bodies, ops, sp.schedule()), nil
}

// runEndToEnd generates the workload's logs once and repeats the
// workload on fresh servers until `seconds` of load, ingest and query
// time have been measured, at least atLeast times.
func (r *runner) runEndToEnd(sp spec, seconds float64, atLeast int) (*e2eReport, error) {
	cts, fp, err := prepare(sp, r.seed)
	if err != nil {
		return nil, err
	}
	rep := &e2eReport{Workload: sp.name, Seed: r.seed, Fingerprint: fp, cts: cts, ops: sp.opsFor(cts[0], r.seed, 0)}
	if err := checkFingerprint(sp, r.seed, rep.Fingerprint); err != nil {
		return nil, err
	}
	for len(rep.reps) < atLeast || rep.MeasuredS < seconds {
		i := len(rep.reps)
		ct := cts[i%len(cts)]
		res, err := r.rep(sp, ct, sp.opsFor(ct, r.seed, i))
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", sp.name, i+1, err)
		}
		rep.reps = append(rep.reps, res)
		rep.MeasuredS += res.measuredS(sp.rate > 0)
		rep.Attempted += res.attempted
		rep.Failed += res.failed
	}
	rep.Reps = len(rep.reps)
	rep.reduce()
	return rep, nil
}

// reduce turns the repetitions into the reported values: the median
// across repetitions for rates and sizes, and percentiles of the pooled
// samples for latencies.
func (rep *e2eReport) reduce() {
	var contentS, setup, ingestRate, cpu, rss, disk, loadRate, queryRate []float64
	var ingestLat []float64
	queryLat := map[string][]float64{}
	for _, ct := range rep.cts {
		contentS = append(contentS, ct.genS+ct.refS)
	}
	for _, r := range rep.reps {
		setup = append(setup, r.setupS)
		ingestRate = append(ingestRate, float64(r.ingestLines)/r.ingestS)
		cpu = append(cpu, r.cpuPerMline)
		rss = append(rss, r.rssMB)
		disk = append(disk, float64(r.diskBytes)/float64(r.alerts))
		if r.loadS > 0 {
			loadRate = append(loadRate, float64(r.loadLines)/r.loadS)
		}
		queryRate = append(queryRate, float64(r.queries)/r.queryS)
		ingestLat = append(ingestLat, r.ingestLat...)
		for class, lat := range r.queryLat {
			queryLat[class] = append(queryLat[class], lat...)
		}
	}
	m := map[string]value{
		// What it takes to set up once: a log and its reference (the
		// median over the run's logs) and everything a repetition does
		// before its clock starts (the median over repetitions).
		"setup_s":              {Value: median(contentS) + median(setup), Unit: "s", N: len(setup)},
		"ingest_lines_per_s":   {Value: median(ingestRate), Unit: "1/s", N: len(ingestRate)},
		"ingest_p50_ms":        {Value: percentile(ingestLat, 50), Unit: "ms", N: len(ingestLat)},
		"cpu_s_per_mline":      {Value: median(cpu), Unit: "s", N: len(cpu)},
		"disk_bytes_per_alert": {Value: median(disk), Unit: "B", N: len(disk)},
		"query_per_s":          {Value: median(queryRate), Unit: "1/s", N: len(queryRate)},
	}
	info := map[string]value{
		"rss_peak_mb":      {Value: median(rss), Unit: "MB", N: len(rss)},
		"load_lines_per_s": {Value: median(loadRate), Unit: "1/s", N: len(loadRate)},
	}
	tail := func(name string, lat []float64) {
		p := tailPercentile(len(lat))
		info[name] = value{Value: percentile(lat, p), Unit: "ms", N: len(lat), P: p}
	}
	tail("ingest_tail_ms", ingestLat)
	for _, class := range []string{classAgg, classAggBody, classSelect} {
		lat := queryLat[class]
		m[class+"_p50_ms"] = value{Value: percentile(lat, 50), Unit: "ms", N: len(lat)}
		tail(class+"_tail_ms", lat)
	}
	rep.Metrics, rep.Informational = m, info
}
