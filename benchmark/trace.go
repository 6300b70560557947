package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"whatsupersay/internal/cluster"
	"whatsupersay/internal/correlate"
	"whatsupersay/internal/filter"
	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/query"
	"whatsupersay/internal/shard"
	"whatsupersay/internal/simulate"
	"whatsupersay/internal/store"
	"whatsupersay/internal/tag"
)

// perLayer are the metrics of single layers, named <module>.<metric>
// after the repository's packages. They come from the traced run: an
// in-process replay of the workload's operations on one goroutine, with
// a span around every call into a layer's public functions, beside one
// untraced end-to-end repetition for what only the server can say.
// None carries a bound.
var perLayer = []metricDef{
	{"cluster.new_us", "us"},
	{"ingest.parse_us_per_kline", "us"},
	{"ingest.parse_allocs_per_line", "count"},
	{"ingest.parse_errors", "count"},
	{"ingest.parse_bgl_us_per_kline", "us"},
	{"ingest.parse_redstorm_us_per_kline", "us"},
	{"tag.tag_us_per_kline", "us"},
	{"tag.allocs_per_line", "count"},
	{"tag.alert_frac", "ratio"},
	{"tag.sort_us_per_kalert", "us"},
	{"tag.serial_us_per_kline", "us"},
	{"parallel.tag_speedup", "ratio"},
	{"parallel.tag_speedup_batch", "ratio"},
	{"filter.filter_us_per_kalert", "us"},
	{"filter.kept_frac", "ratio"},
	{"store.from_alerts_us_per_kalert", "us"},
	{"store.append_us_per_kalert", "us"},
	{"store.append_allocs_per_alert", "count"},
	{"store.seal_us_per_kalert", "us"},
	{"store.seal_allocs_per_alert", "count"},
	{"store.seals", "count"},
	{"store.wal_bytes_per_alert", "B"},
	{"store.seg_bytes_per_alert", "B"},
	{"store.compact_ms", "ms"},
	{"store.compact_rewritten_per_byte", "ratio"},
	{"store.open_ms", "ms"},
	{"query.standing_fold_us_per_kalert", "us"},
	{"correlate.fold_us_per_kalert", "us"},
	{"correlate.init_ms", "ms"},
	{"store.scan_columns_us_per_krec", "us"},
	{"store.scan_us_per_krec", "us"},
	{"store.scan_allocs_per_rec", "count"},
	{"store.segments_pruned_frac", "ratio"},
	{"store.scanned_per_match", "ratio"},
	{"query.agg_columnar_ms", "ms"},
	{"query.agg_fold_ms", "ms"},
	{"query.agg_allocs_per_rec", "count"},
	{"query.agg_decode_ms", "ms"},
	{"query.select_ms", "ms"},
	{"query.select_scanned_per_returned", "ratio"},
	{"query.cache_hit_ms", "ms"},
	{"query.cache_hit_ratio", "ratio"},
	{"correlate.graph_ms", "ms"},
	{"predict.report_ms", "ms"},
	{"shard.append_us_per_kalert", "us"},
	{"shard.route_skew", "ratio"},
	{"shard.aggregate_ms", "ms"},
	{"shard.select_ms", "ms"},
	{"shard.fanout", "count"},
	{"serve.ingest_residual_ms", "ms"},
	{"serve.agg_residual_ms", "ms"},
	{"serve.select_residual_ms", "ms"},
	{"serve.encode_agg_us", "us"},
	{"serve.encode_select_us_per_entry", "us"},
	{"serve.start_ms", "ms"},
	{"serve.sched_lag_p99_ms", "ms"},
	// The tails of the end-to-end latencies, at the highest percentile
	// each sample supports. Informational: on a shared two-core box they
	// vary between runs of the same code by more than any bound worth
	// setting.
	{"serve.ingest_tail_ms", "ms"},
	{"serve.agg_tail_ms", "ms"},
	{"serve.agg_body_tail_ms", "ms"},
	{"serve.select_tail_ms", "ms"},
	// The server's peak resident memory, and build-store's line rate on
	// the one workload that loads a file (0 elsewhere). Informational for
	// the same reason.
	{"serve.rss_peak_mb", "MB"},
	{"serve.load_lines_per_s", "1/s"},
	{"simulate.gen_lines_per_s", "1/s"},
	// Where a traced ingest operation's time goes, as shares of the
	// operation: each layer's self time, and what the spans cover at all.
	{"trace.ingest_share_cluster", "ratio"},
	{"trace.ingest_share_ingest", "ratio"},
	{"trace.ingest_share_tag", "ratio"},
	{"trace.ingest_share_filter", "ratio"},
	{"trace.ingest_share_store", "ratio"},
	{"trace.ingest_share_standing", "ratio"},
	{"trace.ingest_share_correlate", "ratio"},
	{"trace.covered_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// traceReport is one traced run of one workload.
type traceReport struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]value       `json:"metrics"`
	Layers    map[string]*layerTotal `json:"layers"`
}

// Span names. A name's prefix up to the dot is the layer it is charged
// to in the ingest shares.
const (
	spanOpIngest     = "op.ingest"
	spanOpLoad       = "op.load"
	spanClusterNew   = "cluster.new"
	spanParse        = "ingest.parse"
	spanTag          = "tag.tag"
	spanSort         = "tag.sort"
	spanFilter       = "filter.filter"
	spanFromAlerts   = "store.from_alerts"
	spanAppend       = "store.append"
	spanSeal         = "store.seal"
	spanStanding     = "query.standing_fold"
	spanCorrelate    = "correlate.fold"
	spanCompact      = "store.compact"
	spanOpen         = "store.open"
	spanInit         = "correlate.init"
	spanScanColumns  = "store.scan_columns"
	spanScan         = "store.scan"
	spanAggColumnar  = "query.agg_columnar"
	spanAggDecode    = "query.agg_decode"
	spanSelect       = "query.select"
	spanCacheHit     = "query.cache_hit"
	spanGraph        = "correlate.graph"
	spanPredict      = "predict.report"
	spanEncodeAgg    = "serve.encode_agg"
	spanEncodeSelect = "serve.encode_select"
	spanShardAppend  = "shard.append"
	spanShardAgg     = "shard.aggregate"
	spanShardSelect  = "shard.select"
)

// maxTracedQueries bounds the query operations the traced run replays.
const maxTracedQueries = 200

// nopVisitor is the column visitor that does nothing: ScanColumns with
// it costs the scan alone, which is what Engine.Aggregate's time is
// compared with to get the fold.
type nopVisitor struct{}

func (nopVisitor) SealedColumns(*store.SegmentColumns) error { return nil }
func (nopVisitor) TailEntry(store.Entry) error               { return nil }

// tracedStore is the single store of the traced run with the two
// incremental views the server hangs on every store, observed through a
// closure the benchmark owns so their folds are spans under the append.
type tracedStore struct {
	st    *store.Store
	reg   *query.Registry
	miner *correlate.Miner
	live  *correlate.LiveService
}

func openTraced(t *tracer, st *store.Store, ct *content, subs bool) (*tracedStore, error) {
	ts := &tracedStore{st: st, reg: query.NewRegistry(st)}
	ts.miner = correlate.NewMiner(st, correlate.Config{}, "")
	ts.live = correlate.NewLiveService(ts.miner, correlate.PredictOptions{})
	st.SetObserver(func(mu store.Mutation) {
		s := t.begin(spanStanding)
		ts.reg.OnMutation(mu)
		t.end(s)
		s = t.begin(spanCorrelate)
		ts.miner.OnMutation(mu)
		t.end(s)
	})
	s := t.begin(spanInit)
	err := ts.miner.Init()
	t.end(s)
	if err != nil {
		ts.close()
		return nil, err
	}
	if subs {
		for _, f := range ct.standingFilters() {
			if _, err := ts.reg.Register(f, query.AggregateOptions{}, 0); err != nil {
				ts.close()
				return nil, err
			}
		}
	}
	return ts, nil
}

// settle waits for the views' background re-baselines (queued by a
// compaction) to finish, so they do not run beside the next measurement.
func (ts *tracedStore) settle() {
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		dirty := !ts.miner.Settled()
		for _, info := range ts.reg.List() {
			dirty = dirty || info.Dirty
		}
		if !dirty {
			return
		}
	}
}

// close detaches and stops the views, then closes the store.
func (ts *tracedStore) close() {
	ts.st.SetObserver(nil)
	ts.miner.Close()
	ts.reg.Close()
	ts.st.Close()
}

// ingestStages runs the handler's stages on one body, in handler order,
// each under its span, and returns the entries to append.
func ingestStages(t *tracer, sys logrec.System, body []byte) ([]store.Entry, ingest.Stats, error) {
	s := t.begin(spanClusterNew)
	m, err := cluster.New(sys)
	t.end(s)
	if err != nil {
		return nil, ingest.Stats{}, err
	}
	s = t.begin(spanParse)
	recs, stats, err := ingest.ReadAll(bytes.NewReader(body), sys, m.LogStart)
	t.end(s)
	if err != nil {
		return nil, stats, err
	}
	s = t.begin(spanTag)
	alerts := tag.NewTagger(sys).TagAll(recs)
	t.end(s)
	s = t.begin(spanSort)
	tag.SortAlerts(alerts)
	t.end(s)
	s = t.begin(spanFilter)
	filtered := filter.Simultaneous{T: filter.DefaultThreshold}.Filter(alerts)
	t.end(s)
	s = t.begin(spanFromAlerts)
	entries := store.FromAlerts(alerts, filtered)
	t.end(s)
	return entries, stats, nil
}

// traced is the state of one in-process replay.
type traced struct {
	t  *tracer
	sp spec
	ct *content

	lines, alerts, kept int // over the traced ingest operations
	parseErrors         int
	tracedOpNs          []float64
	untracedOpNs        []float64
	batches             [][]store.Entry // every replayed batch, for the shard plan

	walBytesPerAlert float64
	segBytes         int // sealed bytes and records before the compaction
	segRecs          int
	compactRewritten float64
	scan             store.ScanStats // summed over the aggregate operations
	rowScanned       int
	selScanned       int
	selReturned      int
	encodedEntries   int
	foldMs           []float64
	hitMs            []float64
	perShard         map[int]int
	fanout           []float64
}

// appendAndSeal appends one batch and seals explicitly at the flush
// boundary. The store itself is opened with a flush size it never
// reaches, so that the seal is a span of its own and not time hidden in
// an append.
func (tr *traced) appendAndSeal(ts *tracedStore, entries []store.Entry) error {
	s := tr.t.begin(spanAppend)
	err := ts.st.Append(entries...)
	tr.t.end(s)
	if err != nil {
		return err
	}
	if ts.st.TailLen() >= tr.sp.flush() {
		return tr.seal(ts)
	}
	return nil
}

func (tr *traced) seal(ts *tracedStore) error {
	if n := ts.st.TailLen(); n > 0 && tr.walBytesPerAlert == 0 {
		if info, err := os.Stat(filepath.Join(ts.st.Dir(), "wal.log")); err == nil {
			tr.walBytesPerAlert = float64(info.Size()) / float64(n)
		}
	}
	s := tr.t.begin(spanSeal)
	err := ts.st.Seal()
	tr.t.end(s)
	return err
}

// count adds one traced operation's lines and alerts to the totals the
// per-line and per-alert metrics divide by.
func (tr *traced) count(stats ingest.Stats, entries []store.Entry) {
	tr.lines += stats.Lines
	tr.parseErrors += stats.ParseErrors
	tr.alerts += len(entries)
	for _, en := range entries {
		if en.Kept {
			tr.kept++
		}
	}
}

// replayIngest runs batches [lo, hi) through the handler's stages into
// the store. Every other operation runs with the tracer off and is
// timed as a whole, which prices the tracing.
func (tr *traced) replayIngest(ts *tracedStore, lo, hi int) error {
	for i := lo; i < hi; i++ {
		tr.t.nextOp()
		tr.t.off = (i-lo)%2 == 1
		t0 := time.Now()
		op := tr.t.begin(spanOpIngest)
		entries, stats, err := ingestStages(tr.t, tr.sp.sys, tr.ct.bodies[i])
		if err == nil {
			err = tr.appendAndSeal(ts, entries)
		}
		tr.t.end(op)
		if err != nil {
			return err
		}
		if tr.t.off {
			tr.untracedOpNs = append(tr.untracedOpNs, float64(time.Since(t0)))
		} else {
			tr.tracedOpNs = append(tr.tracedOpNs, float64(tr.t.spans[op].End-tr.t.spans[op].Start))
			tr.count(stats, entries)
		}
		tr.batches = append(tr.batches, entries)
	}
	tr.t.off = false
	return nil
}

// replayLoad is build-store -in: the same stages over the whole file,
// one append, seals at the flush boundary.
func (tr *traced) replayLoad(ts *tracedStore, file []byte) error {
	tr.t.nextOp()
	op := tr.t.begin(spanOpLoad)
	defer tr.t.end(op)
	entries, stats, err := ingestStages(tr.t, tr.sp.sys, file)
	if err != nil {
		return err
	}
	tr.count(stats, entries)
	for lo := 0; lo < len(entries); lo += tr.sp.flush() {
		chunk := entries[lo:min(lo+tr.sp.flush(), len(entries))]
		if err := tr.appendAndSeal(ts, chunk); err != nil {
			return err
		}
		tr.batches = append(tr.batches, chunk)
	}
	return nil
}

// replayQueries calls the engine, the bare scans and the encoder for
// each query operation, one operation per call into a layer.
func (tr *traced) replayQueries(ts *tracedStore, ops []queryOp) error {
	t := tr.t
	eng := &query.Engine{Store: ts.st}
	cached := &query.Engine{Store: ts.st}
	cached.EnableCache(query.DefaultCacheSize)
	var nop nopVisitor
	for _, op := range ops[:min(len(ops), maxTracedQueries)] {
		t.nextOp()
		switch op.class {
		case classAgg:
			s := t.begin(spanAggColumnar)
			agg, stats, err := eng.Aggregate(op.filter, query.AggregateOptions{})
			t.end(s)
			if err != nil {
				return err
			}
			aggNs := t.spans[s].End - t.spans[s].Start
			tr.scan.Segments += stats.Segments
			tr.scan.SegmentsPruned += stats.SegmentsPruned
			tr.scan.RecordsScanned += stats.RecordsScanned
			tr.scan.Matched += stats.Matched

			s = t.begin(spanScanColumns)
			_, err = ts.st.ScanColumns(op.filter, nop)
			t.end(s)
			if err != nil {
				return err
			}
			tr.foldMs = append(tr.foldMs, float64(aggNs-(t.spans[s].End-t.spans[s].Start))/1e6)

			s = t.begin(spanEncodeAgg)
			_, err = json.Marshal(map[string]any{"stats": stats, "aggregate": agg})
			t.end(s)
			if err != nil {
				return err
			}

			// Miss, then hit: only the hit is a span.
			if _, _, err := cached.Aggregate(op.filter, query.AggregateOptions{}); err != nil {
				return err
			}
			s = t.begin(spanCacheHit)
			_, _, err = cached.Aggregate(op.filter, query.AggregateOptions{})
			t.end(s)
			if err != nil {
				return err
			}
			tr.hitMs = append(tr.hitMs, float64(t.spans[s].End-t.spans[s].Start)/1e6)
		case classAggBody:
			s := t.begin(spanAggDecode)
			_, _, err := eng.Aggregate(op.filter, query.AggregateOptions{})
			t.end(s)
			if err != nil {
				return err
			}
			s = t.begin(spanScan)
			stats, err := ts.st.Scan(op.filter, func(store.Entry) error { return nil })
			t.end(s)
			if err != nil {
				return err
			}
			tr.rowScanned += stats.RecordsScanned
		case classSelect:
			s := t.begin(spanSelect)
			entries, stats, err := eng.Select(op.filter, op.limit)
			t.end(s)
			if err != nil {
				return err
			}
			tr.selScanned += stats.RecordsScanned
			tr.selReturned += len(entries)
			out := make([]entryWire, 0, len(entries))
			s = t.begin(spanEncodeSelect)
			for _, en := range entries {
				out = append(out, toEntryWire(en))
			}
			_, err = json.Marshal(map[string]any{"stats": stats, "count": len(out), "entries": out})
			t.end(s)
			if err != nil {
				return err
			}
			tr.encodedEntries += len(out)
		}
	}
	t.nextOp()
	s := t.begin(spanGraph)
	ts.miner.Snapshot()
	t.end(s)
	s = t.begin(spanPredict)
	ts.live.Report()
	t.end(s)
	return nil
}

// compact times one explicit compaction and what share of the segment
// bytes it rewrote.
func (tr *traced) compact(ts *tracedStore) error {
	before := map[string]int{}
	total := 0
	for _, seg := range ts.st.Segments() {
		before[seg.Name] = seg.Bytes
		total += seg.Bytes
	}
	tr.t.nextOp()
	s := tr.t.begin(spanCompact)
	_, err := ts.st.Compact()
	tr.t.end(s)
	if err != nil {
		return err
	}
	for _, seg := range ts.st.Segments() {
		delete(before, seg.Name)
	}
	rewritten := 0
	for _, b := range before {
		rewritten += b
	}
	if total > 0 {
		tr.compactRewritten = float64(rewritten) / float64(total)
	}
	ts.settle()
	return nil
}

// replayShards appends the same batches to a two-shard cluster and asks
// it the same questions, for the scatter-gather layer's own cost.
func (tr *traced) replayShards(dir string, ops []queryOp) error {
	t := tr.t
	c, _, err := shard.Create(dir, tr.sp.sys, 2, shard.Options{})
	if err != nil {
		return err
	}
	defer c.Close()
	if tr.sp.subs {
		for _, f := range tr.ct.standingFilters() {
			if _, err := c.Subscribe(f, query.AggregateOptions{}, 0); err != nil {
				return err
			}
		}
	}
	tr.perShard = map[int]int{}
	for _, entries := range tr.batches {
		if len(entries) == 0 {
			continue
		}
		t.nextOp()
		s := t.begin(spanShardAppend)
		rep, err := c.Append(entries)
		t.end(s)
		if err != nil {
			return err
		}
		if len(rep.Rejected) > 0 || len(rep.Errors) > 0 {
			return fmt.Errorf("shard append: rejected %v errors %v", rep.Rejected, rep.Errors)
		}
		for id, n := range rep.PerShard {
			tr.perShard[id] += n
		}
	}
	if err := c.Seal(); err != nil {
		return err
	}
	ctx := context.Background()
	for _, op := range ops[:min(len(ops), maxTracedQueries)] {
		t.nextOp()
		switch op.class {
		case classAgg:
			s := t.begin(spanShardAgg)
			_, cov, _, err := c.Aggregate(ctx, op.filter, query.AggregateOptions{})
			t.end(s)
			if err != nil {
				return err
			}
			tr.fanout = append(tr.fanout, float64(cov.ShardsQueried))
		case classSelect:
			s := t.begin(spanShardSelect)
			_, cov, _, err := c.Select(ctx, op.filter, op.limit)
			t.end(s)
			if err != nil {
				return err
			}
			tr.fanout = append(tr.fanout, float64(cov.ShardsQueried))
		}
	}
	return nil
}

// standalone measures what no workload's operations reach: the two
// dialects the serve workloads never parse, and the tagger serial
// against parallel on this workload's records.
type standalone struct {
	bglUsPerKline, redstormUsPerKline float64
	serialUsPerKline                  float64
	speedupWhole, speedupBatch        float64
}

func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0))
}

func parseRate(sys logrec.System, scale float64, seed int64) (float64, error) {
	out, err := simulate.Generate(simulate.Config{System: sys, Scale: scale, Seed: seed})
	if err != nil {
		return 0, err
	}
	m, err := cluster.New(sys)
	if err != nil {
		return 0, err
	}
	var body bytes.Buffer
	for _, ln := range out.Lines {
		body.WriteString(ln)
		body.WriteByte('\n')
	}
	ns := timeIt(func() { _, _, err = ingest.ReadAll(bytes.NewReader(body.Bytes()), sys, m.LogStart) })
	if err != nil {
		return 0, err
	}
	return ns / 1e3 / (float64(len(out.Lines)) / 1e3), nil
}

func measureStandalone(ct *content, seed int64, quick bool) (standalone, error) {
	var sa standalone
	var err error
	// About twenty thousand lines of each dialect.
	bglScale, rsScale := 0.004, 0.0001
	if quick {
		bglScale, rsScale = bglScale/10, rsScale/10
	}
	if sa.bglUsPerKline, err = parseRate(logrec.BlueGeneL, bglScale, seed); err != nil {
		return sa, err
	}
	if sa.redstormUsPerKline, err = parseRate(logrec.RedStorm, rsScale, seed); err != nil {
		return sa, err
	}

	whole, _, err := ingest.ReadAll(bytes.NewReader(bytes.Join(ct.bodies, nil)), ct.sys, ct.logStart)
	if err != nil {
		return sa, err
	}
	tg := tag.NewTagger(ct.sys)
	// Best of three for each side: the ratio of two single timings of a
	// few milliseconds is mostly scheduling noise.
	best := func(fn func()) float64 {
		b := timeIt(fn)
		for i := 0; i < 2; i++ {
			b = min(b, timeIt(fn))
		}
		return b
	}
	serial := best(func() { tg.TagAllSerial(whole) })
	par := best(func() { tg.TagAll(whole) })
	sa.serialUsPerKline = serial / 1e3 / (float64(len(whole)) / 1e3)
	sa.speedupWhole = serial / par
	batches := func(fn func([]logrec.Record) []tag.Alert) func() {
		return func() {
			for lo := 0; lo < len(whole); lo += batchLines {
				fn(whole[lo:min(lo+batchLines, len(whole))])
			}
		}
	}
	sa.speedupBatch = best(batches(tg.TagAllSerial)) / best(batches(tg.TagAll))
	return sa, nil
}

// replayStore replays one end-to-end repetition's operations, in its
// order, into a fresh single store under dir, then seals, sizes and
// compacts it.
func (tr *traced) replayStore(dir string, ops []queryOp) error {
	// The store never seals on its own: see appendAndSeal.
	st, err := store.Create(dir, tr.sp.sys, store.Options{FlushEvery: 1 << 30})
	if err != nil {
		return err
	}
	ts, err := openTraced(tr.t, st, tr.ct, tr.sp.subs)
	if err != nil {
		return err
	}
	defer ts.close()

	sp, first, last := tr.sp, 0, len(tr.ct.bodies)
	if sp.serveFile {
		first = sp.fileBatches
		if err := tr.replayLoad(ts, tr.ct.fileBytes(first)); err != nil {
			return err
		}
		if err := tr.replayQueries(ts, ops); err != nil {
			return err
		}
	}
	if sp.ingest > 0 {
		last = min(last, first+sp.preload+sp.warmup+sp.ingest)
	}
	if err := tr.replayIngest(ts, first, last); err != nil {
		return err
	}
	if !sp.serveFile {
		if err := tr.replayQueries(ts, ops); err != nil {
			return err
		}
	}
	tr.t.nextOp()
	if err := tr.seal(ts); err != nil {
		return err
	}
	for _, seg := range st.Segments() {
		tr.segBytes += seg.Bytes
		tr.segRecs += seg.Records
	}
	return tr.compact(ts)
}

// reopen times opening a store this size and the miner's baseline scan
// over it.
func (tr *traced) reopen(dir string) error {
	tr.t.nextOp()
	s := tr.t.begin(spanOpen)
	st, _, err := store.Open(dir, store.Options{})
	tr.t.end(s)
	if err != nil {
		return err
	}
	ts, err := openTraced(tr.t, st, tr.ct, false)
	if err != nil {
		return err
	}
	ts.close()
	return nil
}

// runTraced is the traced run: one untraced end-to-end repetition for
// what only the live server can say (residuals, tails, cache ratio,
// generator lateness), then the in-process replay.
func (r *runner) runTraced(sp spec, o options) (*traceReport, error) {
	e2e, err := r.runEndToEnd(sp, 0, 1)
	if err != nil {
		return nil, err
	}
	tr := &traced{t: newTracer(), sp: sp, ct: e2e.cts[0]}
	dir, err := r.h.tempDir("trace-" + sp.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := tr.replayStore(filepath.Join(dir, "store"), e2e.ops); err != nil {
		return nil, err
	}
	if err := tr.reopen(filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	if err := tr.replayShards(filepath.Join(dir, "cluster"), e2e.ops); err != nil {
		return nil, err
	}
	sa, err := measureStandalone(tr.ct, r.seed, o.quick)
	if err != nil {
		return nil, err
	}

	layers := reduce(tr.t.spans)
	if err := writeTrace(o.out, sp.name, tr.t.spans, layers); err != nil {
		return nil, err
	}
	rep := &traceReport{Workload: sp.name, Seed: r.seed, Attempted: e2e.Attempted, Failed: e2e.Failed, Layers: layers}
	rep.Metrics = tr.metrics(layers, e2e, sa)
	return rep, nil
}

// metrics reduces the trace to the per-layer metrics.
func (tr *traced) metrics(layers map[string]*layerTotal, e2e *e2eReport, sa standalone) map[string]value {
	ct, segBytes, segRecs := tr.ct, tr.segBytes, tr.segRecs
	m := map[string]value{}
	set := func(name string, v float64, n int) {
		m[name] = value{Value: v, N: n}
	}
	get := func(name string) *layerTotal {
		if lt := layers[name]; lt != nil {
			return lt
		}
		return &layerTotal{}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	selfUs := func(name string) float64 { return float64(get(name).SelfNs) / 1e3 }
	durMs := func(name string) float64 {
		durs := get(name).Durs
		xs := make([]float64, len(durs))
		for i, d := range durs {
			xs[i] = float64(d) / 1e6
		}
		return median(xs)
	}
	klines, kalerts := float64(tr.lines)/1e3, float64(tr.alerts)/1e3

	set("cluster.new_us", div(selfUs(spanClusterNew), float64(get(spanClusterNew).Count)), get(spanClusterNew).Count)
	set("ingest.parse_us_per_kline", div(selfUs(spanParse), klines), tr.lines)
	set("ingest.parse_allocs_per_line", div(float64(get(spanParse).Allocs), float64(tr.lines)), tr.lines)
	set("ingest.parse_errors", float64(tr.parseErrors), tr.lines)
	set("ingest.parse_bgl_us_per_kline", sa.bglUsPerKline, 0)
	set("ingest.parse_redstorm_us_per_kline", sa.redstormUsPerKline, 0)
	set("tag.tag_us_per_kline", div(selfUs(spanTag), klines), tr.lines)
	set("tag.allocs_per_line", div(float64(get(spanTag).Allocs), float64(tr.lines)), tr.lines)
	set("tag.alert_frac", div(float64(tr.alerts), float64(tr.lines)), tr.lines)
	set("tag.sort_us_per_kalert", div(selfUs(spanSort), kalerts), tr.alerts)
	set("tag.serial_us_per_kline", sa.serialUsPerKline, 0)
	set("parallel.tag_speedup", sa.speedupWhole, 0)
	set("parallel.tag_speedup_batch", sa.speedupBatch, 0)
	set("filter.filter_us_per_kalert", div(selfUs(spanFilter), kalerts), tr.alerts)
	set("filter.kept_frac", div(float64(tr.kept), float64(tr.alerts)), tr.alerts)
	set("store.from_alerts_us_per_kalert", div(selfUs(spanFromAlerts), kalerts), tr.alerts)
	set("store.append_us_per_kalert", div(selfUs(spanAppend), kalerts), tr.alerts)
	set("store.append_allocs_per_alert", div(float64(get(spanAppend).Allocs), float64(tr.alerts)), tr.alerts)
	set("store.seal_us_per_kalert", div(selfUs(spanSeal), float64(segRecs)/1e3), segRecs)
	set("store.seal_allocs_per_alert", div(float64(get(spanSeal).Allocs), float64(segRecs)), segRecs)
	set("store.seals", float64(get(spanSeal).Count), 0)
	set("store.wal_bytes_per_alert", tr.walBytesPerAlert, 0)
	set("store.seg_bytes_per_alert", div(float64(segBytes), float64(segRecs)), segRecs)
	set("store.compact_ms", float64(get(spanCompact).DurNs)/1e6, 1)
	set("store.compact_rewritten_per_byte", tr.compactRewritten, 0)
	set("store.open_ms", float64(get(spanOpen).DurNs)/1e6, 1)
	set("query.standing_fold_us_per_kalert", div(selfUs(spanStanding), kalerts), tr.alerts)
	set("correlate.fold_us_per_kalert", div(selfUs(spanCorrelate), kalerts), tr.alerts)
	// The last Init is the one over the reopened, full store.
	if durs := get(spanInit).Durs; len(durs) > 0 {
		set("correlate.init_ms", float64(durs[len(durs)-1])/1e6, 1)
	}

	// Read path. The column scan is normalised by the records it was
	// asked to consider, the row scan likewise.
	set("store.scan_columns_us_per_krec", div(selfUs(spanScanColumns), float64(tr.scan.RecordsScanned)/1e3), tr.scan.RecordsScanned)
	set("store.scan_us_per_krec", div(selfUs(spanScan), float64(tr.rowScanned)/1e3), tr.rowScanned)
	set("store.scan_allocs_per_rec", div(float64(get(spanScan).Allocs), float64(tr.rowScanned)), tr.rowScanned)
	set("store.segments_pruned_frac", div(float64(tr.scan.SegmentsPruned), float64(tr.scan.Segments)), tr.scan.Segments)
	set("store.scanned_per_match", div(float64(tr.scan.RecordsScanned), float64(tr.scan.Matched)), tr.scan.Matched)
	set("query.agg_columnar_ms", durMs(spanAggColumnar), get(spanAggColumnar).Count)
	set("query.agg_fold_ms", median(tr.foldMs), len(tr.foldMs))
	set("query.agg_allocs_per_rec", div(float64(get(spanAggColumnar).Allocs), float64(tr.scan.RecordsScanned)), tr.scan.RecordsScanned)
	set("query.agg_decode_ms", durMs(spanAggDecode), get(spanAggDecode).Count)
	set("query.select_ms", durMs(spanSelect), get(spanSelect).Count)
	set("query.select_scanned_per_returned", div(float64(tr.selScanned), float64(tr.selReturned)), tr.selReturned)
	set("query.cache_hit_ms", median(tr.hitMs), len(tr.hitMs))
	var hits, misses float64
	for _, r := range e2e.reps {
		hits += r.cacheHits
		misses += r.cacheMisses
	}
	set("query.cache_hit_ratio", div(hits, hits+misses), int(hits+misses))
	set("correlate.graph_ms", durMs(spanGraph), 1)
	set("predict.report_ms", durMs(spanPredict), 1)

	var routed, most float64
	for _, n := range tr.perShard {
		routed += float64(n)
		most = max(most, float64(n))
	}
	set("shard.append_us_per_kalert", div(selfUs(spanShardAppend), routed/1e3), int(routed))
	set("shard.route_skew", div(most, div(routed, float64(len(tr.perShard)))), int(routed))
	set("shard.aggregate_ms", durMs(spanShardAgg), get(spanShardAgg).Count)
	set("shard.select_ms", durMs(spanShardSelect), get(spanShardSelect).Count)
	fan := 0.0
	for _, f := range tr.fanout {
		fan += f
	}
	set("shard.fanout", div(fan, float64(len(tr.fanout))), len(tr.fanout))

	// What the server adds around the library calls, by difference: the
	// end-to-end median minus the in-process median of the same
	// operations (HTTP decode, admission queue, encode, scheduling).
	aggMs, selMs := durMs(spanAggColumnar), durMs(spanSelect)
	if tr.sp.shards > 0 {
		aggMs, selMs = durMs(spanShardAgg), durMs(spanShardSelect)
	}
	set("serve.ingest_residual_ms", e2e.Metrics["ingest_p50_ms"].Value-median(tr.untracedOpNs)/1e6, len(tr.untracedOpNs))
	set("serve.agg_residual_ms", e2e.Metrics["agg_p50_ms"].Value-aggMs, e2e.Metrics["agg_p50_ms"].N)
	set("serve.select_residual_ms", e2e.Metrics["select_p50_ms"].Value-selMs, e2e.Metrics["select_p50_ms"].N)
	set("serve.encode_agg_us", div(selfUs(spanEncodeAgg), float64(get(spanEncodeAgg).Count)), get(spanEncodeAgg).Count)
	set("serve.encode_select_us_per_entry", div(selfUs(spanEncodeSelect), float64(tr.encodedEntries)), tr.encodedEntries)
	var startMs, lateness []float64
	for _, r := range e2e.reps {
		startMs = append(startMs, r.startMs)
		lateness = append(lateness, r.lateness...)
	}
	set("serve.start_ms", median(startMs), len(startMs))
	set("serve.sched_lag_p99_ms", percentile(lateness, 99), len(lateness))
	for name, v := range e2e.Informational {
		m["serve."+name] = v
	}
	set("simulate.gen_lines_per_s", div(float64(ct.lines), ct.genS), ct.lines)

	// Shares of a traced ingest operation. The spans of the other
	// operations (load, queries, seal outside an operation) are left out
	// by taking only descendants of op.ingest, which reduceUnder does.
	shares, covered := ingestShares(tr.t.spans)
	for _, layer := range []string{"cluster", "ingest", "tag", "filter", "store"} {
		set("trace.ingest_share_"+layer, shares[layer], len(tr.tracedOpNs))
	}
	set("trace.ingest_share_standing", shares["query"], len(tr.tracedOpNs))
	set("trace.ingest_share_correlate", shares["correlate"], len(tr.tracedOpNs))
	set("trace.covered_frac", covered, len(tr.tracedOpNs))
	set("trace.overhead_frac", div(median(tr.tracedOpNs), median(tr.untracedOpNs))-1, len(tr.tracedOpNs))

	for _, d := range perLayer {
		v := m[d.name]
		v.Unit = d.unit
		m[d.name] = v
	}
	return m
}

// ingestShares splits the time of the traced ingest operations between
// the layers: each layer's share is the self time of its spans under an
// op.ingest root over the roots' total time. covered is one minus the
// roots' own self time, the part of an operation some layer accounts
// for.
func ingestShares(spans []span) (shares map[string]float64, covered float64) {
	under := make([]bool, len(spans))
	var picked []span
	index := map[int]int{}
	for i, s := range spans {
		if s.Name == spanOpIngest || (s.Parent >= 0 && under[s.Parent]) {
			under[i] = true
			index[i] = len(picked)
			if s.Parent >= 0 {
				s.Parent = index[s.Parent]
			}
			picked = append(picked, s)
		}
	}
	shares = map[string]float64{}
	layers := reduce(picked)
	root := layers[spanOpIngest]
	if root == nil || root.DurNs == 0 {
		return shares, 0
	}
	for name, lt := range layers {
		if name == spanOpIngest {
			continue
		}
		layer, _, _ := strings.Cut(name, ".")
		shares[layer] += float64(lt.SelfNs) / float64(root.DurNs)
	}
	return shares, 1 - float64(root.SelfNs)/float64(root.DurNs)
}
