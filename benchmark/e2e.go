package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/query"
	"whatsupersay/internal/shard"
	"whatsupersay/internal/store"
)

// spec is one workload: the content, how the server is run, and how
// much of each kind of traffic one repetition sends.
type spec struct {
	name string
	why  string

	sys   logrec.System
	scale float64

	// flushEvery is the seal size, for build-store and serve alike (0 =
	// the store's default); compactEvery is serve -compact-every.
	flushEvery   int
	compactEvery string
	shards       int  // > 0: serve -shards N
	subs         bool // register the three standing subscriptions

	// serveFile makes the server serve a store that `build-store -in`
	// loaded from a log file of the first fileBatches batches, and ingest
	// only the batches after them. Otherwise the server starts on a
	// fresh, empty store.
	fileBatches int
	serveFile   bool

	preload int     // batches ingested during set-up, before measuring
	warmup  int     // closed-loop batches sent before the clock starts
	ingest  int     // measured batches per repetition (0 = all that remain)
	rate    float64 // > 0: open loop, one sender at this many batches/s
	queries int     // windowed queries generated per repetition; the paced workload asks as many of them as fit
}

// quick shrinks a workload to about a tenth of its content for the
// -quick mode, keeping every code path.
func (sp spec) quick() spec {
	sp.scale /= 10
	shrink := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(n/10, 2)
	}
	sp.fileBatches = shrink(sp.fileBatches)
	sp.preload = shrink(sp.preload)
	sp.warmup = shrink(sp.warmup)
	sp.ingest = shrink(sp.ingest)
	sp.queries = max(sp.queries/10, 10)
	return sp
}

// flush is the seal size in effect.
func (sp spec) flush() int {
	if sp.flushEvery > 0 {
		return sp.flushEvery
	}
	return store.DefaultFlushEvery
}

// storeFlags are the flags build-store and serve share.
func (sp spec) storeFlags() []string {
	if sp.flushEvery > 0 {
		return []string{"-flush-every", fmt.Sprint(sp.flushEvery)}
	}
	return nil
}

func (sp spec) schedule() string {
	return fmt.Sprintf("flush=%d compact=%s shards=%d subs=%v file=%d/%v logs=%d preload=%d warmup=%d ingest=%d rate=%g queries=%d",
		sp.flush(), sp.compactEvery, sp.shards, sp.subs, sp.fileBatches, sp.serveFile, logsPerRun, sp.preload, sp.warmup, sp.ingest, sp.rate, sp.queries)
}

// repResult is what one repetition measured.
type repResult struct {
	setupS  float64
	startMs float64

	loadLines int
	loadS     float64
	loadCPU   float64

	ingestLines int
	ingestS     float64
	ingestCPU   float64
	// cpuPerMline charges the process on the workload's main write path:
	// build-store where the served store was loaded by it, the server's
	// ingest phase elsewhere.
	cpuPerMline float64
	ingestLat   []float64
	lateness    []float64

	queries  int
	queryS   float64
	queryLat map[string][]float64

	rssMB     float64
	diskBytes int64
	alerts    int

	attempted, failed      int
	cacheHits, cacheMisses float64
}

// measuredS is the wall time of the measured phases. overlapped says
// the query phase ran beside the ingest phase, not after it.
func (r *repResult) measuredS(overlapped bool) float64 {
	if overlapped {
		return r.loadS + r.ingestS
	}
	return r.loadS + r.ingestS + r.queryS
}

// oracleError marks a wrong answer, as opposed to a failed operation.
type oracleError struct{ msg string }

func (e *oracleError) Error() string { return "oracle: " + e.msg }

func oraclef(format string, args ...any) error {
	return &oracleError{msg: fmt.Sprintf(format, args...)}
}

// firstError keeps the first error concurrent clients report.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// ingestAnswer is POST /api/ingest's summary.
type ingestAnswer struct {
	Lines       int `json:"lines"`
	ParseErrors int `json:"parse_errors"`
	Alerts      int `json:"alerts"`
	Kept        int `json:"kept"`
	Appended    int `json:"appended"`
}

// postBatch sends batch i and checks the answer against its reference.
// It reports whether the batch was acknowledged.
func postBatch(c *client, ct *content, i int, fe *firstError) bool {
	status, answer := c.do("POST", "/api/ingest", ct.bodies[i])
	if status != 200 {
		return false
	}
	var got ingestAnswer
	if err := json.Unmarshal(answer, &got); err != nil {
		fe.set(oraclef("batch %d: undecodable answer %q", i, answer))
		return true
	}
	ref := ct.refs[i]
	want := ingestAnswer{Lines: ref.lines, ParseErrors: ref.parseErrors, Alerts: ref.total, Kept: ref.kept, Appended: ref.total}
	if got != want {
		fe.set(oraclef("batch %d: server says %+v, reference says %+v", i, got, want))
	}
	return true
}

// aggregateAnswer is the part of GET /api/aggregate the oracle reads.
type aggregateAnswer struct {
	Partial   bool            `json:"partial"`
	Aggregate json.RawMessage `json:"aggregate"`
}

// selectAnswer is the part of GET /api/query the oracle reads.
type selectAnswer struct {
	Entries json.RawMessage `json:"entries"`
}

func checkTally(where string, agg query.Aggregation, want tally) error {
	if agg.Total != want.total || agg.Kept != want.kept {
		return oraclef("%s: total/kept %d/%d, reference %d/%d", where, agg.Total, agg.Kept, want.total, want.kept)
	}
	if len(agg.ByCategory) != len(want.byCategory) {
		return oraclef("%s: %d categories, reference %d", where, len(agg.ByCategory), len(want.byCategory))
	}
	for k, v := range want.byCategory {
		if agg.ByCategory[k] != v {
			return oraclef("%s: category %s has %d, reference %d", where, k, agg.ByCategory[k], v)
		}
	}
	return nil
}

// checkServed asks the live server for the unfiltered aggregate and
// compares it with the reference.
func checkServed(c *client, want tally) error {
	status, answer := c.do("GET", "/api/aggregate", nil)
	if status != 200 {
		return fmt.Errorf("GET /api/aggregate: status %d", status)
	}
	var got aggregateAnswer
	var agg query.Aggregation
	if err := json.Unmarshal(answer, &got); err != nil {
		return oraclef("aggregate: undecodable answer")
	}
	if err := json.Unmarshal(got.Aggregate, &agg); err != nil {
		return oraclef("aggregate: undecodable aggregate")
	}
	if got.Partial {
		return oraclef("aggregate: partial answer")
	}
	return checkTally("served aggregate", agg, want)
}

// entryWire mirrors cmd/logstudy's wire view of one entry, field for
// field, so a select answer can be compared byte for byte.
type entryWire struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	Source   string    `json:"source"`
	Category string    `json:"category"`
	Severity string    `json:"severity"`
	Program  string    `json:"program,omitempty"`
	Body     string    `json:"body,omitempty"`
	Kept     bool      `json:"kept"`
}

func toEntryWire(en store.Entry) entryWire {
	return entryWire{
		Seq: en.Record.Seq, Time: en.Record.Time, Source: en.Record.Source,
		Category: en.Category, Severity: en.Record.Severity.String(),
		Program: en.Record.Program, Body: en.Record.Body, Kept: en.Kept,
	}
}

// referenceAnswer computes, in process, the bytes the server must have
// put in the "aggregate" or "entries" field for op.
func referenceAnswer(eng *query.Engine, op queryOp) ([]byte, error) {
	if op.class == classSelect {
		entries, _, err := eng.Select(op.filter, op.limit)
		if err != nil {
			return nil, err
		}
		out := make([]entryWire, 0, len(entries))
		for _, en := range entries {
			out = append(out, toEntryWire(en))
		}
		return json.Marshal(out)
	}
	agg, _, err := eng.Aggregate(op.filter, query.AggregateOptions{})
	if err != nil {
		return nil, err
	}
	return json.Marshal(agg)
}

// answerField extracts the field referenceAnswer reproduces.
func answerField(op queryOp, answer []byte) ([]byte, error) {
	if op.class == classSelect {
		var got selectAnswer
		if err := json.Unmarshal(answer, &got); err != nil {
			return nil, err
		}
		return got.Entries, nil
	}
	var got aggregateAnswer
	if err := json.Unmarshal(answer, &got); err != nil {
		return nil, err
	}
	return got.Aggregate, nil
}

// sampled is the set of query answers one repetition checks byte for
// byte against the in-process engine: up to 50 seeded indices.
type sampled struct {
	mu   sync.Mutex
	want map[int][]byte // index -> reference bytes, nil until computed
	got  map[int][]byte
}

func newSampled(seed int64, n int) *sampled {
	s := &sampled{want: map[int][]byte{}, got: map[int][]byte{}}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0003))
	for _, i := range rng.Perm(n)[:min(50, n)] {
		s.want[i] = nil
	}
	return s
}

func (s *sampled) keep(i int, answer []byte) {
	if _, ok := s.want[i]; !ok {
		return
	}
	s.mu.Lock()
	s.got[i] = answer
	s.mu.Unlock()
}

// reference computes the sampled operations' answers with the
// in-process engine over dir, which no server may have open. The store
// must hold what it held when the server answered.
func (s *sampled) reference(dir string, ops []queryOp) error {
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return fmt.Errorf("reopen %s: %w", dir, err)
	}
	defer st.Close()
	eng := &query.Engine{Store: st}
	for i := range s.want {
		if s.want[i], err = referenceAnswer(eng, ops[i]); err != nil {
			return fmt.Errorf("reference %s: %w", ops[i].path, err)
		}
	}
	return nil
}

// check compares every kept answer with its reference.
func (s *sampled) check(ops []queryOp) error {
	for i, answer := range s.got {
		got, err := answerField(ops[i], answer)
		if err != nil {
			return oraclef("query %s: undecodable answer", ops[i].path)
		}
		if !bytes.Equal(got, s.want[i]) {
			return oraclef("query %s: answer differs from the in-process engine\n got: %.300s\nwant: %.300s", ops[i].path, got, s.want[i])
		}
	}
	return nil
}

// checkReopened opens the stopped server's directory in process and
// compares its unfiltered aggregate with the reference: nothing the
// server acknowledged may be missing after a graceful stop.
func checkReopened(dir string, shards int, want tally) error {
	var agg query.Aggregation
	if shards > 0 {
		c, rep, err := shard.Open(dir, shard.Options{})
		if err != nil {
			return fmt.Errorf("reopen cluster: %w", err)
		}
		defer c.Close()
		if len(rep.Quarantined) > 0 {
			return oraclef("reopen: %d shards quarantined", len(rep.Quarantined))
		}
		var cov shard.Coverage
		if agg, cov, _, err = c.Aggregate(context.Background(), store.Filter{}, query.AggregateOptions{}); err != nil {
			return fmt.Errorf("reopen aggregate: %w", err)
		}
		if cov.Partial {
			return oraclef("reopen: partial aggregate")
		}
	} else {
		st, _, err := store.Open(dir, store.Options{})
		if err != nil {
			return fmt.Errorf("reopen store: %w", err)
		}
		defer st.Close()
		if agg, _, err = (&query.Engine{Store: st}).Aggregate(store.Filter{}, query.AggregateOptions{}); err != nil {
			return fmt.Errorf("reopen aggregate: %w", err)
		}
	}
	return checkTally("reopened store", agg, want)
}

// standingFilters are the three standing queries the dense and mixed
// workloads register: everything, the filter's survivors, one category.
func (c *content) standingFilters() []store.Filter {
	kept := true
	return []store.Filter{{}, {Kept: &kept}, {Categories: c.categories[:1]}}
}

// subscribe registers standingFilters over HTTP.
func subscribe(c *client, ct *content) error {
	for _, body := range []string{
		`{}`,
		`{"kept":"true"}`,
		fmt.Sprintf(`{"category":%q}`, ct.categories[0]),
	} {
		if status, answer := c.do("POST", "/api/subscribe", []byte(body)); status != 201 {
			return fmt.Errorf("subscribe %s: status %d: %s", body, status, answer)
		}
	}
	return nil
}

// runner carries what every repetition of one run shares.
type runner struct {
	h       *harness
	clients int
	seed    int64
}

// tallies are one connection's counts and latency samples; each
// connection writes its own and they are merged after the phases.
type tallies struct {
	lat               map[string][]float64 // by query class, and "ingest"
	attempted, failed int
	lines             int // lines of acknowledged batches
}

// repetition is one pass of a workload against one server.
type repetition struct {
	sp      spec
	ct      *content
	ops     []queryOp
	srv     *server
	clients []*client
	locals  []tallies
	acked   []atomic.Bool // per batch: the server answered 200
	samples *sampled
	fe      firstError
	res     *repResult
}

// send posts batch i and records whether it was acknowledged.
func (p *repetition) send(c *client, i int) bool {
	ok := postBatch(c, p.ct, i, &p.fe)
	p.acked[i].Store(ok)
	return ok
}

// ingestOne sends batch i on connection w and counts it; timed says the
// latency is taken here, from the send (the closed loops).
func (p *repetition) ingestOne(w, i int, timed bool) {
	t0 := time.Now()
	ok := p.send(p.clients[w], i)
	l := &p.locals[w]
	l.attempted++
	if !ok {
		l.failed++
		return
	}
	if timed {
		l.lat["ingest"] = append(l.lat["ingest"], ms(time.Since(t0)))
	}
	l.lines += p.ct.refs[i].lines
}

// queryOne sends operation i (modulo their number) on connection w; keep
// offers the answer to the byte-for-byte sample.
func (p *repetition) queryOne(w, i int, keep bool) {
	op := p.ops[i%len(p.ops)]
	t0 := time.Now()
	status, answer := p.clients[w].do("GET", op.path, nil)
	l := &p.locals[w]
	l.attempted++
	if status != 200 {
		l.failed++
		return
	}
	l.lat[op.class] = append(l.lat[op.class], ms(time.Since(t0)))
	if keep {
		p.samples.keep(i, answer)
	}
}

// ingestPhase is the closed-loop ingest of batches [first, first+n).
func (p *repetition) ingestPhase(first, n int) {
	cpu0 := p.srv.cpu()
	p.res.ingestS = closedLoop(p.clients, n, func(_ *client, w, i int) { p.ingestOne(w, first+i, true) }).Seconds()
	p.res.ingestCPU = p.srv.cpu() - cpu0
}

// queryPhase is the closed-loop pass over every query operation.
func (p *repetition) queryPhase() {
	p.res.queryS = closedLoop(p.clients, len(p.ops), func(_ *client, w, i int) { p.queryOne(w, i, true) }).Seconds()
}

// mixedPhase is the open loop: connection 0 sends batches [first,
// first+n) on the schedule while connection 1 asks the query stream,
// closed loop, until the sender is done.
func (p *repetition) mixedPhase(first, n int) {
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			p.queryOne(1, i, false)
		}
	}()
	cpu0 := p.srv.cpu()
	ol := openLoop(p.sp.rate, n, func(i int) { p.ingestOne(0, first+i, false) })
	done.Store(true)
	wg.Wait()
	p.res.ingestCPU = p.srv.cpu() - cpu0
	p.res.ingestS, p.res.queryS = ol.wall.Seconds(), ol.wall.Seconds()
	p.res.ingestLat, p.res.lateness = ol.latency, ol.lateness
}

// merge folds the connections' tallies into the result.
func (p *repetition) merge() {
	res := p.res
	for _, l := range p.locals {
		res.attempted += l.attempted
		res.failed += l.failed
		res.ingestLines += l.lines
		for class, lat := range l.lat {
			if class == "ingest" {
				res.ingestLat = append(res.ingestLat, lat...)
				continue
			}
			res.queryLat[class] = append(res.queryLat[class], lat...)
			res.queries += len(lat)
		}
	}
}

// rep runs one repetition of a workload: set up, measure, check, tear
// down.
func (r *runner) rep(sp spec, ct *content, ops []queryOp) (*repResult, error) {
	res := &repResult{queryLat: map[string][]float64{}}
	p := &repetition{sp: sp, ct: ct, ops: ops, res: res, acked: make([]atomic.Bool, len(ct.bodies)), samples: newSampled(r.seed, len(ops))}
	sys := sp.sys.ShortName()

	setup := time.Now()
	dir, err := r.h.tempDir(sp.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeDir, first, want := filepath.Join(dir, "store"), 0, tally{}
	args := sp.storeFlags()
	if sp.compactEvery != "" {
		args = append(args, "-compact-every", sp.compactEvery)
	}
	if sp.serveFile {
		// Set-up, first part: the log file. Then the load phase,
		// build-store as its own process, which is measured.
		logPath := filepath.Join(dir, "in.log")
		if err := os.WriteFile(logPath, ct.fileBytes(sp.fileBatches), 0o644); err != nil {
			return nil, err
		}
		res.setupS = time.Since(setup).Seconds()
		wall, ru, err := r.h.buildStore(sys, logPath, storeDir, sp.storeFlags())
		if err != nil {
			return nil, err
		}
		res.loadS, res.loadCPU, res.loadLines = wall, cpuSeconds(ru), ct.fileRef.lines
		res.attempted++
		setup = time.Now()
		first, want = sp.fileBatches, ct.fileRef.clone()
		// The byte-for-byte check needs the store as the queries will see
		// it, which here is the loaded one: take the reference before the
		// server opens the directory. Elsewhere it is taken after the
		// server stopped.
		if err := p.samples.reference(storeDir, ops); err != nil {
			return nil, err
		}
	} else {
		args = append(args, "-system", sys)
		if sp.shards > 0 {
			args = append(args, "-shards", fmt.Sprint(sp.shards))
		}
	}

	// Set-up, second part: the server, its subscriptions, its preload.
	if p.srv, err = r.h.serve(storeDir, args); err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			p.srv.kill()
		}
	}()
	res.startMs = p.srv.startMs
	connections := r.clients
	if sp.rate > 0 {
		connections = 2 // one paced sender and one querier, whatever the core count
	}
	for i := 0; i < connections; i++ {
		c := newClient(p.srv.api)
		defer c.close()
		p.clients = append(p.clients, c)
		p.locals = append(p.locals, tallies{lat: map[string][]float64{}})
	}
	if sp.subs {
		if err := subscribe(p.clients[0], ct); err != nil {
			return nil, err
		}
	}
	var refused atomic.Int64
	closedLoop(p.clients, sp.preload+sp.warmup, func(c *client, _, i int) {
		if !p.send(c, first+i) {
			refused.Add(1)
		}
	})
	if n := refused.Load(); n > 0 {
		return nil, fmt.Errorf("%d preload batches were refused", n)
	}
	first += sp.preload + sp.warmup
	// Collect what set-up left behind now, so that the harness's own
	// collector does not start on it in the middle of the measured phases,
	// on the two cores the server needs.
	runtime.GC()
	res.setupS += time.Since(setup).Seconds()

	n := len(ct.bodies) - first
	if sp.ingest > 0 {
		n = min(n, sp.ingest)
	}
	before, err := p.srv.counters()
	if err != nil {
		return nil, err
	}
	switch {
	case sp.rate > 0:
		p.mixedPhase(first, n)
	case sp.serveFile:
		p.queryPhase()
		p.ingestPhase(first, n)
	default:
		p.ingestPhase(first, n)
		p.queryPhase()
	}
	p.merge()
	if err := p.fe.get(); err != nil {
		return nil, err
	}
	res.cpuPerMline = res.ingestCPU / float64(res.ingestLines) * 1e6
	if sp.serveFile {
		res.cpuPerMline = res.loadCPU / float64(res.loadLines) * 1e6
	}

	// Oracle: what the live server holds is what the reference says the
	// acknowledged batches contain.
	for i := range p.acked {
		if p.acked[i].Load() {
			want.add(ct.refs[i])
		}
	}
	if err := checkServed(p.clients[0], want); err != nil {
		return nil, err
	}
	after, err := p.srv.counters()
	if err != nil {
		return nil, err
	}
	res.cacheHits = after["query_cache_hits_total"] - before["query_cache_hits_total"]
	res.cacheMisses = after["query_cache_misses_total"] - before["query_cache_misses_total"]

	// Graceful stop, then the same check on the reopened directory.
	res.rssMB = p.srv.rssPeakMB()
	err = p.srv.stop()
	stopped = true
	if err != nil {
		return nil, err
	}
	if res.diskBytes, err = dirBytes(storeDir); err != nil {
		return nil, err
	}
	res.alerts = want.total
	if err := checkReopened(storeDir, sp.shards, want); err != nil {
		return nil, err
	}
	if sp.rate == 0 {
		if !sp.serveFile {
			if err := p.samples.reference(storeDir, ops); err != nil {
				return nil, err
			}
		}
		if err := p.samples.check(ops); err != nil {
			return nil, err
		}
	}
	if res.alerts == 0 || res.ingestLines == 0 || res.queries == 0 {
		return nil, errors.New("a phase did no work")
	}
	fmt.Fprintf(os.Stderr, "  %s: ingest %.0f lines/s, p50 %.2f ms, %.2f CPU s/Mline; %.0f queries/s, p50 agg %.2f agg_body %.2f select %.2f ms\n",
		sp.name, float64(res.ingestLines)/res.ingestS, percentile(res.ingestLat, 50), res.cpuPerMline, float64(res.queries)/res.queryS,
		percentile(res.queryLat[classAgg], 50), percentile(res.queryLat[classAggBody], 50), percentile(res.queryLat[classSelect], 50))
	return res, nil
}
