package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"whatsupersay/internal/cluster"
	"whatsupersay/internal/filter"
	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/simulate"
	"whatsupersay/internal/store"
	"whatsupersay/internal/tag"
)

// batchLines is how many log lines ride in one POST /api/ingest.
const batchLines = 500

// tally is the part of an aggregate the oracle compares: what the
// pipeline made of a set of lines.
type tally struct {
	lines, parseErrors int
	total, kept        int
	byCategory         map[string]int
}

// clone copies t so that adding to the copy leaves t alone.
func (t tally) clone() tally {
	var c tally
	c.add(t)
	return c
}

func (t *tally) add(o tally) {
	t.lines += o.lines
	t.parseErrors += o.parseErrors
	t.total += o.total
	t.kept += o.kept
	if t.byCategory == nil {
		t.byCategory = map[string]int{}
	}
	for k, v := range o.byCategory {
		t.byCategory[k] += v
	}
}

// content is everything a workload puts on the wire, made once per run
// from the seed, and the in-process reference it is checked against.
type content struct {
	sys      logrec.System
	logStart time.Time
	lines    int
	bodies   [][]byte // one POST body per batch
	refs     []tally  // the reference for each batch ingested on its own
	fileRef  tally    // the reference for the loaded file as a whole
	genS     float64  // simulate.Generate wall time
	refS     float64  // reference computation wall time

	// What the query generator draws from, taken from the alerts as the
	// server will see them: every alert's time in order (Unix seconds),
	// the busiest sources and categories by rank, and the commonest
	// words of alert bodies.
	times      []int64
	sources    []string
	categories []string
	words      []string
}

// pipeline is the serve tier's ingest path up to the store, in handler
// order. Both POST /api/ingest (per batch) and build-store -in (whole
// file) run exactly these stages, so it is the reference for both.
func pipeline(sys logrec.System, logStart time.Time, body []byte) (entries []store.Entry, t tally, err error) {
	recs, stats, err := ingest.ReadAll(bytes.NewReader(body), sys, logStart)
	if err != nil {
		return nil, t, err
	}
	alerts := tag.NewTagger(sys).TagAll(recs)
	tag.SortAlerts(alerts)
	filtered := filter.Simultaneous{T: filter.DefaultThreshold}.Filter(alerts)
	entries = store.FromAlerts(alerts, filtered)
	t = tally{lines: stats.Lines, parseErrors: stats.ParseErrors, total: len(alerts), kept: len(filtered), byCategory: map[string]int{}}
	for _, en := range entries {
		t.byCategory[en.Category]++
	}
	return entries, t, nil
}

// makeContent generates the system's log at the given scale and seed,
// cuts it into batches and computes the reference: every batch ingested
// on its own, and batches [0, fileBatches) loaded as one file. The query
// generator draws from the alerts the store holds when the queries run:
// the file's when there is one, else those of the preloaded batches when
// the queries run beside the ingest, else those of every batch.
func makeContent(sys logrec.System, scale float64, seed int64, fileBatches, preload int) (*content, error) {
	t0 := time.Now()
	out, err := simulate.Generate(simulate.Config{System: sys, Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	m, err := cluster.New(sys)
	if err != nil {
		return nil, err
	}
	c := &content{sys: sys, logStart: m.LogStart, lines: len(out.Lines), genS: time.Since(t0).Seconds()}
	for lo := 0; lo < len(out.Lines); lo += batchLines {
		hi := min(lo+batchLines, len(out.Lines))
		c.bodies = append(c.bodies, []byte(strings.Join(out.Lines[lo:hi], "\n")+"\n"))
	}
	if fileBatches > len(c.bodies) {
		return nil, fmt.Errorf("%v at scale %v has %d batches, the workload needs %d", sys, scale, len(c.bodies), fileBatches)
	}

	t0 = time.Now()
	v := vocabulary{src: map[string]int{}, cat: map[string]int{}, word: map[string]int{}}
	for i, body := range c.bodies {
		entries, t, err := pipeline(sys, c.logStart, body)
		if err != nil {
			return nil, fmt.Errorf("reference batch %d: %w", i, err)
		}
		c.refs = append(c.refs, t)
		if fileBatches == 0 && (preload == 0 || i < preload) {
			v.learn(entries)
		}
	}
	if fileBatches > 0 {
		entries, t, err := pipeline(sys, c.logStart, c.fileBytes(fileBatches))
		if err != nil {
			return nil, fmt.Errorf("reference file: %w", err)
		}
		c.fileRef = t
		v.learn(entries)
	}
	c.refS = time.Since(t0).Seconds()
	if len(v.src) == 0 || len(v.word) == 0 {
		return nil, fmt.Errorf("%v at scale %v generated no alerts to query", sys, scale)
	}
	sort.Slice(v.times, func(i, j int) bool { return v.times[i] < v.times[j] })
	c.times = v.times
	c.sources = topKeys(v.src, 8)
	c.categories = topKeys(v.cat, 4)
	c.words = topKeys(v.word, 8)
	return c, nil
}

// vocabulary is what the query generator may ask about: the alerts'
// times, and how often each source, category and body word occurs.
type vocabulary struct {
	times          []int64
	src, cat, word map[string]int
}

func (v *vocabulary) learn(entries []store.Entry) {
	for i, en := range entries {
		v.times = append(v.times, en.Record.Time.Unix())
		v.src[en.Record.Source]++
		v.cat[en.Category]++
		// A sample of the bodies is plenty to find the common words.
		if i%50 != 0 {
			continue
		}
		for _, w := range strings.Fields(en.Record.Body) {
			if len(w) >= 5 && strings.Trim(w, letters) == "" {
				v.word[w]++
			}
		}
	}
}

const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// topKeys returns up to n keys by descending count, ties by name, so
// the choice does not depend on map order.
func topKeys(m map[string]int, n int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys[:min(n, len(keys))]
}

// sum adds up the references of batches [lo, hi).
func (c *content) sum(lo, hi int) tally {
	var t tally
	for _, r := range c.refs[lo:hi] {
		t.add(r)
	}
	return t
}

// fileBytes is batches [0, n) as one log file, what build-store loads.
func (c *content) fileBytes(n int) []byte {
	return bytes.Join(c.bodies[:n], nil)
}

// Query classes: the three the latency metrics are named after, and the
// model endpoints that count toward query_per_s only.
const (
	classAgg     = "agg"
	classAggBody = "agg_body"
	classSelect  = "select"
	classOther   = "other"
)

type queryOp struct {
	class string
	path  string
	// filter and limit are the same request as path, in the form the
	// in-process engine takes, for the reference answers and the traced
	// run.
	filter store.Filter
	limit  int
}

// queryParams is one request before it is rendered both ways.
type queryParams struct {
	from, to time.Time
	source   string
	category string
	body     string
	kept     bool
	limit    int // > 0 makes it a select
}

func makeOp(class string, p queryParams) queryOp {
	v := url.Values{}
	op := queryOp{class: class, limit: p.limit}
	if !p.from.IsZero() {
		v.Set("from", p.from.Format(time.RFC3339Nano))
		v.Set("to", p.to.Format(time.RFC3339Nano))
		op.filter.From, op.filter.To = p.from, p.to
	}
	if p.source != "" {
		v.Set("source", p.source)
		op.filter.Sources = []string{p.source}
	}
	if p.category != "" {
		v.Set("category", p.category)
		op.filter.Categories = []string{p.category}
	}
	if p.body != "" {
		v.Set("body", p.body)
		op.filter.BodyContains = p.body
	}
	if p.kept {
		v.Set("kept", "true")
		op.filter.Kept = &p.kept
	}
	op.path = "/api/aggregate"
	if p.limit > 0 {
		op.path = "/api/query"
		v.Set("limit", fmt.Sprint(p.limit))
	}
	if len(v) > 0 {
		op.path += "?" + v.Encode()
	}
	return op
}

// window draws a time range holding a share of the alerts: it runs from
// the alert at a seeded rank to the alert that share of the log later.
// Alerts come in storms, so a range that was a fixed share of the time
// span would hold anything from nothing to most of the log, and the
// median query would be a different query at every seed; a fixed share
// of the alerts keeps the work per query the same while the seed moves
// where it falls.
//
// Both ends are cut half a second before an alert's (whole) second.
// That keeps every alert clear of a boundary, which matters at the seed
// commit: a sealed segment drops a record whose time equals From when
// one of its index blocks starts at that same instant (walkRange and
// walkOrdinals in internal/store/segment.go seek past it), while the
// unsealed tail keeps it, so the same query answers differently before
// and after a seal. The oracle found it; the benchmark may not fix it.
func (c *content) window(rng *rand.Rand, minShare, maxShare float64) (from, to time.Time) {
	n := len(c.times)
	w := int((minShare + (maxShare-minShare)*rng.Float64()) * float64(n))
	return c.windowAt(rng.Intn(n-w), w)
}

// windowAt is the range holding the w alerts from rank lo on.
func (c *content) windowAt(lo, w int) (from, to time.Time) {
	const half = 500 * time.Millisecond
	from = time.Unix(c.times[lo], 0).UTC().Add(-half)
	to = time.Unix(max(c.times[lo+w], c.times[lo]+1), 0).UTC().Add(-half)
	return from, to
}

// query builds one operation of the class over a fresh window. i picks
// the class's shape and walks the sources, categories and words by
// rank, so that every seed asks for the same mix of busy and quiet ones.
//
// Each class has one main shape, three operations in four or all of
// them, so that the class's median latency lies where its samples are
// dense. Two shapes of different cost in equal parts would put the
// median in the gap between their two humps, where a few operations
// more on one side move it by a third: a plain windowed aggregate costs
// four times one narrowed to a category, `kept=true` scans the window
// where `source=` reads one posting list, and a body word that half the
// alerts carry makes every match a decoded row where a rare one makes
// none. The minority shapes are cheaper than the main one, so they stay
// in the class and pull its median down a little; a change that made
// them slower than the main shape would show.
func (c *content) query(rng *rand.Rand, class string, i int, minShare, maxShare float64) queryOp {
	var p queryParams
	p.from, p.to = c.window(rng, minShare, maxShare)
	switch class {
	case classAgg:
		if i%4 == 3 {
			p.category = c.categories[i/4%len(c.categories)]
		}
	case classAggBody:
		p.body = c.words[i%min(3, len(c.words))]
	case classSelect:
		if i%4 == 3 {
			p.source, p.limit = c.sources[i/4%len(c.sources)], 100
		} else {
			p.kept, p.limit = true, 50
		}
	}
	return makeOp(class, p)
}

// windowQueries is the history mix: n operations in ratio 2:1:2
// (agg : agg_body : select), every one over its own seeded window
// holding 5-25 % of the alerts, so no two are equal and the aggregate
// cache cannot answer any of them. Every repetition of a run asks its
// own n: what a query costs depends on what its window happens to hold
// (a storm of one category, a quiet month), the costs within a class
// spread over a decade, and the median of a few hundred of them moves by
// a tenth from seed to seed; the median of the few thousand a run pools
// over its repetitions does not.
func (c *content) windowQueries(seed int64, rep, n int) []queryOp {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0001 ^ int64(rep)<<32))
	cycle := []string{classAgg, classSelect, classAggBody, classAgg, classSelect}
	ops := make([]queryOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, c.query(rng, cycle[i%len(cycle)], i/len(cycle), 0.10, 0.20))
	}
	return ops
}

// tilePeriod is how many windowed queries the mixed stream asks between
// two dashboard tiles.
const tilePeriod = 10

// streamQueries is what the mixed workload's querier asks beside the
// paced ingest: the history mix of distinct windows, and after every
// tilePeriod of them one of six dashboard tiles, asked twice in a row as
// two viewers of one dashboard would. The tiles are the four unwindowed
// aggregates (everything; kept=true; the two busiest sources, each of
// which lives on one shard) and the two model endpoints. A tile's second
// answer comes from the cache unless an append fell between the two,
// which is the only way the cache gets to answer at twenty appends a
// second. Tiles are class "other": they count toward query_per_s and
// the cache ratio, not toward a latency median, which stays that of the
// windowed queries and so compares with history's.
func (c *content) streamQueries(seed int64, rep, n int) []queryOp {
	windowed := c.windowQueries(seed^0x5eed0002, rep, n)
	tiles := []queryOp{
		makeOp(classOther, queryParams{}),
		makeOp(classOther, queryParams{kept: true}),
		makeOp(classOther, queryParams{source: c.sources[0]}),
		makeOp(classOther, queryParams{source: c.sources[1%len(c.sources)]}),
		{class: classOther, path: "/api/predict"},
		{class: classOther, path: "/api/correlations"},
	}
	ops := make([]queryOp, 0, n+2*(n/tilePeriod))
	for i, op := range windowed {
		ops = append(ops, op)
		if (i+1)%tilePeriod == 0 {
			tile := tiles[i/tilePeriod%len(tiles)]
			ops = append(ops, tile, tile)
		}
	}
	return ops
}

// fingerprint hashes everything a workload puts on the wire: the batch
// bytes, the query URLs and the schedule. Equal fingerprints drive the
// server identically.
func fingerprint(bodies [][]byte, queries []queryOp, schedule string) string {
	h := fnv.New64a()
	for _, b := range bodies {
		h.Write(b)
		h.Write([]byte{0xff})
	}
	for _, q := range queries {
		h.Write([]byte(q.path))
		h.Write([]byte{'\n'})
	}
	h.Write([]byte(schedule))
	return fmt.Sprintf("%016x", h.Sum64())
}
