// Package shard scales the alert store out: a cluster is N independent
// internal/store stores — each with its own wal, segments, and
// compaction — behind a router that hashes ingest by source and fans
// queries out to every shard, merging partial aggregates with the
// associative pieces in internal/query.
//
// The point is the failure envelope, not the fan-out. Every shard is
// guarded by a circuit breaker (open after K consecutive failures,
// half-open probes after a jittered backoff); every per-shard query
// attempt runs under its own deadline with bounded retries; a shard
// that is down, slow, or corrupt degrades a query instead of killing
// it — the merged response carries explicit coverage metadata (shards
// total/queried/answered, per-shard error strings) and a partial flag.
// Ingest is backpressured per shard: each shard has a bounded queue of
// append batches drained by one worker, and a full queue rejects new
// batches immediately (the HTTP layer turns that into 429 +
// Retry-After) so one hot shard cannot starve the rest. A shard whose
// directory fails to open is quarantined at startup while its siblings
// serve.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whatsupersay/internal/correlate"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
	"whatsupersay/internal/query"
	"whatsupersay/internal/store"
)

const (
	clusterManifestName = "CLUSTER"
	clusterVersion      = 1
	shardDirPattern     = "shard-%02d"
)

// DefaultQueueDepth bounds each shard's pending ingest batches.
const DefaultQueueDepth = 64

// DefaultQueryTimeout is the per-shard, per-attempt query deadline.
const DefaultQueryTimeout = 5 * time.Second

// DefaultRetryAfter is the backpressure hint returned with a queue-full
// rejection.
const DefaultRetryAfter = time.Second

// ErrQueueFull is the per-shard ingest backpressure signal: the shard's
// bounded queue is at capacity and the batch was not enqueued.
var ErrQueueFull = errors.New("shard: ingest queue full")

// ErrBreakerOpen is the fail-fast signal for a shard whose breaker is
// open: the shard is presumed down and the call was not attempted.
var ErrBreakerOpen = errors.New("shard: breaker open")

// ErrQuarantined marks a shard whose directory failed to open at
// startup; it stays out of service until the process restarts with the
// directory repaired.
var ErrQuarantined = errors.New("shard: quarantined")

// Backend is the store surface the router consumes. *store.Store
// satisfies it; so does internal/faultinject's FaultyStore wrapper,
// which is how the failure envelope is tested deterministically.
type Backend interface {
	Append(entries ...store.Entry) error
	Scan(f store.Filter, fn func(store.Entry) error) (store.ScanStats, error)
	ScanColumns(f store.Filter, v store.ColumnVisitor) (store.ScanStats, error)
	Seal() error
	Close() error
	Len() int
	TailLen() int
	Segments() []store.SegmentInfo
	Fingerprint() uint64
	System() logrec.System
}

// Options tune a cluster. The zero value gets sane defaults.
type Options struct {
	// Store tunes each shard's underlying store (flush size, compaction
	// cadence, retention — all per shard).
	Store store.Options
	// QueueDepth bounds each shard's pending ingest batches (default
	// DefaultQueueDepth).
	QueueDepth int
	// FailureThreshold is K: consecutive failures before the shard's
	// breaker opens (default DefaultFailureThreshold).
	FailureThreshold int
	// BreakerBackoff and BreakerMaxWait bound the open-state wait before
	// a half-open probe; the wait doubles on each failed probe.
	BreakerBackoff time.Duration
	BreakerMaxWait time.Duration
	// QueryTimeout is the per-shard, per-attempt deadline on scatter
	// queries (default DefaultQueryTimeout).
	QueryTimeout time.Duration
	// Retries is how many extra attempts a scatter query makes against a
	// failing shard before reporting it degraded (default 1; negative
	// disables retries).
	Retries int
	// RetryAfter is the hint returned with queue-full rejections
	// (default DefaultRetryAfter).
	RetryAfter time.Duration
	// CacheSize, when positive, enables the combined-fingerprint
	// aggregate cache with this many entries.
	CacheSize int
	// Seed drives breaker-backoff jitter. Zero (the production default)
	// draws a random seed at Open so separate routers' backoffs expire
	// decorrelated; tests set a non-zero seed to replay transitions
	// exactly.
	Seed int64
	// Clock is the breaker's time source (default time.Now; tests
	// inject a fake to step open → half-open transitions).
	Clock func() time.Time
	// OpenStore, when non-nil, replaces store.Open for each shard — the
	// seam fault-injection tests use to fail an open or wrap a shard in
	// a faulty backend. Production leaves it nil.
	OpenStore func(dir string, opts store.Options) (Backend, *store.OpenReport, error)
	// Correlate tunes the per-shard correlation miners (see
	// internal/correlate). The zero value works: category nodes, the
	// default window, kept entries only.
	Correlate correlate.Config
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return DefaultQueueDepth
}

func (o Options) queryTimeout() time.Duration {
	if o.QueryTimeout > 0 {
		return o.QueryTimeout
	}
	return DefaultQueryTimeout
}

func (o Options) retries() int {
	switch {
	case o.Retries > 0:
		return o.Retries
	case o.Retries < 0:
		return 0
	}
	return 1
}

func (o Options) retryAfter() time.Duration {
	if o.RetryAfter > 0 {
		return o.RetryAfter
	}
	return DefaultRetryAfter
}

// clusterManifest is the cluster's on-disk identity: the shard count is
// part of the data's shape (it pins the source hash ring), so it lives
// on disk, not in flags.
//
// Two layouts exist, and this file is the only code that tells them
// apart. The manifest layout is a CLUSTER file beside shard-NN/ store
// directories. The flat layout is a one-shard cluster with no CLUSTER
// file whose shard 0 is the directory itself — exactly a plain
// internal/store directory, so build-store output serves in place and
// store.Open, compact and correlate -dir keep working on what serve
// leaves behind. Create writes the flat layout for one shard and the
// manifest layout otherwise; a CLUSTER file naming one shard opens too.
type clusterManifest struct {
	Version int    `json:"version"`
	Shards  int    `json:"shards"`
	System  string `json:"system"`
	flat    bool
}

// readShape reads dir's manifest, synthesizing the flat layout's in
// memory (nothing is written). The error wraps os.ErrNotExist when dir
// holds neither layout.
func readShape(dir string) (clusterManifest, error) {
	m, err := readClusterManifest(dir)
	if !errors.Is(err, os.ErrNotExist) {
		return m, err
	}
	sys, err := store.SystemOf(dir)
	if err != nil {
		return m, err
	}
	return clusterManifest{Version: clusterVersion, Shards: 1, System: sys.ShortName(), flat: true}, nil
}

// shardDir places shard id of a cluster of shape m rooted at root.
func (m clusterManifest) shardDir(root string, id int) string {
	if m.flat {
		return root
	}
	return ShardDir(root, id)
}

// Shape reports the system and shard count of the cluster in dir without
// opening it. The error wraps os.ErrNotExist when dir holds no cluster.
func Shape(dir string) (logrec.System, int, error) {
	m, err := readShape(dir)
	if err != nil {
		return 0, 0, err
	}
	sys, err := logrec.ParseSystem(m.System)
	return sys, m.Shards, err
}

// shardState is one shard slot: its backend (nil when quarantined), its
// breaker, its bounded ingest queue, and its telemetry.
type shardState struct {
	id      int
	dir     string
	backend Backend // nil => quarantined
	openErr string  // why, when quarantined
	br      *breaker

	queue    chan ingestBatch
	workerWG sync.WaitGroup
	inflight atomic.Int32 // batches being applied right now (0 or 1)
	depth    atomic.Int32 // batches enqueued and not yet picked up
	// drain is an EWMA of how long one queued batch takes to apply,
	// maintained by the worker. It turns a queue-full rejection into an
	// honest Retry-After: (pending batches + 1) × drain time.
	drain DrainEWMA

	totalFailures atomic.Int64
	lastErr       atomic.Value // string

	gQueue    *obs.Gauge
	gBreaker  *obs.Gauge
	cFailures *obs.Counter
	cRejects  *obs.Counter
}

type ingestBatch struct {
	entries []store.Entry
	done    chan error
}

// Cluster is one open sharded store.
type Cluster struct {
	dir  string
	sys  logrec.System
	opts Options

	shards []*shardState
	cache  *query.Cache
	// standing owns the cluster's standing-query state: one incremental
	// registry per standing-capable shard plus the merged-threshold
	// evaluator (see standing.go). Always non-nil after Open.
	standing *clusterStanding
	// correlate owns the per-shard correlation miners and the merged
	// cluster graph/prediction views (see correlate.go). Always non-nil
	// after Open.
	correlate *clusterCorrelate

	cacheHits, cacheMisses atomic.Int64

	mu     sync.RWMutex // guards closed against in-flight Appends
	closed bool
}

// OpenReport aggregates what opening each shard found.
type OpenReport struct {
	// Shards is the cluster size; Quarantined maps the shards that
	// failed to open to the reason they are out of service.
	Shards      int
	Quarantined map[int]string
	// Stores holds each healthy shard's own open report.
	Stores map[int]*store.OpenReport
}

// ShardDir returns the directory of shard id under a manifest-layout
// cluster root.
func ShardDir(root string, id int) string {
	return filepath.Join(root, fmt.Sprintf(shardDirPattern, id))
}

// ShardFor routes a source name onto a shard: FNV-1a over the source,
// mod the cluster size. The hash is part of the on-disk contract — the
// manifest pins the shard count so the ring never silently moves.
func ShardFor(source string, shards int) int {
	// hash/fnv's New32a, inlined: ingest hashes every entry, and the
	// hash.Hash32 interface costs two allocations a call.
	h := uint32(2166136261)
	for i := 0; i < len(source); i++ {
		h = (h ^ uint32(source[i])) * 16777619
	}
	return int(h % uint32(shards))
}

// Create initializes a cluster directory for sys with n shards and
// opens it. Creating over an existing cluster of the same shape reopens
// it; a different system or shard count is an error.
func Create(dir string, sys logrec.System, n int, opts Options) (*Cluster, *OpenReport, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("shard: create %s: shard count %d", dir, n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	m, err := readShape(dir)
	switch {
	case err == nil:
		if m.System != sys.ShortName() || m.Shards != n {
			return nil, nil, fmt.Errorf("shard: %s already holds a %d-shard %s cluster", dir, m.Shards, m.System)
		}
	case errors.Is(err, os.ErrNotExist):
		m = clusterManifest{Version: clusterVersion, Shards: n, System: sys.ShortName(), flat: n == 1}
		if !m.flat {
			if err := writeClusterManifest(dir, m); err != nil {
				return nil, nil, err
			}
		}
	default:
		return nil, nil, err
	}
	// Materialize each shard's store directory so Open finds them all.
	for i := 0; i < n; i++ {
		st, err := store.Create(m.shardDir(dir, i), sys, store.Options{FlushEvery: opts.Store.FlushEvery})
		if err != nil {
			return nil, nil, fmt.Errorf("shard: create shard %d: %w", i, err)
		}
		if err := st.Close(); err != nil {
			return nil, nil, err
		}
	}
	return Open(dir, opts)
}

// Open opens an existing cluster: the manifest names the shape (a plain
// store directory is a flat one-shard cluster), and every shard
// directory is opened independently. A shard whose open fails — a
// corrupt manifest, an unreadable directory — is quarantined with its
// error recorded while the rest of the cluster serves; it is never
// half-opened or guessed at.
func Open(dir string, opts Options) (*Cluster, *OpenReport, error) {
	m, err := readShape(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: open %s: %w", dir, err)
	}
	sys, err := logrec.ParseSystem(m.System)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: open %s: %w", dir, err)
	}
	openStore := opts.OpenStore
	if openStore == nil {
		openStore = func(d string, o store.Options) (Backend, *store.OpenReport, error) {
			return store.Open(d, o)
		}
	}
	opts.Seed = resolveSeed(opts.Seed)
	c := &Cluster{dir: dir, sys: sys, opts: opts}
	if opts.CacheSize > 0 {
		c.cache = query.NewCache(opts.CacheSize)
	}
	rep := &OpenReport{Shards: m.Shards, Quarantined: map[int]string{}, Stores: map[int]*store.OpenReport{}}
	for i := 0; i < m.Shards; i++ {
		sh := newShardState(i, m.shardDir(dir, i), opts)
		backend, srep, err := openStore(sh.dir, opts.Store)
		if err != nil {
			// Quarantine: the slot exists (coverage metadata counts it),
			// but nothing is served from or appended to it.
			sh.openErr = err.Error()
			sh.gBreaker.Set(3)
			rep.Quarantined[i] = err.Error()
		} else {
			sh.backend = backend
			rep.Stores[i] = srep
			sh.queue = make(chan ingestBatch, opts.queueDepth())
			sh.workerWG.Add(1)
			go c.runWorker(sh)
		}
		c.shards = append(c.shards, sh)
	}
	c.standing = newClusterStanding(c)
	c.correlate = newClusterCorrelate(c)
	// Wire one multiplexed observer per shard (the store supports a
	// single observer), then install miner baselines — in that order, so
	// no mutation slips between a baseline scan and observation.
	for _, sh := range c.shards {
		if sb, ok := sh.backend.(standingCapable); ok && sh.backend != nil {
			if obsFn := c.observerFor(sh.id); obsFn != nil {
				sb.SetObserver(obsFn)
			}
		}
	}
	if err := c.correlate.init(); err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("shard: correlate init: %w", err)
	}
	return c, rep, nil
}

func newShardState(id int, dir string, opts Options) *shardState {
	label := fmt.Sprintf("%d", id)
	sh := &shardState{
		id:  id,
		dir: dir,
		br: newBreaker(opts.FailureThreshold, opts.BreakerBackoff, opts.BreakerMaxWait,
			opts.Seed+int64(id), opts.Clock),
		gQueue:    obs.Default.Gauge(fmt.Sprintf("shard_queue_depth{shard=%q}", label)),
		gBreaker:  obs.Default.Gauge(fmt.Sprintf("shard_breaker_state{shard=%q}", label)),
		cFailures: obs.Default.Counter(fmt.Sprintf("shard_failures_total{shard=%q}", label)),
		cRejects:  obs.Default.Counter(fmt.Sprintf("shard_queue_rejects_total{shard=%q}", label)),
	}
	sh.lastErr.Store("")
	return sh
}

// runWorker drains one shard's ingest queue. One worker per shard keeps
// appends ordered per shard and makes the queue the unit of
// backpressure: while an append is slow, batches pile into the bounded
// queue and overflow is rejected at enqueue time.
func (c *Cluster) runWorker(sh *shardState) {
	defer sh.workerWG.Done()
	for b := range sh.queue {
		sh.depth.Add(-1)
		sh.gQueue.Set(float64(sh.depth.Load()))
		sh.inflight.Store(1)
		t0 := time.Now()
		b.done <- c.applyAppend(sh, b.entries)
		sh.drain.Observe(time.Since(t0))
		sh.inflight.Store(0)
	}
}

// DrainEWMA tracks how long one queued batch takes to apply, as an
// exponentially weighted moving average (weight 1/8 — smooth enough to
// ride out one slow fsync, fresh enough to follow a real slowdown
// within a few batches). It is the drain-rate estimator behind every
// shard queue's Retry-After.
type DrainEWMA struct {
	nanos atomic.Int64
}

// Observe folds one batch's apply time into the average.
func (e *DrainEWMA) Observe(d time.Duration) {
	n := d.Nanoseconds()
	if n <= 0 {
		n = 1
	}
	for {
		old := e.nanos.Load()
		next := n
		if old > 0 {
			next = (7*old + n) / 8
		}
		if e.nanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current average (0 before any observation).
func (e *DrainEWMA) Value() time.Duration { return time.Duration(e.nanos.Load()) }

// RetryAfterEstimate converts queue state into a client backoff hint:
// the pending batches ahead of the client plus its own, each paying the
// observed drain time. A drain-derived estimate is clamped to [1s, 60s]
// — never zero, since a zero Retry-After invites an instant retry
// storm. With no drain observations yet it returns the configured
// fallback verbatim (1s when unset): an operator-chosen sub-second hint
// is honored internally, and the HTTP layer ceils it to "1" on the
// wire.
func RetryAfterEstimate(pending int, drain, fallback time.Duration) time.Duration {
	if drain <= 0 {
		if fallback > 0 {
			return fallback
		}
		return time.Second
	}
	est := time.Duration(pending+1) * drain
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// applyAppend runs one batch against the shard under its breaker.
func (c *Cluster) applyAppend(sh *shardState, entries []store.Entry) error {
	if !sh.br.Allow() {
		return fmt.Errorf("shard %d: %w", sh.id, ErrBreakerOpen)
	}
	err := sh.backend.Append(entries...)
	c.observe(sh, err)
	if err != nil {
		return fmt.Errorf("shard %d: %w", sh.id, err)
	}
	return nil
}

// observe feeds one call outcome into the shard's breaker and telemetry.
func (c *Cluster) observe(sh *shardState, err error) {
	if err == nil {
		sh.br.Success()
	} else {
		sh.br.Failure()
		sh.totalFailures.Add(1)
		sh.cFailures.Inc()
		sh.lastErr.Store(err.Error())
	}
	sh.gBreaker.Set(sh.br.stateCode())
}

// AppendReport says what a cluster append did, shard by shard. The
// cluster never all-or-nothings a batch: entries routed to healthy
// shards land even when a sibling rejects or fails, which is the "one
// hot shard cannot starve the rest" contract.
type AppendReport struct {
	// Appended counts entries durably accepted, summed over PerShard.
	Appended int         `json:"appended"`
	PerShard map[int]int `json:"per_shard,omitempty"`
	// Rejected counts entries bounced by a full ingest queue —
	// backpressure, retry after RetryAfter.
	Rejected   map[int]int   `json:"rejected,omitempty"`
	RetryAfter time.Duration `json:"-"`
	// RejectedSources lists, per rejected shard, the distinct sources in
	// the bounced slice — the retry unit. Entries routed to healthy
	// shards are already durable and the store does not deduplicate, so
	// a client must resend only these sources' records, never the whole
	// batch.
	RejectedSources map[int][]string `json:"rejected_sources,omitempty"`
	// Errors records shards whose append failed (or that are
	// quarantined / breaker-open): entries for those shards did not land.
	Errors map[int]string `json:"errors,omitempty"`
}

// Append routes entries to their shards by source hash and applies each
// shard's slice through its bounded queue, waiting for the outcomes.
// Shards whose queue is full reject immediately (Rejected +
// RetryAfter); shards that are quarantined or fail record Errors; the
// rest append. An error is returned only for a closed cluster.
func (c *Cluster) Append(entries []store.Entry) (AppendReport, error) {
	rep := AppendReport{PerShard: map[int]int{}, Rejected: map[int]int{}, Errors: map[int]string{}, RejectedSources: map[int][]string{}, RetryAfter: c.opts.retryAfter()}
	if len(entries) == 0 {
		return rep, nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return rep, errors.New("shard: cluster closed")
	}

	// Route in two passes, count then fill, so each entry is copied at
	// most once into a slice that never regrows — and not at all when one
	// shard takes the whole batch (every batch, with one shard): Append
	// returns only after that shard's worker is done with the slice, and
	// the store copies what it keeps.
	ids := make([]int, len(entries))
	counts := make([]int, len(c.shards))
	for i := range entries {
		ids[i] = ShardFor(entries[i].Record.Source, len(c.shards))
		counts[ids[i]]++
	}
	parts := make(map[int][]store.Entry)
	if counts[ids[0]] == len(entries) {
		parts[ids[0]] = entries
	} else {
		for i, id := range ids {
			if parts[id] == nil {
				parts[id] = make([]store.Entry, 0, counts[id])
			}
			parts[id] = append(parts[id], entries[i])
		}
	}
	type pending struct {
		id   int
		n    int
		done chan error
	}
	var waits []pending
	for id, batch := range parts {
		sh := c.shards[id]
		if sh.backend == nil {
			rep.Errors[id] = fmt.Sprintf("%v: %s", ErrQuarantined, sh.openErr)
			continue
		}
		b := ingestBatch{entries: batch, done: make(chan error, 1)}
		select {
		case sh.queue <- b:
			sh.depth.Add(1)
			sh.gQueue.Set(float64(sh.depth.Load()))
			waits = append(waits, pending{id: id, n: len(batch), done: b.done})
		default:
			sh.cRejects.Inc()
			rep.Rejected[id] += len(batch)
			rep.RejectedSources[id] = sourcesOf(batch)
			// The slowest rejecting shard sets the report's hint: retrying
			// sooner than its queue can drain would just bounce again.
			pending := int(sh.depth.Load() + sh.inflight.Load())
			est := RetryAfterEstimate(pending, sh.drain.Value(), c.opts.retryAfter())
			if est > rep.RetryAfter {
				rep.RetryAfter = est
			}
		}
	}
	for _, p := range waits {
		if err := <-p.done; err != nil {
			rep.Errors[p.id] = err.Error()
			continue
		}
		rep.PerShard[p.id] += p.n
		rep.Appended += p.n
	}
	return rep, nil
}

// sourcesOf returns the distinct sources in a batch, sorted.
func sourcesOf(batch []store.Entry) []string {
	seen := make(map[string]bool)
	out := make([]string, 0, 1)
	for _, en := range batch {
		if !seen[en.Record.Source] {
			seen[en.Record.Source] = true
			out = append(out, en.Record.Source)
		}
	}
	sort.Strings(out)
	return out
}

// Seal flushes every healthy shard's tail into a sealed segment.
func (c *Cluster) Seal() error {
	for _, sh := range c.shards {
		if sh.backend == nil {
			continue
		}
		if err := sh.backend.Seal(); err != nil {
			return fmt.Errorf("shard %d: %w", sh.id, err)
		}
	}
	return nil
}

// Close stops the ingest workers and closes every healthy shard
// (sealing tails). Quarantined shards have nothing to close.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	// Shutdown order matters for warm starts: stop ingest, seal every
	// tail while the observers are still attached (the miners note the
	// post-seal fingerprint), detach, close the miners (each writes its
	// final artifact under that fingerprint), stop the standing tier,
	// then close the backends — whose own closing seal is a no-op on the
	// already-empty tails, so the persisted fingerprints survive reopen.
	var firstErr error
	for _, sh := range c.shards {
		if sh.backend == nil {
			continue
		}
		close(sh.queue)
		sh.workerWG.Wait()
		if err := sh.backend.Seal(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", sh.id, err)
		}
	}
	for _, sh := range c.shards {
		if sb, ok := sh.backend.(standingCapable); ok && sh.backend != nil {
			sb.SetObserver(nil)
		}
	}
	c.correlate.close()
	c.standing.close()
	for _, sh := range c.shards {
		if sh.backend == nil {
			continue
		}
		if err := sh.backend.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", sh.id, err)
		}
	}
	return firstErr
}

// System returns the machine whose alerts the cluster holds.
func (c *Cluster) System() logrec.System { return c.sys }

// Dir returns the cluster root directory.
func (c *Cluster) Dir() string { return c.dir }

// NumShards returns the cluster size (healthy or not).
func (c *Cluster) NumShards() int { return len(c.shards) }

// Len sums entry counts over healthy shards.
func (c *Cluster) Len() int {
	var n int
	for _, sh := range c.shards {
		if sh.backend != nil {
			n += sh.backend.Len()
		}
	}
	return n
}

// CacheStats reports combined-fingerprint cache hits and misses (zeros
// when the cache is disabled).
func (c *Cluster) CacheStats() (hits, misses int64) {
	return c.cacheHits.Load(), c.cacheMisses.Load()
}

// Health is one shard's operator-facing state, the /api/shards row.
type Health struct {
	ID    int    `json:"id"`
	Dir   string `json:"dir"`
	State string `json:"state"` // ok | half-open | open | quarantined
	// ConsecutiveFailures is the breaker's current failure run;
	// TotalFailures counts every failed call since open.
	ConsecutiveFailures int    `json:"consecutive_failures"`
	TotalFailures       int64  `json:"total_failures"`
	LastError           string `json:"last_error,omitempty"`
	// RetryInMs, when the breaker is open, is the time until the next
	// half-open probe is admitted.
	RetryInMs int64 `json:"retry_in_ms,omitempty"`
	// QueueDepth is the shard's pending ingest batches; Inflight is 1
	// while a batch is being applied.
	QueueDepth int `json:"queue_depth"`
	Inflight   int `json:"inflight"`
	// Entries/TailEntries/Segments describe the shard's store (zero for
	// quarantined shards, which cannot be read).
	Entries     int `json:"entries"`
	TailEntries int `json:"tail_entries"`
	Segments    int `json:"segments"`
}

// Health reports every shard's state, quarantined ones included.
func (c *Cluster) Health() []Health {
	out := make([]Health, 0, len(c.shards))
	for _, sh := range c.shards {
		h := Health{
			ID:            sh.id,
			Dir:           sh.dir,
			TotalFailures: sh.totalFailures.Load(),
			LastError:     sh.lastErr.Load().(string),
			QueueDepth:    int(sh.depth.Load()),
			Inflight:      int(sh.inflight.Load()),
		}
		if sh.backend == nil {
			h.State = "quarantined"
			h.LastError = sh.openErr
		} else {
			state, consecutive, retryIn := sh.br.snapshot()
			h.State = state
			h.ConsecutiveFailures = consecutive
			h.RetryInMs = retryIn.Milliseconds()
			h.Entries = sh.backend.Len()
			h.TailEntries = sh.backend.TailLen()
			h.Segments = len(sh.backend.Segments())
		}
		out = append(out, h)
	}
	return out
}

// ShardSegments is one shard's segment inventory for /api/segments.
type ShardSegments struct {
	Shard       int                 `json:"shard"`
	State       string              `json:"state"`
	Segments    []store.SegmentInfo `json:"segments,omitempty"`
	TailEntries int                 `json:"tail_entries"`
	Entries     int                 `json:"entries"`
}

// Segments lists every shard's physical layout.
func (c *Cluster) Segments() []ShardSegments {
	out := make([]ShardSegments, 0, len(c.shards))
	for _, sh := range c.shards {
		ss := ShardSegments{Shard: sh.id}
		if sh.backend == nil {
			ss.State = "quarantined"
		} else {
			state, _, _ := sh.br.snapshot()
			ss.State = state
			ss.Segments = sh.backend.Segments()
			ss.TailEntries = sh.backend.TailLen()
			ss.Entries = sh.backend.Len()
		}
		out = append(out, ss)
	}
	return out
}

func readClusterManifest(dir string) (clusterManifest, error) {
	var m clusterManifest
	data, err := os.ReadFile(filepath.Join(dir, clusterManifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("bad cluster manifest: %w", err)
	}
	if m.Version != clusterVersion {
		return m, fmt.Errorf("cluster manifest version %d not supported", m.Version)
	}
	if m.Shards <= 0 {
		return m, fmt.Errorf("cluster manifest: bad shard count %d", m.Shards)
	}
	return m, nil
}

// writeClusterManifest persists the manifest with the store's
// write-sync-rename-syncDir discipline: a crash shortly after Create
// must not leave shard directories behind a missing or empty CLUSTER
// file, which would make the whole cluster unopenable.
func writeClusterManifest(dir string, m clusterManifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return store.AtomicWriteFile(filepath.Join(dir, clusterManifestName), append(data, '\n'))
}
