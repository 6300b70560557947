// Package obs is the pipeline's observability layer: named counters,
// gauges, latency/size histograms, and stage-scoped spans, kept cheap
// enough to leave enabled in the hot paths. Every instrument is a single
// cache-line-friendly struct updated with atomic operations — no locks,
// no allocation, no channels on the record path — so instrumentation
// does not perturb the numbers it reports (the overhead model is
// documented in DESIGN.md §8 and pinned by benchmarks in this package).
//
// One registry, three views:
//
//   - Snapshot / WriteJSONFile: a machine-readable dump at process exit
//     (the `logstudy -metrics <path>` flag).
//   - WritePrometheus: Prometheus text exposition, served alongside
//     net/http/pprof by Handler (the `logstudy -http <addr>` flag).
//   - WriteSummary: a human-readable stage table (verbose mode).
//
// Metric names follow the Prometheus convention (`snake_case` with a
// `_total` / `_seconds` / `_bytes` unit suffix). A name may carry an
// embedded label clause — `shard_queue_depth{shard="3"}` — which the
// Prometheus writer splits back into base name and labels; this is how
// internal/shard keeps one instrument per shard in the same registry
// and schema as the unlabeled telemetry.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count, safe for concurrent use.
// A nil *Counter is a valid no-op, so a disabled registry costs one
// branch per update.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value (queue depth, speedup,
// utilization). A nil *Gauge is a valid no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(x float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(x))
	}
}

// Add adjusts the gauge by delta (CAS loop; gauges are low-frequency).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Unit declares how a histogram's raw int64 observations are scaled for
// export and display.
type Unit int

const (
	// None exports raw values unscaled.
	None Unit = iota
	// Seconds means observations are nanoseconds, exported as seconds.
	Seconds
	// Bytes means observations are byte counts.
	Bytes
)

// String returns the unit suffix used in summaries.
func (u Unit) String() string {
	switch u {
	case Seconds:
		return "seconds"
	case Bytes:
		return "bytes"
	default:
		return ""
	}
}

// scale converts a raw observation into the export unit.
func (u Unit) scale(v float64) float64 {
	if u == Seconds {
		return v / 1e9
	}
	return v
}

// histBuckets is the number of power-of-two buckets. Bucket i holds
// values in [2^(i-1), 2^i); bucket 0 holds v <= 0; the last bucket is
// the overflow. 2^45 ns ≈ 9.7 h and 2^45 bytes = 32 TiB, comfortably
// past anything a pipeline stage produces.
const histBuckets = 46

// Histogram is a fixed-bucket power-of-two histogram over int64
// observations (nanoseconds for latencies, bytes for sizes). Observe is
// three uncontended-atomic adds; there is no lock and no allocation.
// The bucket layout trades resolution (one bucket per binade) for a
// bounded, allocation-free footprint; quantiles are estimated by
// geometric interpolation within a bucket, which is exact enough for a
// stage table and honest about being an estimate.
type Histogram struct {
	unit    Unit
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets + 1]atomic.Int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > histBuckets {
		b = histBuckets
	}
	return b
}

// Observe records one raw value. A nil *Histogram is a valid no-op.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Tally is a goroutine-local Histogram: Observe is three plain adds,
// and Histogram.Merge folds the tally in with one atomic add per used
// bucket. A loop that observes every item keeps one and merges it at
// its own checkpoints, so the shared histogram's cache lines are not
// contended per item. The zero value is an empty tally.
type Tally struct {
	count, sum int64
	buckets    [histBuckets + 1]int64
}

// Observe records one raw value into the tally.
func (t *Tally) Observe(v int64) {
	t.count++
	t.sum += v
	t.buckets[bucketOf(v)]++
}

// Merge adds the tally's observations to h and empties the tally. A
// nil *Histogram drops them.
func (h *Histogram) Merge(t *Tally) {
	if h != nil && t.count != 0 {
		h.count.Add(t.count)
		h.sum.Add(t.sum)
		for i, n := range t.buckets {
			if n != 0 {
				h.buckets[i].Add(n)
			}
		}
	}
	*t = Tally{}
}

// ObserveSince records the elapsed time since start, for Seconds
// histograms.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations in the export unit.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.unit.scale(float64(h.sum.Load()))
}

// Quantile estimates the q-quantile (0 < q <= 1) in the export unit,
// interpolating geometrically within the winning bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i <= histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		if cum >= rank {
			if i == 0 {
				return 0
			}
			lo := float64(int64(1) << (i - 1))
			hi := lo * 2
			// Position of the target rank within this bucket.
			frac := float64(rank-(cum-n)) / float64(n)
			return h.unit.scale(lo * math.Pow(hi/lo, frac))
		}
	}
	return h.unit.scale(float64(int64(1) << (histBuckets - 1)))
}

// Registry holds a process's instruments by name. Lookups take a
// read-lock; hot paths should resolve their instruments once (package
// init or per-run setup) and update through the returned pointers,
// which are lock-free. A nil *Registry hands back nil instruments,
// whose methods are all no-ops — the disable switch.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the pipeline stages record into
// and the logstudy flags export.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// unit on first use. The unit is fixed at creation; later callers get
// the existing histogram regardless of the unit they pass.
func (r *Registry) Histogram(name string, unit Unit) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{unit: unit}
		r.hists[name] = h
	}
	return h
}

// Span is one timed occurrence of a named pipeline stage. Ending a span
// records its latency into the stage's `stage_<name>_seconds` histogram
// and bumps `stage_<name>_total` — the naming convention WriteSummary
// keys on.
type Span struct {
	h     *Histogram
	c     *Counter
	start time.Time
}

// StartSpan opens a span for the named stage.
func (r *Registry) StartSpan(stage string) Span {
	return Span{
		h:     r.Histogram("stage_"+stage+"_seconds", Seconds),
		c:     r.Counter("stage_" + stage + "_total"),
		start: time.Now(),
	}
}

// End closes the span, recording its duration; it returns the duration
// for callers that also want it.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	s.c.Inc()
	s.h.Observe(int64(d))
	return d
}
