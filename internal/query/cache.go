package query

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"whatsupersay/internal/obs"
	"whatsupersay/internal/store"
)

// The aggregate cache makes repeated /api/aggregate calls on a quiet
// store O(1). Soundness rests on one invariant: an Aggregation is a
// pure function of (the store's matched entry set, the filter, the
// options), and store.Fingerprint() pins the entry set — it changes on
// every append, seal, compaction, and retention pass, and only then. So
// a cache entry keyed by (fingerprint, filter, options) can never serve
// a stale result: any mutation moves the store to a new fingerprint and
// the old entries simply stop being addressable (and age out via LRU).
// Compaction in particular invalidates by construction even though it
// does not change the entry set — a deliberate over-invalidation that
// keeps the fingerprint cheap (inventory identity, not content hash).
//
// ScanStats are cached alongside the aggregation: a cache hit reports
// the stats of the scan that populated the entry, which is exactly what
// a fresh scan of the (unchanged) store would report — so hit responses
// are byte-identical to miss responses, the property the differential
// tests pin.

// DefaultCacheSize is the aggregate cache's entry bound when enabling
// with size <= 0.
const DefaultCacheSize = 256

// Cache telemetry.
var (
	mCacheHits      = obs.Default.Counter("query_cache_hits_total")
	mCacheMisses    = obs.Default.Counter("query_cache_misses_total")
	mCacheEvictions = obs.Default.Counter("query_cache_evictions_total")
	gCacheEntries   = obs.Default.Gauge("query_cache_entries")
)

// Cache is a bounded LRU over aggregate results. An Engine holds one
// keyed by its store's fingerprint; the shard router holds one keyed by
// a *combined* fingerprint — the fold of only the shards a query fans
// out to — so a mutation on one shard invalidates exactly the cached
// queries whose source routing touched that shard, and source-pinned
// queries on quiet shards keep hitting while a hot shard churns.
type Cache struct {
	mu      sync.Mutex
	max     int
	order   *list.List               // front = most recent
	entries map[string]*list.Element // key -> element, value *aggEntry
}

type aggEntry struct {
	key  string
	agg  Aggregation
	scan store.ScanStats
}

// NewCache builds a bounded LRU aggregate cache (DefaultCacheSize
// entries when size <= 0).
func NewCache(size int) *Cache {
	if size <= 0 {
		size = DefaultCacheSize
	}
	return &Cache{max: size, order: list.New(), entries: map[string]*list.Element{}}
}

// Get returns the cached aggregation for key, if present.
func (c *Cache) Get(key string) (Aggregation, store.ScanStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		mCacheMisses.Add(1)
		return Aggregation{}, store.ScanStats{}, false
	}
	c.order.MoveToFront(el)
	mCacheHits.Add(1)
	en := el.Value.(*aggEntry)
	return en.agg, en.scan, true
}

// Put stores an aggregation under key, evicting LRU entries past the
// bound. Callers must only cache complete answers: a degraded partial
// result is a property of the moment's failures, not of the key.
func (c *Cache) Put(key string, agg Aggregation, scan store.ScanStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*aggEntry).agg, el.Value.(*aggEntry).scan = agg, scan
		return
	}
	c.entries[key] = c.order.PushFront(&aggEntry{key: key, agg: agg, scan: scan})
	for c.order.Len() > c.max {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*aggEntry).key)
		mCacheEvictions.Add(1)
	}
	gCacheEntries.Set(float64(c.order.Len()))
}

// Len reports the live entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// EnableCache turns on the aggregate-result cache, bounded to size
// entries (DefaultCacheSize when size <= 0). Call before serving; an
// engine without a cache computes every aggregate from a scan.
func (e *Engine) EnableCache(size int) {
	e.cache = NewCache(size)
}

// CacheLen reports the cache's live entry count (0 when disabled).
func (e *Engine) CacheLen() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.Len()
}

// Key canonicalizes (fingerprint, filter, options) into the cache key.
// Filter slices are order-sensitive here on purpose: two requests
// naming the same sources in different orders are semantically equal
// but key differently — a harmless extra miss, never a wrong hit.
// Options, by contrast, are normalized before keying: defaults are
// applied later in MergePartials, so TopK 0 and DefaultTopK (or nil
// and explicit default quantiles) produce byte-identical answers and
// must share one key — distinct keys would double entries and evict
// real ones.
func Key(fp uint64, f store.Filter, opts AggregateOptions) string {
	opts = opts.Normalize()
	var b strings.Builder
	fmt.Fprintf(&b, "%016x|%d|%d|", fp, f.From.UnixNano(), f.To.UnixNano())
	if f.From.IsZero() {
		b.WriteString("z")
	}
	b.WriteByte('|')
	if f.To.IsZero() {
		b.WriteString("z")
	}
	b.WriteByte('|')
	for _, s := range f.Sources {
		fmt.Fprintf(&b, "s=%q,", s)
	}
	b.WriteByte('|')
	for _, c := range f.Categories {
		fmt.Fprintf(&b, "c=%q,", c)
	}
	b.WriteByte('|')
	for _, s := range f.Severities {
		fmt.Fprintf(&b, "v=%d,", s)
	}
	b.WriteByte('|')
	if f.Kept != nil {
		fmt.Fprintf(&b, "k=%t", *f.Kept)
	}
	b.WriteByte('|')
	if f.BodyContains != "" {
		fmt.Fprintf(&b, "b=%q", f.BodyContains)
	}
	fmt.Fprintf(&b, "|topk=%d|q=%v", opts.TopK, opts.Quantiles)
	return b.String()
}
