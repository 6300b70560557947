package shard

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"whatsupersay/internal/query"
	"whatsupersay/internal/store"
)

// Scatter-gather. A query fans out to the shards its filter can touch
// (all of them, unless the filter names sources — sources pin shards by
// the ingest hash), runs each shard under its own deadline with bounded
// retries through the shard's breaker, and merges whatever answered.
// Failure degrades, never kills: the Coverage block says exactly which
// shards answered and why the others did not, and Partial is the one
// bit a client must check before trusting a number as cluster-complete.

// Coverage is the merged response's accounting of the fan-out.
type Coverage struct {
	// ShardsTotal is the cluster size; ShardsQueried is how many shards
	// the filter routed to (fewer when source routing pruned the
	// fan-out); ShardsAnswered is how many of those returned.
	ShardsTotal    int `json:"shards_total"`
	ShardsQueried  int `json:"shards_queried"`
	ShardsAnswered int `json:"shards_answered"`
	// Partial is true when any queried shard failed to answer — the
	// merged numbers then cover only the answering shards.
	Partial bool `json:"partial"`
	// ShardErrors maps each unanswering shard's id to why: the breaker
	// state, the deadline, the append or scan error, the quarantine.
	ShardErrors map[string]string `json:"shard_errors,omitempty"`
}

// targets resolves which shards a filter must consult: a filter that
// names sources only touches the shards those sources hash to — the
// same ring ingest used — so source-pinned queries skip the rest of the
// cluster entirely (and keep their cache entries when other shards
// mutate).
func (c *Cluster) targets(f store.Filter) []int {
	if len(f.Sources) == 0 {
		all := make([]int, len(c.shards))
		for i := range all {
			all[i] = i
		}
		return all
	}
	seen := make(map[int]bool)
	var ids []int
	for _, src := range f.Sources {
		id := ShardFor(src, len(c.shards))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// combinedFingerprint folds the targeted shards' store fingerprints
// (and ids) into one cache key component: it changes iff one of *those*
// shards mutated, so a mutation elsewhere in the cluster leaves
// source-pinned cache entries valid.
func (c *Cluster) combinedFingerprint(targets []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range targets {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
		sh := c.shards[id]
		var fp uint64
		if sh.backend != nil {
			fp = sh.backend.Fingerprint()
		} else {
			fp = ^uint64(0) // quarantined marker (results are partial and never cached anyway)
		}
		binary.LittleEndian.PutUint64(buf[:], fp)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// shardAnswer is one shard's contribution to a scatter.
type shardAnswer struct {
	id      int
	entries []store.Entry
	partial query.Partial
	stats   store.ScanStats
	err     error
}

// scatter fans work over the target shards concurrently and collects
// every answer. work runs under the per-attempt deadline; scatter owns
// retries, breaker consultation, and quarantine short-circuits.
func (c *Cluster) scatter(ctx context.Context, targets []int, work func(ctx context.Context, sh *shardState) (shardAnswer, error)) []shardAnswer {
	out := make(chan shardAnswer, len(targets))
	for _, id := range targets {
		sh := c.shards[id]
		go func() {
			ans, err := c.attempt(ctx, sh, work)
			ans.id = sh.id
			ans.err = err
			out <- ans
		}()
	}
	answers := make([]shardAnswer, 0, len(targets))
	for range targets {
		answers = append(answers, <-out)
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].id < answers[j].id })
	return answers
}

// attempt runs work against one shard with bounded retries, one breaker
// consultation and one deadline per try. A scan that ignores its
// context (a truly wedged shard) is abandoned at the deadline: the
// watchdog goroutine keeps whatever it was doing on its own private
// result, and the scatter moves on without it.
func (c *Cluster) attempt(ctx context.Context, sh *shardState, work func(ctx context.Context, sh *shardState) (shardAnswer, error)) (shardAnswer, error) {
	if sh.backend == nil {
		return shardAnswer{}, fmt.Errorf("%w: %s", ErrQuarantined, sh.openErr)
	}
	var lastErr error
	for try := 0; try <= c.opts.retries(); try++ {
		if err := ctx.Err(); err != nil {
			return shardAnswer{}, fmt.Errorf("request deadline: %w", err)
		}
		ok, probe := sh.br.allow()
		if !ok {
			// Not a new failure — the breaker is reporting an old one.
			if lastErr != nil {
				return shardAnswer{}, lastErr
			}
			return shardAnswer{}, ErrBreakerOpen
		}
		ans, err := c.runDeadlined(ctx, sh, work)
		if err != nil && ctx.Err() != nil {
			// The whole request's deadline died, not the shard — don't
			// charge the breaker for the client's clock. If this call was
			// the half-open probe, release it (back to open, backoff
			// already expired) so the breaker is not wedged waiting on an
			// outcome that will never be recorded.
			if probe {
				sh.br.cancelProbe()
				sh.gBreaker.Set(sh.br.stateCode())
			}
			return shardAnswer{}, fmt.Errorf("request deadline: %w", ctx.Err())
		}
		c.observe(sh, err)
		if err == nil {
			return ans, nil
		}
		lastErr = err
	}
	return shardAnswer{}, lastErr
}

// runDeadlined executes one try under the per-shard deadline.
func (c *Cluster) runDeadlined(ctx context.Context, sh *shardState, work func(ctx context.Context, sh *shardState) (shardAnswer, error)) (shardAnswer, error) {
	actx, cancel := context.WithTimeout(ctx, c.opts.queryTimeout())
	defer cancel()
	type result struct {
		ans shardAnswer
		err error
	}
	ch := make(chan result, 1)
	go func() {
		ans, err := work(actx, sh)
		ch <- result{ans, err}
	}()
	select {
	case r := <-ch:
		return r.ans, r.err
	case <-actx.Done():
		// The deadline and the completion race at the boundary: a scan
		// that delivered its last entry as the clock lapsed has a
		// finished answer in flight (the engine returns completed work
		// even when the context dies after the final entry — see
		// Engine.SelectContext). Grant a short grace for that answer to land
		// rather than charging a completed shard as a failure; a truly
		// wedged scan just pays deadlineGrace extra before abandonment.
		select {
		case r := <-ch:
			return r.ans, r.err
		case <-time.After(deadlineGrace):
			return shardAnswer{}, fmt.Errorf("shard deadline (%s): %w", c.opts.queryTimeout(), actx.Err())
		}
	}
}

// deadlineGrace is how long runDeadlined waits past the per-attempt
// deadline for an already-completed answer to surface before abandoning
// the attempt.
const deadlineGrace = 25 * time.Millisecond

// coverageOf folds a scatter's answers into Coverage and splits out the
// successful ones.
func (c *Cluster) coverageOf(targets []int, answers []shardAnswer) (Coverage, []shardAnswer) {
	cov := Coverage{ShardsTotal: len(c.shards), ShardsQueried: len(targets)}
	ok := make([]shardAnswer, 0, len(answers))
	for _, a := range answers {
		if a.err != nil {
			if cov.ShardErrors == nil {
				cov.ShardErrors = map[string]string{}
			}
			cov.ShardErrors[fmt.Sprintf("%d", a.id)] = a.err.Error()
			continue
		}
		cov.ShardsAnswered++
		ok = append(ok, a)
	}
	cov.Partial = cov.ShardsAnswered < cov.ShardsQueried
	return cov, ok
}

func sumStats(answers []shardAnswer) store.ScanStats {
	var st store.ScanStats
	for _, a := range answers {
		st.Segments += a.stats.Segments
		st.SegmentsScanned += a.stats.SegmentsScanned
		st.SegmentsPruned += a.stats.SegmentsPruned
		st.TailEntries += a.stats.TailEntries
		st.RecordsScanned += a.stats.RecordsScanned
		st.BytesScanned += a.stats.BytesScanned
		st.Matched += a.stats.Matched
	}
	return st
}

// Select returns the matching entries merged across shards in canonical
// order (truncated to limit when limit > 0), with coverage saying which
// shards contributed.
func (c *Cluster) Select(ctx context.Context, f store.Filter, limit int) ([]store.Entry, Coverage, store.ScanStats, error) {
	targets := c.targets(f)
	answers := c.scatter(ctx, targets, func(actx context.Context, sh *shardState) (shardAnswer, error) {
		eng := &query.Engine{Store: sh.backend}
		// Per-shard pre-truncation is safe: the merged first-limit is a
		// subset of the union of per-shard first-limits.
		entries, st, err := eng.SelectContext(actx, f, limit)
		return shardAnswer{entries: entries, stats: st}, err
	})
	cov, ok := c.coverageOf(targets, answers)
	var merged []store.Entry
	for _, a := range ok {
		merged = append(merged, a.entries...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Record.Before(merged[j].Record) })
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	return merged, cov, sumStats(ok), nil
}

// Aggregate computes the standard aggregation across shards: each shard
// folds its matched entries into a mergeable partial, and MergePartials
// reassembles exactly the aggregation a single store holding the union
// would produce — the property the differential tests pin across shard
// counts. Degraded answers (Partial coverage) aggregate only the shards
// that answered, and are never cached.
func (c *Cluster) Aggregate(ctx context.Context, f store.Filter, opts query.AggregateOptions) (query.Aggregation, Coverage, store.ScanStats, error) {
	targets := c.targets(f)
	var key string
	if c.cache != nil {
		key = query.Key(c.combinedFingerprint(targets), f, opts)
		if agg, st, ok := c.cache.Get(key); ok {
			c.cacheHits.Add(1)
			return agg, Coverage{
				ShardsTotal:    len(c.shards),
				ShardsQueried:  len(targets),
				ShardsAnswered: len(targets),
			}, st, nil
		}
		c.cacheMisses.Add(1)
	}
	answers := c.scatter(ctx, targets, func(actx context.Context, sh *shardState) (shardAnswer, error) {
		eng := &query.Engine{Store: sh.backend}
		p, st, err := eng.PartialContext(actx, f)
		return shardAnswer{partial: p, stats: st}, err
	})
	cov, ok := c.coverageOf(targets, answers)
	parts := make([]query.Partial, 0, len(ok))
	for _, a := range ok {
		parts = append(parts, a.partial)
	}
	agg := query.MergePartials(parts, opts)
	st := sumStats(ok)
	if c.cache != nil && !cov.Partial {
		c.cache.Put(key, agg, st)
	}
	return agg, cov, st, nil
}

// WaitQueuesIdle blocks until no shard has queued or in-flight ingest
// batches, or the timeout passes — a test convenience for asserting on
// queue state without sleeps.
func (c *Cluster) WaitQueuesIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		for _, sh := range c.shards {
			if sh.depth.Load() != 0 || sh.inflight.Load() != 0 {
				idle = false
				break
			}
		}
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}
