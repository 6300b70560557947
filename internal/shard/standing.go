package shard

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"whatsupersay/internal/obs"
	"whatsupersay/internal/query"
	"whatsupersay/internal/store"
)

// Cluster standing queries: one subscription at the router holds a
// query.Standing handle on a per-shard registry of every
// standing-capable shard it covers, each maintaining its shard's
// materialized Partial incrementally off the store's mutation stream.
// The cluster-level answer is MergePartials over the handles' snapshots
// — the same merge a scatter aggregate runs, minus the scans — and the
// threshold latch lives here alone, on the *merged* total, so `serve
// -shards N` fires exactly one cluster-level event per crossing, not N
// shard-level ones.
//
// Lock discipline. A view's change hook runs under that view's lock and
// only touches the standing mutex, to enqueue "re-evaluate subscription
// K"; the evaluation worker and every reader take view locks only while
// holding no standing mutex. No path holds the standing mutex while
// waiting on a view lock, so the two cannot cycle. That is also why the
// hook does not evaluate in place: it would take the other shards' view
// locks under its own.
//
// Evaluation is snapshot-based rather than delta-accounting: the worker
// re-reads every handle's current total when poked. That makes missed or
// reordered pokes harmless (the pending set coalesces; totals are read
// fresh).

// Standing cluster telemetry.
var (
	gStandingClusterSubs   = obs.Default.Gauge("standing_cluster_subscriptions")
	mStandingClusterEvents = obs.Default.Counter("standing_cluster_events_total")
)

// ClusterEvent is one cluster-level threshold crossing.
type ClusterEvent struct {
	SubscriptionID string            `json:"id"`
	Seq            uint64            `json:"seq"` // per-subscription event counter
	Threshold      int               `json:"threshold"`
	Total          int               `json:"total"`
	Aggregate      query.Aggregation `json:"aggregate"`
	// ShardsStanding is how many shards materialize this subscription
	// (quarantined or standing-incapable shards are not covered).
	ShardsStanding int `json:"shards_standing"`
	ShardsTotal    int `json:"shards_total"`
}

// ClusterSubInfo describes one cluster subscription.
type ClusterSubInfo struct {
	ID             string                 `json:"id"`
	Filter         store.Filter           `json:"-"`
	Options        query.AggregateOptions `json:"-"`
	Threshold      int                    `json:"threshold"`
	Total          int                    `json:"total"`
	Fired          bool                   `json:"fired"`
	Events         uint64                 `json:"events"`
	ShardsStanding int                    `json:"shards_standing"`
	ShardsTotal    int                    `json:"shards_total"`
}

// standingCapable is the backend surface per-shard registries need:
// the scan/seq side plus the observer hook. *store.Store satisfies it;
// fault-injection wrappers delegate.
type standingCapable interface {
	query.StandingStore
	SetObserver(store.Observer)
}

// clusterSub is one router-level subscription. Everything but the latch
// (fired, events: guarded by clusterStanding.mu) is immutable once the
// subscription is published.
type clusterSub struct {
	key       int
	filter    store.Filter
	opts      query.AggregateOptions
	threshold int
	handles   []*query.Standing // one per covered shard
	fired     bool
	events    uint64
}

// subID is a subscription's public id; subKey inverts it, accepting
// only the exact spelling subID produces.
func subID(key int) string { return "csub-" + strconv.Itoa(key) }

func subKey(id string) (int, bool) {
	key, err := strconv.Atoi(strings.TrimPrefix(id, "csub-"))
	return key, err == nil && subID(key) == id
}

// total sums the handles' materialized totals.
func (cs *clusterSub) total() int {
	total := 0
	for _, h := range cs.handles {
		total += h.Total()
	}
	return total
}

// aggregate merges the handles' snapshots into the cluster answer.
func (cs *clusterSub) aggregate() query.Aggregation {
	parts := make([]query.Partial, len(cs.handles))
	for i, h := range cs.handles {
		parts[i] = h.Snapshot()
	}
	return query.MergePartials(parts, cs.opts)
}

// clusterStanding owns the cluster's standing-query state.
type clusterStanding struct {
	c    *Cluster
	regs map[int]*query.Registry // per standing-capable shard

	mu      sync.Mutex
	subs    map[int]*clusterSub // published subscriptions by key
	next    int
	pending map[int]bool // keys awaiting evaluation
	notify  func(ClusterEvent)

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// newClusterStanding builds a registry for every standing-capable shard
// and starts the evaluation worker. Called once from Open, which wires
// the store observers afterwards (multiplexed with the correlation
// miners — the store supports a single observer).
func newClusterStanding(c *Cluster) *clusterStanding {
	s := &clusterStanding{
		c:       c,
		regs:    map[int]*query.Registry{},
		subs:    map[int]*clusterSub{},
		pending: map[int]bool{},
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, sh := range c.shards {
		sb, ok := sh.backend.(standingCapable)
		if !ok || sh.backend == nil {
			continue
		}
		reg := query.NewRegistry(sb)
		reg.SetOnChange(s.poke)
		s.regs[sh.id] = reg
	}
	go s.run()
	return s
}

// close stops the worker and the per-shard registries. The caller
// (Cluster.Close) has already detached the store observers, so no
// mutation can fan in mid-close.
func (s *clusterStanding) close() {
	close(s.stop)
	<-s.done
	for _, reg := range s.regs {
		reg.Close()
	}
}

// lookup returns the published subscription with the given public id.
func (s *clusterStanding) lookup(id string) (*clusterSub, bool) {
	key, ok := subKey(id)
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.subs[key]
	return cs, ok
}

// poke enqueues a subscription for re-evaluation. Runs under a view's
// lock — it must only touch the standing mutex, and must not block. A
// key not yet published is dropped: Subscribe queues one evaluation
// when it publishes.
func (s *clusterStanding) poke(key int) {
	s.mu.Lock()
	_, ok := s.subs[key]
	if ok {
		s.pending[key] = true
	}
	s.mu.Unlock()
	if ok {
		s.kick()
	}
}

// kick wakes the evaluation worker without blocking.
func (s *clusterStanding) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// run is the evaluation worker: it drains the pending set, re-reads
// each poked subscription's per-shard totals, and runs the edge
// latch on the merged value.
func (s *clusterStanding) run() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
		}
		for {
			s.mu.Lock()
			var cs *clusterSub
			for key := range s.pending {
				delete(s.pending, key)
				cs = s.subs[key]
				break
			}
			s.mu.Unlock()
			if cs == nil {
				break
			}
			s.evaluate(cs)
			select {
			case <-s.stop:
				return
			default:
			}
		}
	}
}

// evaluate recomputes one subscription's merged total and fires the
// cluster event on an upward crossing.
func (s *clusterStanding) evaluate(cs *clusterSub) {
	if cs.threshold <= 0 {
		return
	}
	// View reads happen with no standing mutex held (lock discipline
	// above).
	total := cs.total()

	var ev *ClusterEvent
	s.mu.Lock()
	if s.subs[cs.key] == cs {
		if !cs.fired && total >= cs.threshold {
			cs.fired = true
			cs.events++
			mStandingClusterEvents.Add(1)
			ev = &ClusterEvent{
				SubscriptionID: subID(cs.key),
				Seq:            cs.events,
				Threshold:      cs.threshold,
				ShardsStanding: len(cs.handles),
				ShardsTotal:    len(s.c.shards),
			}
		} else if cs.fired && total < cs.threshold {
			// A rebuild (retention) dropped the merged total back below
			// the line: re-arm.
			cs.fired = false
		}
	}
	fn := s.notify
	s.mu.Unlock()

	if ev != nil {
		// Materialize the event's aggregate outside every lock; the
		// snapshot may include entries that landed after the crossing
		// instant, never fewer.
		ev.Aggregate = cs.aggregate()
		ev.Total = ev.Aggregate.Total
		if fn != nil {
			fn(*ev)
		}
	}
}

// SetStandingNotify installs the cluster event sink. Called from the
// evaluation worker with no locks held; it may block briefly.
func (c *Cluster) SetStandingNotify(fn func(ClusterEvent)) {
	s := c.standing
	s.mu.Lock()
	defer s.mu.Unlock()
	s.notify = fn
}

// Subscribe registers a cluster standing query: one per-shard standing
// view on every standing-capable shard the filter's routing targets,
// the cluster evaluating the threshold on the merged total. If the
// merged baseline already meets the threshold, the event fires
// immediately.
func (c *Cluster) Subscribe(f store.Filter, opts query.AggregateOptions, threshold int) (ClusterSubInfo, error) {
	s := c.standing
	var targets []int
	for _, id := range c.targets(f) {
		if _, ok := s.regs[id]; ok {
			targets = append(targets, id)
		}
	}
	if len(targets) == 0 {
		return ClusterSubInfo{}, fmt.Errorf("shard: no standing-capable shard serves this filter")
	}

	cs := &clusterSub{filter: f, opts: opts.Normalize(), threshold: threshold}
	s.mu.Lock()
	s.next++
	cs.key = s.next
	s.mu.Unlock()
	for _, shardID := range targets {
		h, err := s.regs[shardID].Register(f, cs.opts, cs.key)
		if err != nil {
			for _, h := range cs.handles {
				h.Close()
			}
			return ClusterSubInfo{}, fmt.Errorf("shard %d: standing register: %w", shardID, err)
		}
		cs.handles = append(cs.handles, h)
	}
	// Publish with the handle set complete. Pokes before this found no
	// subscription and were dropped; totals are absolute, so one queued
	// evaluation now covers everything so far — including a baseline that
	// already crosses the threshold.
	s.mu.Lock()
	s.subs[cs.key] = cs
	s.pending[cs.key] = true
	gStandingClusterSubs.Set(float64(len(s.subs)))
	s.mu.Unlock()
	s.kick()
	return s.info(cs), nil
}

// Unsubscribe removes a cluster subscription and closes its per-shard
// views; reports whether it existed.
func (c *Cluster) Unsubscribe(id string) bool {
	s := c.standing
	key, ok := subKey(id)
	if !ok {
		return false
	}
	s.mu.Lock()
	cs, ok := s.subs[key]
	delete(s.subs, key)
	delete(s.pending, key)
	gStandingClusterSubs.Set(float64(len(s.subs)))
	s.mu.Unlock()
	if !ok {
		return false
	}
	for _, h := range cs.handles {
		h.Close()
	}
	return true
}

// Subscriptions lists every cluster subscription with fresh merged
// totals, in registration order.
func (c *Cluster) Subscriptions() []ClusterSubInfo {
	s := c.standing
	s.mu.Lock()
	subs := make([]*clusterSub, 0, len(s.subs))
	for _, cs := range s.subs {
		subs = append(subs, cs)
	}
	s.mu.Unlock()
	slices.SortFunc(subs, func(a, b *clusterSub) int { return a.key - b.key })
	out := make([]ClusterSubInfo, len(subs))
	for i, cs := range subs {
		out[i] = s.info(cs)
	}
	return out
}

// info builds one subscription's info with a fresh merged total.
func (s *clusterStanding) info(cs *clusterSub) ClusterSubInfo {
	s.mu.Lock()
	fired, events := cs.fired, cs.events
	s.mu.Unlock()
	return ClusterSubInfo{
		ID:             subID(cs.key),
		Filter:         cs.filter,
		Options:        cs.opts,
		Threshold:      cs.threshold,
		Total:          cs.total(),
		Fired:          fired,
		Events:         events,
		ShardsStanding: len(cs.handles),
		ShardsTotal:    len(s.c.shards),
	}
}

// StandingAggregate answers a cluster standing query from the merged
// per-shard materializations — no scans. Byte-identical to a scatter
// Aggregate over the same filter and options (pinned by differential
// tests).
func (c *Cluster) StandingAggregate(id string) (query.Aggregation, bool) {
	cs, ok := c.standing.lookup(id)
	if !ok {
		return query.Aggregation{}, false
	}
	return cs.aggregate(), true
}

// StandingSettled reports whether every per-shard standing view is
// clean (no rebuild pending) — the quiesce tests and the smoke target
// wait on before differential checks.
func (c *Cluster) StandingSettled() bool {
	s := c.standing
	for _, reg := range s.regs {
		for _, info := range reg.List() {
			if info.Dirty {
				return false
			}
		}
	}
	return true
}
