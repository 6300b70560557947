package shard

import (
	"sort"
	"sync"

	"whatsupersay/internal/correlate"
	"whatsupersay/internal/store"
)

// Cluster correlation mining: every healthy shard runs its own
// correlate.Miner off the same multiplexed mutation observer the
// standing registry uses, persisting its artifact next to the shard's
// manifest. The cluster-level graph is NOT a sum of per-shard graphs —
// a precedence pair's two events can land on different shards, so
// per-shard edge counts undercount. Instead the cluster view merges the
// per-shard timestamp *columns* (a disjoint multiset union, since each
// entry lives on exactly one shard) and recomputes edges over the
// union, which is provably the single-store batch mine of the whole
// cluster — the same gather-and-merge discipline MergePartials uses for
// aggregates, applied to the miner's integer state.

// clusterCorrelate owns the per-shard miners and the merged-view cache.
type clusterCorrelate struct {
	c      *Cluster
	cfg    correlate.Config
	miners map[int]*correlate.Miner

	mu       sync.Mutex
	versions []uint64 // per-miner versions the cached report reflects
	cached   *correlate.PredictionReport
}

// newClusterCorrelate builds one miner per healthy shard.
// Observers are wired (multiplexed with the standing registry) and
// miners initialized by Open, after both tiers exist.
func newClusterCorrelate(c *Cluster) *clusterCorrelate {
	cc := &clusterCorrelate{c: c, cfg: c.opts.Correlate, miners: map[int]*correlate.Miner{}}
	for _, sh := range c.shards {
		if sh.backend == nil {
			continue
		}
		cc.miners[sh.id] = correlate.NewMiner(sh.backend, cc.cfg, correlate.ArtifactPath(sh.dir))
	}
	return cc
}

// init installs each miner's initial state (warm start or baseline
// scan). Called by Open after the observers are attached, so no
// mutation can slip between scan and observation.
func (cc *clusterCorrelate) init() error {
	var firstErr error
	for _, m := range cc.miners {
		if err := m.Init(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// close closes every miner (its one artifact save). The caller has
// already sealed the backends and detached the observers, so each
// artifact's fingerprint matches the store a reopen will see.
func (cc *clusterCorrelate) close() {
	for _, m := range cc.miners {
		m.Close()
	}
}

// mergedColumns gathers per-shard column snapshots and the versions
// they were read at, each pair from one critical section of its miner.
func (cc *clusterCorrelate) mergedColumns() (map[string][]int64, []uint64) {
	ids := make([]int, 0, len(cc.miners))
	for id := range cc.miners {
		ids = append(ids, id)
	}
	// Deterministic order so the version vector is comparable.
	sort.Ints(ids)
	parts := make([]map[string][]int64, 0, len(ids))
	versions := make([]uint64, 0, len(ids))
	for _, id := range ids {
		cols, version := cc.miners[id].ColumnsSnapshot()
		parts = append(parts, cols)
		versions = append(versions, version)
	}
	return correlate.MergeColumns(parts), versions
}

// CorrelateConfig returns the cluster's (defaulted) mining config.
func (c *Cluster) CorrelateConfig() correlate.Config {
	if len(c.correlate.miners) > 0 {
		for _, m := range c.correlate.miners {
			return m.Config()
		}
	}
	return c.correlate.cfg
}

// CorrelationGraph renders the merged cluster graph: per-shard columns
// unioned, edges recomputed over the union.
func (c *Cluster) CorrelationGraph() correlate.Graph {
	cols, _ := c.correlate.mergedColumns()
	return correlate.GraphFromColumns(c.CorrelateConfig(), cols)
}

// PredictionReport evaluates the live prediction loop over the merged
// cluster columns. The report is cached against the per-shard miner
// version vector — the evaluation is pure, so the cache is exact.
func (c *Cluster) PredictionReport(opts correlate.PredictOptions) correlate.PredictionReport {
	cc := c.correlate
	cols, versions := cc.mergedColumns()
	cc.mu.Lock()
	if cc.cached != nil && versionsEqual(cc.versions, versions) {
		rep := *cc.cached
		cc.mu.Unlock()
		return rep
	}
	cc.mu.Unlock()
	rep := correlate.PredictFromColumns(c.CorrelateConfig(), cols, opts)
	cc.mu.Lock()
	cc.versions = versions
	cc.cached = &rep
	cc.mu.Unlock()
	return rep
}

func versionsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CorrelateStats reports each shard miner's state, keyed by shard id.
func (c *Cluster) CorrelateStats() map[int]correlate.MinerStats {
	out := make(map[int]correlate.MinerStats, len(c.correlate.miners))
	for id, m := range c.correlate.miners {
		out[id] = m.Stats()
	}
	return out
}

// CorrelateSettled reports whether every shard miner is installed and
// clean — differential tests quiesce on it before comparing against a
// batch mine.
func (c *Cluster) CorrelateSettled() bool {
	for _, m := range c.correlate.miners {
		if !m.Settled() {
			return false
		}
	}
	return true
}

// observerFor multiplexes one healthy shard's mutation stream across
// its standing registry and its correlation miner — the store supports
// a single observer, so the fan-out lives here.
func (c *Cluster) observerFor(id int) store.Observer {
	reg, miner := c.standing.regs[id], c.correlate.miners[id]
	return func(mu store.Mutation) {
		reg.OnMutation(mu)
		miner.OnMutation(mu)
	}
}
