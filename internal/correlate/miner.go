package correlate

import (
	"sync/atomic"

	"whatsupersay/internal/obs"
	"whatsupersay/internal/query"
	"whatsupersay/internal/store"
	"whatsupersay/internal/view"
)

// Miner maintains the correlation graph online, off the store mutation
// stream, as a view.View whose state is the per-node timestamp columns
// and whose delta is one appended batch's columns — so every append
// lands in the state exactly once however delivery interleaves with
// scanning (the fence is internal/view's). Edges are computed when the
// graph is read. Seals and compactions are no-ops (the entry set is
// unchanged); retention invalidates the view and its worker
// re-baselines — retention IS the graph's decay: aged-out events leave
// the columns on rebuild, and every edge shrinks to exactly the batch
// mine of what remains.
//
// The store supports at most one observer; the serve layer multiplexes
// one observer func across the standing registry and the miner.

// Correlation-miner telemetry.
var (
	mCorrelateDeltaEvents = obs.Default.Counter("correlate_delta_events_total")
	mCorrelateBaselines   = obs.Default.Counter("correlate_baseline_scans_total")
	mCorrelateWarmStarts  = obs.Default.Counter("correlate_warm_starts_total")
	correlateCounters     = view.Counters{
		Deltas:   obs.Default.Counter("correlate_deltas_applied_total"),
		Rebuilds: obs.Default.Counter("correlate_rebuilds_total"),
		Failures: obs.Default.Counter("correlate_rebuild_failures_total"),
	}
)

// MinerStats describes a miner's current state.
type MinerStats struct {
	Nodes  int `json:"nodes"`
	Events int `json:"events"`
	// Dirty means the state is not settled: a baseline or rebuild scan
	// is running, queued, or failed; reads serve the last good state.
	Dirty bool `json:"dirty,omitempty"`
	// DeltasApplied counts folded append batches; Rebuilds counts
	// re-baselines after retention; WarmStart reports whether
	// the initial state came from a persisted artifact instead of a scan.
	DeltasApplied uint64 `json:"deltas_applied"`
	Rebuilds      uint64 `json:"rebuilds"`
	WarmStart     bool   `json:"warm_start,omitempty"`
}

// Miner is one store's online correlation miner.
type Miner struct {
	st  query.StandingStore
	cfg Config
	// artifactPath, when nonempty, is where Close persists the columns
	// (written atomically, loaded for warm starts). See persist.go.
	artifactPath string

	view *view.View[columns, columns]
	// lastSeq and version are guarded by the view's lock (written in its
	// hook, read inside Read). lastSeq is the highest mutation sequence
	// the installed state reflects (appends folded, seals and compactions
	// noted). Close persists only when lastSeq equals the sequence number
	// FingerprintSeq pairs with the fingerprint, so an artifact's
	// fingerprint always describes exactly the state written with it.
	// version counts state changes; the live-prediction cache keys on it.
	lastSeq   uint64
	version   uint64
	warmStart atomic.Bool
}

// NewMiner builds a miner over st. The caller wires the observer
// (st.SetObserver, multiplexed with any other observers) and then calls
// Init to install the initial state — in that order, so no mutation is
// lost between baseline and observation. artifactPath may be empty to
// disable persistence.
func NewMiner(st query.StandingStore, cfg Config, artifactPath string) *Miner {
	m := &Miner{st: st, cfg: cfg.withDefaults(), artifactPath: artifactPath}
	fold := func(s *columns, d columns) {
		s.merge(d)
		mCorrelateDeltaEvents.Add(int64(d.events()))
	}
	m.view = view.New(columns{}, m.scan, fold, m.onStep, correlateCounters)
	return m
}

// Config returns the miner's (defaulted) configuration.
func (m *Miner) Config() Config { return m.cfg }

// Init installs the initial state: a warm start from the persisted
// artifact when its config key and store fingerprint match, else a
// baseline scan — two producers for the same fenced install. The warm
// start's fence is the sequence number FingerprintSeq read with the
// matching fingerprint. Call after the observer is installed.
func (m *Miner) Init() error {
	art := m.loadMatchingArtifact()
	warm := false
	err := m.view.Init(func() (columns, uint64, error) {
		if art != nil {
			if fp, seq := m.st.FingerprintSeq(); fp == art.Fingerprint {
				warm = true
				return art.Cols, seq, nil
			}
		}
		return m.scan()
	})
	if err == nil && warm {
		m.warmStart.Store(true)
		mCorrelateWarmStarts.Add(1)
	}
	return err
}

// Close stops the view's rebuild worker, then writes the artifact so
// the next open can warm-start. Detach the observer first.
func (m *Miner) Close() {
	m.view.Close()
	m.save()
}

// OnMutation is the store-observer hook. It runs on the mutating
// goroutine and never calls back into the store's mutating side.
func (m *Miner) OnMutation(mu store.Mutation) {
	switch mu.Kind {
	case store.MutationAppend:
		if d := columnsOf(m.cfg, mu.Entries); len(d) > 0 {
			m.view.Apply(mu.Seq, d)
		} else {
			m.view.Note(mu.Seq)
		}
	case store.MutationSeal, store.MutationCompact:
		// Entry set unchanged; the columns stay exact. Noting the Seq
		// keeps lastSeq level with the moved fingerprint for Close's save.
		m.view.Note(mu.Seq)
	case store.MutationRetention:
		m.view.Invalidate(mu.Seq)
	}
}

// scan is the baseline producer: a batch mine of the store, fenced at
// the scan's sequence number.
func (m *Miner) scan() (columns, uint64, error) {
	mCorrelateBaselines.Add(1)
	return scanColumns(m.st, m.cfg)
}

// onStep is the view's hook (its lock is held): note the sequence
// number the state now reflects and count a change.
func (m *Miner) onStep(_ *columns, st view.Step) {
	m.lastSeq = st.Seq
	if st.Changed {
		m.version++
	}
}

// Snapshot renders the current graph. The columns are copied under the
// lock; edges are computed outside it.
func (m *Miner) Snapshot() Graph {
	cols, _ := m.ColumnsSnapshot()
	return GraphFromColumns(m.cfg, cols)
}

// ColumnsSnapshot deep-copies the per-node columns — the cluster tier
// merges per-shard snapshots and recomputes edges over the union — and
// returns the state-change counter they were read at. The counter
// advances on every applied delta or installed rebuild; both come from
// one critical section, so a cache keyed on the version never files
// older columns under a newer version.
func (m *Miner) ColumnsSnapshot() (cols map[string][]int64, version uint64) {
	m.view.Read(func(s *columns, _ view.Status) { cols, version = s.clone(), m.version })
	return cols, version
}

// Stats reports the miner's current counters.
func (m *Miner) Stats() (out MinerStats) {
	m.view.Read(func(s *columns, st view.Status) {
		out = MinerStats{
			Nodes:         len(*s),
			Events:        s.events(),
			Dirty:         !st.Settled,
			DeltasApplied: st.Deltas,
			Rebuilds:      st.Rebuilds,
			WarmStart:     m.warmStart.Load(),
		}
	})
	return out
}

// Settled reports whether the state is installed and clean — the
// differential tests quiesce on it before comparing against the batch
// mine.
func (m *Miner) Settled() bool { return m.view.Settled() }
