package correlate

import (
	"sync"

	"whatsupersay/internal/obs"
	"whatsupersay/internal/query"
	"whatsupersay/internal/store"
)

// Miner maintains the correlation graph online, off the store mutation
// stream. It follows the standing-query registry's consistency protocol
// exactly (internal/query/standing.go): a fenced baseline scan-retry
// loop installs state with a sequence fence, deltas buffered during the
// scan fold in iff their Seq exceeds the fence, and later deliveries
// apply iff Seq > fence — so every append lands in the state exactly
// once regardless of how delivery interleaves with scanning. Seals are
// no-ops (the entry set is unchanged); compaction and retention mark
// the state dirty and an async worker re-baselines — retention IS the
// graph's decay: aged-out events leave the columns on rebuild, and
// every edge shrinks to exactly the batch mine of what remains.
//
// The store supports at most one observer; the serve layer multiplexes
// one observer func across the standing registry and the miner.

// Correlation-miner telemetry.
var (
	gCorrelateNodes        = obs.Default.Gauge("correlate_nodes")
	gCorrelateEdges        = obs.Default.Gauge("correlate_edges")
	mCorrelateDeltas       = obs.Default.Counter("correlate_deltas_applied_total")
	mCorrelateDeltaEvents  = obs.Default.Counter("correlate_delta_events_total")
	mCorrelateRebuilds     = obs.Default.Counter("correlate_rebuilds_total")
	mCorrelateRebuildFails = obs.Default.Counter("correlate_rebuild_failures_total")
	mCorrelateBaselines    = obs.Default.Counter("correlate_baseline_scans_total")
	mCorrelateWarmStarts   = obs.Default.Counter("correlate_warm_starts_total")
)

// MinerStore is the store surface a Miner needs: scans for baselines,
// the mutation-sequence fence, and the fingerprint the persisted
// artifact is keyed by. *store.Store satisfies it.
type MinerStore interface {
	query.StandingStore
}

// seqColDelta is one buffered append awaiting a baseline install.
type seqColDelta struct {
	seq uint64
	d   delta
}

// MinerStats describes a miner's current state.
type MinerStats struct {
	Nodes  int  `json:"nodes"`
	Edges  int  `json:"edges"`
	Events int  `json:"events"`
	Dirty  bool `json:"dirty,omitempty"`
	// DeltasApplied counts folded append batches; Rebuilds counts
	// re-baselines after compaction/retention; WarmStart reports whether
	// the initial state came from a persisted artifact instead of a scan.
	DeltasApplied uint64 `json:"deltas_applied"`
	Rebuilds      uint64 `json:"rebuilds"`
	WarmStart     bool   `json:"warm_start,omitempty"`
}

// Miner is one store's online correlation miner.
type Miner struct {
	st  MinerStore
	cfg Config
	// artifactPath, when nonempty, is where the graph persists (written
	// atomically, loaded for warm starts). See persist.go.
	artifactPath string

	mu      sync.Mutex
	state   *graphState
	baseSeq uint64
	// lastSeq is the highest mutation sequence the installed state
	// reflects (appends folded, seals noted). The saver requires
	// lastSeq == MutationSeq() before persisting, so an artifact's
	// fingerprint always describes exactly the state written with it.
	lastSeq  uint64
	buf      []seqColDelta
	scanning bool
	inScan   bool
	dirty    bool
	// version counts state changes; the live-prediction cache keys on it.
	version uint64

	deltas, rebuilds uint64
	warmStart        bool

	rebuildCh chan struct{}
	saveCh    chan struct{}
	stop      chan struct{}
	done      chan struct{}
	saveDone  chan struct{}
}

// NewMiner builds a miner over st. The caller wires the observer
// (st.SetObserver, multiplexed with any other observers) and then calls
// Init to install the initial state — in that order, so no mutation is
// lost between baseline and observation. artifactPath may be empty to
// disable persistence.
func NewMiner(st MinerStore, cfg Config, artifactPath string) *Miner {
	m := &Miner{
		st:           st,
		cfg:          cfg.withDefaults(),
		artifactPath: artifactPath,
		state:        newGraphState(),
		scanning:     true,
		inScan:       true,
		rebuildCh:    make(chan struct{}, 1),
		saveCh:       make(chan struct{}, 1),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		saveDone:     make(chan struct{}),
	}
	go m.rebuildLoop()
	go m.saveLoop()
	return m
}

// Config returns the miner's (defaulted) configuration.
func (m *Miner) Config() Config { return m.cfg }

// Init installs the initial state: a warm start from the persisted
// artifact when its config key and store fingerprint match under a
// seq-stable check, else a fenced baseline scan. Call after the
// observer is installed.
func (m *Miner) Init() error {
	if m.tryWarmStart() {
		return nil
	}
	return m.baseline(false)
}

// Close stops the workers, then writes a final artifact so the next
// open can warm-start. Detach the observer first.
func (m *Miner) Close() {
	close(m.stop)
	<-m.done
	<-m.saveDone
	m.save()
}

// OnMutation is the store-observer hook. It runs on the mutating
// goroutine and never calls back into the store's mutating side.
func (m *Miner) OnMutation(mu store.Mutation) {
	switch mu.Kind {
	case store.MutationAppend:
		m.applyDelta(mu)
	case store.MutationSeal:
		// Entry set unchanged; columns and edges stay exact — but note
		// the seq (the fingerprint moved) so the saver can persist a
		// consistent pair, and re-save under the new fingerprint.
		m.mu.Lock()
		if !m.scanning {
			m.lastSeq = mu.Seq
		}
		m.mu.Unlock()
		m.wakeSave()
	case store.MutationCompact, store.MutationRetention:
		m.markDirty()
	}
}

// applyDelta folds one appended batch (or buffers it mid-scan).
func (m *Miner) applyDelta(mu store.Mutation) {
	d := deltaOf(m.cfg, mu.Entries)
	m.mu.Lock()
	if m.scanning {
		if d.n > 0 {
			m.buf = append(m.buf, seqColDelta{seq: mu.Seq, d: d})
		}
		m.mu.Unlock()
		return
	}
	m.lastSeq = mu.Seq
	if mu.Seq <= m.baseSeq || d.n == 0 {
		m.mu.Unlock()
		m.wakeSave()
		return
	}
	m.state.fold(d, m.cfg.Window.Nanoseconds())
	m.deltas++
	m.version++
	mCorrelateDeltas.Add(1)
	mCorrelateDeltaEvents.Add(int64(d.n))
	m.publishLocked()
	m.mu.Unlock()
	m.wakeSave()
}

// markDirty invalidates the state and queues a rebuild.
func (m *Miner) markDirty() {
	m.mu.Lock()
	m.dirty = true
	// Freeze deltas until the rebuild installs; an in-flight baseline
	// (inScan) will observe the seq change and retry.
	m.scanning = true
	m.mu.Unlock()
	m.wakeRebuild()
}

func (m *Miner) wakeRebuild() {
	select {
	case m.rebuildCh <- struct{}{}:
	default:
	}
}

// rebuildLoop is the async re-baseline worker.
func (m *Miner) rebuildLoop() {
	defer close(m.done)
	for {
		select {
		case <-m.stop:
			return
		case <-m.rebuildCh:
		}
		m.mu.Lock()
		claim := m.dirty && !m.inScan
		if claim {
			m.inScan = true
			m.scanning = true
		}
		m.mu.Unlock()
		if claim {
			if err := m.baseline(true); err != nil {
				mCorrelateRebuildFails.Add(1)
			}
		}
	}
}

// baseline runs the fenced scan-retry loop and installs the result.
// The caller owns the scan (inScan set by NewMiner for the initial
// build, by rebuildLoop for rebuilds); ownership is released on return.
func (m *Miner) baseline(rebuild bool) error {
	defer func() {
		m.mu.Lock()
		m.inScan = false
		// A markDirty that landed after this baseline's final seq check
		// (its mutation sequenced after the install) left dirty set with
		// no one to claim it — re-wake the worker so it rebuilds.
		redo := m.dirty
		m.mu.Unlock()
		if redo {
			m.wakeRebuild()
		}
	}()
	for {
		s1 := m.st.MutationSeq()
		mCorrelateBaselines.Add(1)
		cols, err := scanColumns(m.st, m.cfg)
		if err != nil {
			m.mu.Lock()
			m.scanning = false
			m.buf = nil
			m.dirty = true
			m.mu.Unlock()
			return err
		}
		st := &graphState{cols: cols, edges: EdgesFromColumns(cols, m.cfg.Window)}
		m.mu.Lock()
		if m.st.MutationSeq() != s1 {
			// Mutations landed mid-scan; coverage is ambiguous. Retry.
			m.mu.Unlock()
			continue
		}
		m.state = st
		m.baseSeq = s1
		m.lastSeq = s1
		for _, bd := range m.buf {
			if bd.seq > s1 {
				m.state.fold(bd.d, m.cfg.Window.Nanoseconds())
				m.deltas++
				mCorrelateDeltas.Add(1)
			}
		}
		m.buf = nil
		m.scanning = false
		m.dirty = false
		m.version++
		if rebuild {
			m.rebuilds++
			mCorrelateRebuilds.Add(1)
		}
		m.publishLocked()
		m.mu.Unlock()
		m.wakeSave()
		return nil
	}
}

// publishLocked refreshes the size gauges. Callers hold mu.
func (m *Miner) publishLocked() {
	gCorrelateNodes.Set(float64(len(m.state.cols)))
	gCorrelateEdges.Set(float64(len(m.state.edges)))
}

// Snapshot renders the current graph. The integer state is copied
// under the lock; rendering runs outside it.
func (m *Miner) Snapshot() Graph {
	cols, edges, _ := m.snapshotState()
	return render(m.cfg, &graphState{cols: cols, edges: edges})
}

// ColumnsSnapshot deep-copies the per-node columns — the cluster tier
// merges per-shard snapshots and recomputes edges over the union — and
// returns the state-change counter they were read at. The counter
// advances on every applied delta or installed rebuild; both come from
// one critical section, so a cache keyed on the version never files
// older columns under a newer version.
func (m *Miner) ColumnsSnapshot() (map[string][]int64, uint64) {
	cols, _, version := m.snapshotState()
	return cols, version
}

// snapshotState copies the integer state under the lock.
func (m *Miner) snapshotState() (map[string][]int64, map[edgeKey]edgeAccum, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cols := make(map[string][]int64, len(m.state.cols))
	for node, col := range m.state.cols {
		cols[node] = append([]int64(nil), col...)
	}
	edges := make(map[edgeKey]edgeAccum, len(m.state.edges))
	for k, v := range m.state.edges {
		edges[k] = v
	}
	return cols, edges, m.version
}

// Stats reports the miner's current counters.
func (m *Miner) Stats() MinerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MinerStats{
		Nodes:         len(m.state.cols),
		Edges:         len(m.state.edges),
		Events:        m.state.events(),
		Dirty:         m.dirty,
		DeltasApplied: m.deltas,
		Rebuilds:      m.rebuilds,
		WarmStart:     m.warmStart,
	}
}

// Settled reports whether the state is installed and clean — the
// differential tests quiesce on it before comparing against the batch
// mine.
func (m *Miner) Settled() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.dirty && !m.scanning && !m.inScan
}
