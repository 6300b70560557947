package query

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"whatsupersay/internal/obs"
	"whatsupersay/internal/store"
	"whatsupersay/internal/view"
)

// Standing views: aggregates maintained incrementally. A Registry is
// the set of standing views over one store; each is a view.View whose
// state is the Partial of the entries matching its filter, reached
// through the *Standing handle Register returns. Appends arrive as store
// mutation notifications and fold in as deltas — the batch's matching
// entries folded to columns (store.FoldEntries) and then to a Partial
// exactly as a scan folds a segment, merged into the materialized
// state — so a standing aggregate is MergePartials over one snapshot,
// never a rescan. Seals and compactions change nothing (the entry set is
// identical); retention invalidates the view, which rebuilds from a
// scan. The fence that makes the incremental answer equal the batch
// one, and the retry policy after a failed rebuild, are internal/view's.
// Thresholds are the caller's: the registry only reports that a view
// changed.

// Standing-view telemetry. standing_subscriptions counts the open
// handles over every registry in the process.
var (
	gStandingSubs         = obs.Default.Gauge("standing_subscriptions")
	mStandingDeltaEntries = obs.Default.Counter("standing_delta_entries_total")
	standingCounters      = view.Counters{
		Deltas:   obs.Default.Counter("standing_deltas_applied_total"),
		Rebuilds: obs.Default.Counter("standing_rebuilds_total"),
		Failures: obs.Default.Counter("standing_rebuild_failures_total"),
	}
)

// StandingStore is what an incremental view needs from the store: the
// scan surface for baselines, whose ScanStats.Seq is the fence the view
// kernel installs them under, plus the fingerprint paired with the
// sequence number it describes, which keys a saved view state (the
// correlation miner's warm start). *store.Store satisfies it.
type StandingStore interface {
	Scanner
	FingerprintSeq() (fp, seq uint64)
}

// StandingInfo is one standing view's bookkeeping.
type StandingInfo struct {
	Total int
	// Dirty means the materialization is not settled: a baseline or
	// rebuild scan is running, queued, or failed; reads serve the last
	// good state.
	Dirty         bool
	DeltasApplied uint64
	Rebuilds      uint64
}

// Standing is a handle on one standing view. Reads after Close serve
// the view's last state.
type Standing struct {
	reg    *Registry
	filter store.Filter
	view   *view.View[Partial, Partial]
}

// Registry is the set of standing views over one store. Wire it up with
// st.SetObserver(reg.OnMutation); Close closes every handle.
type Registry struct {
	eng *Engine

	// mu guards the fields below and is never held while taking a view's
	// lock.
	mu sync.Mutex
	// views is replaced, never written in place, so OnMutation ranges
	// over a loaded copy without holding mu.
	views    []*Standing
	onChange func(key int)
}

// NewRegistry builds a registry over st. The caller installs
// reg.OnMutation as the store's observer.
func NewRegistry(st StandingStore) *Registry {
	return &Registry{eng: &Engine{Store: st}}
}

// Close closes every handle, stopping its rebuild worker. The caller
// should detach the store observer first (SetObserver(nil)).
func (r *Registry) Close() {
	for _, h := range r.list() {
		h.Close()
	}
}

// SetOnChange installs the change hook for views registered after it:
// it is called with the view's Register key after every applied delta
// or rebuild. It runs with the view's lock held and must not block or
// call back into the registry or the store.
func (r *Registry) SetOnChange(fn func(key int)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onChange = fn
}

// Register adds a standing view over the entries matching f and builds
// its baseline from a scan. key is what the change hook is called with.
// The options are not part of the view — a Partial answers every
// AggregateOptions; the caller merges a Snapshot with its own.
func (r *Registry) Register(f store.Filter, _ AggregateOptions, key int) (*Standing, error) {
	scan := func() (Partial, uint64, error) {
		p, st, err := r.eng.PartialContext(context.Background(), f)
		return p, st.Seq, err
	}
	fold := func(dst *Partial, d Partial) {
		foldDelta(dst, d)
		mStandingDeltaEntries.Add(int64(d.Total))
	}
	r.mu.Lock()
	onChange := r.onChange
	onStep := func(_ *Partial, st view.Step) {
		if st.Changed && onChange != nil {
			onChange(key)
		}
	}
	h := &Standing{reg: r, filter: f, view: view.New(Partial{}, scan, fold, onStep, standingCounters)}
	r.views = append(r.views[:len(r.views):len(r.views)], h)
	gStandingSubs.Add(1)
	r.mu.Unlock()

	if err := h.view.Init(scan); err != nil {
		h.Close()
		return nil, fmt.Errorf("standing register: %w", err)
	}
	return h, nil
}

// Close removes the handle from its registry and stops its view's
// rebuild worker. A second Close does nothing.
func (h *Standing) Close() {
	r := h.reg
	r.mu.Lock()
	if i := slices.Index(r.views, h); i >= 0 {
		r.views = slices.Delete(slices.Clone(r.views), i, i+1)
		gStandingSubs.Add(-1)
	}
	r.mu.Unlock()
	h.view.Close()
}

// Total returns the view's matched total.
func (h *Standing) Total() (total int) {
	h.view.Read(func(p *Partial, _ view.Status) { total = p.Total })
	return total
}

// Snapshot returns a deep copy of the view's materialized Partial.
func (h *Standing) Snapshot() (snap Partial) {
	// Folding into an empty Partial is the deep copy.
	h.view.Read(func(p *Partial, _ view.Status) { foldDelta(&snap, *p) })
	return snap
}

// list loads the open handles, in registration order.
func (r *Registry) list() []*Standing {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.views
}

// List returns every open view's bookkeeping, in registration order.
func (r *Registry) List() []StandingInfo {
	views := r.list()
	out := make([]StandingInfo, 0, len(views))
	for _, h := range views {
		h.view.Read(func(p *Partial, st view.Status) {
			out = append(out, StandingInfo{
				Total:         p.Total,
				Dirty:         !st.Settled,
				DeltasApplied: st.Deltas,
				Rebuilds:      st.Rebuilds,
			})
		})
	}
	return out
}

// OnMutation is the store observer: install with
// st.SetObserver(reg.OnMutation). It runs on the mutating goroutine
// and never calls back into the store.
func (r *Registry) OnMutation(m store.Mutation) {
	for _, h := range r.list() {
		switch m.Kind {
		case store.MutationAppend:
			// The batch's matches fold as a scan folds a segment; their
			// times come out sorted, as foldDelta's merge needs.
			sc := store.FoldEntries(h.filter, m.Entries)
			if sc.Matched == 0 {
				h.view.Note(m.Seq)
				continue
			}
			d := newPartial()
			d.addColumns(sc)
			h.view.Apply(m.Seq, d)
		case store.MutationSeal, store.MutationCompact:
			// The entry set is unchanged; the materialization stays exact.
			h.view.Note(m.Seq)
		case store.MutationRetention:
			// Retention shrinks the entry set: the view rebuilds rather
			// than reasoning about which entries went.
			h.view.Invalidate(m.Seq)
		}
	}
}

// foldDelta merges a delta into the materialized state in place. Counts
// sum; the timestamp columns (both nondecreasing) merge, preserving the
// Partial contract.
func foldDelta(dst *Partial, d Partial) {
	if dst.ByCategory == nil {
		dst.ByCategory = map[string]int{}
		dst.ByType = map[string]int{}
		dst.BySeverity = map[string]int{}
		dst.BySource = map[string]int{}
	}
	dst.Total += d.Total
	dst.Kept += d.Kept
	addCounts(dst.ByCategory, d.ByCategory)
	addCounts(dst.ByType, d.ByType)
	addCounts(dst.BySeverity, d.BySeverity)
	addCounts(dst.BySource, d.BySource)
	dst.Times = view.MergeSorted(dst.Times, d.Times)
}
