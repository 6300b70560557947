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

// Standing queries: subscriptions whose aggregates are maintained
// incrementally. A Registry holds (filter, options, threshold) triples
// and keeps, per subscription, a view.View whose state is the Partial
// of the matched entry set. Appends arrive as store mutation
// notifications and fold in as deltas — PartialOf over the batch's
// matching entries, merged into the materialized state — so answering a
// standing aggregate is MergePartials over one partial, never a rescan.
// Seals change nothing (the entry set is identical); compaction and
// retention invalidate the view, which rebuilds from a scan. The fence
// that makes the incremental answer equal the batch one, and the retry
// policy after a failed rebuild, are internal/view's.
//
// Thresholds are edge-triggered with a latch: an event fires when the
// materialized total crosses from below Threshold to at or above it,
// and the latch re-arms only if a rebuild (retention shrank the set)
// drops the total back below. Threshold 0 never fires — the
// subscription is then a pure materialized view.

// Standing-query telemetry.
var (
	gStandingSubs         = obs.Default.Gauge("standing_subscriptions")
	mStandingDeltaEntries = obs.Default.Counter("standing_delta_entries_total")
	mStandingEvents       = obs.Default.Counter("standing_events_total")
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

// StandingEvent is one threshold crossing, pushed through the
// registry's notify sink.
type StandingEvent struct {
	SubscriptionID string      `json:"id"`
	Seq            uint64      `json:"seq"` // per-subscription event counter
	Threshold      int         `json:"threshold"`
	Total          int         `json:"total"`
	Aggregate      Aggregation `json:"aggregate"`
}

// StandingInfo describes one subscription's current state.
type StandingInfo struct {
	ID        string           `json:"id"`
	Filter    store.Filter     `json:"-"`
	Options   AggregateOptions `json:"-"`
	Threshold int              `json:"threshold"`
	Total     int              `json:"total"`
	Fired     bool             `json:"fired"`
	// Dirty means the materialization is not settled: a baseline or
	// rebuild scan is running, queued, or failed; reads serve the last
	// good state.
	Dirty         bool   `json:"dirty,omitempty"`
	DeltasApplied uint64 `json:"deltas_applied"`
	Rebuilds      uint64 `json:"rebuilds"`
	Events        uint64 `json:"events"`
}

// standingSub is one registered standing query. id/filter/opts/
// threshold/view are immutable after creation; fired and events are
// guarded by the view's lock (touched only in its hook and in Read).
type standingSub struct {
	id        string
	filter    store.Filter
	opts      AggregateOptions
	threshold int
	view      *view.View[Partial, Partial]

	fired  bool // threshold latch
	events uint64
}

// Registry maintains the standing queries over one store. Wire it up
// with st.SetObserver(reg.OnMutation); Close stops the rebuild workers.
type Registry struct {
	st  StandingStore
	eng *Engine

	// mu guards the fields below and is never held while taking a view's
	// lock (the views' hooks take it the other way round).
	mu   sync.Mutex
	subs map[string]*standingSub
	// order is replaced, never written in place, so OnMutation ranges
	// over a loaded copy without holding mu.
	order []*standingSub
	next  int

	notify   func(StandingEvent)
	onChange func(id string, total int)
}

// NewRegistry builds a registry over st. The caller installs
// reg.OnMutation as the store's observer.
func NewRegistry(st StandingStore) *Registry {
	return &Registry{st: st, eng: &Engine{Store: st}, subs: map[string]*standingSub{}}
}

// Close stops every subscription's rebuild worker. The caller should
// detach the store observer first (SetObserver(nil)); notifications
// arriving after Close are still applied, but rebuilds no longer run.
func (r *Registry) Close() {
	for _, sub := range r.list() {
		sub.view.Close()
	}
}

// SetNotify installs the event sink. The sink runs with the
// subscription's view lock held and must not block or call back into
// the registry or the store — hand the event to a channel and return.
func (r *Registry) SetNotify(fn func(StandingEvent)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notify = fn
}

// SetOnChange installs a state-change hook invoked (same contract as
// SetNotify) with the subscription id and new total after every applied
// delta or rebuild — the shard router's merge trigger.
func (r *Registry) SetOnChange(fn func(id string, total int)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onChange = fn
}

// Register adds a standing query and builds its baseline from a scan.
// Options are normalized (defaults applied, bad quantiles scrubbed).
// If the baseline already meets the threshold the event fires
// immediately. Threshold <= 0 registers a pure materialized view.
func (r *Registry) Register(f store.Filter, opts AggregateOptions, threshold int) (StandingInfo, error) {
	sub := &standingSub{filter: f, opts: opts.Normalize(), threshold: threshold}
	scan := func() (Partial, uint64, error) {
		p, st, err := r.eng.PartialContext(context.Background(), f)
		return p, st.Seq, err
	}
	fold := func(dst *Partial, d Partial) {
		foldDelta(dst, d)
		mStandingDeltaEntries.Add(int64(d.Total))
	}
	onStep := func(p *Partial, st view.Step) {
		if st.Changed {
			r.evaluate(sub, p)
		}
	}
	r.mu.Lock()
	r.next++
	sub.id = fmt.Sprintf("sub-%d", r.next)
	sub.view = view.New(Partial{}, scan, fold, onStep, standingCounters)
	r.subs[sub.id] = sub
	r.order = append(r.order[:len(r.order):len(r.order)], sub)
	gStandingSubs.Set(float64(len(r.subs)))
	r.mu.Unlock()

	if err := sub.view.Init(scan); err != nil {
		r.Unregister(sub.id)
		return StandingInfo{}, fmt.Errorf("standing register: %w", err)
	}
	return sub.info(), nil
}

// Unregister removes a subscription; reports whether it existed.
func (r *Registry) Unregister(id string) bool {
	r.mu.Lock()
	sub, ok := r.subs[id]
	if ok {
		delete(r.subs, id)
		r.order = slices.DeleteFunc(slices.Clone(r.order), func(s *standingSub) bool { return s == sub })
		gStandingSubs.Set(float64(len(r.subs)))
	}
	r.mu.Unlock()
	if ok {
		sub.view.Close()
	}
	return ok
}

// list loads the current subscriptions, in registration order.
func (r *Registry) list() []*standingSub {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.order
}

// List returns every subscription's info, in registration order.
func (r *Registry) List() []StandingInfo {
	subs := r.list()
	out := make([]StandingInfo, 0, len(subs))
	for _, sub := range subs {
		out = append(out, sub.info())
	}
	return out
}

// read runs fn on a subscription's materialized state under its view's
// lock; reports whether the subscription exists.
func (r *Registry) read(id string, fn func(*standingSub, *Partial)) bool {
	r.mu.Lock()
	sub, ok := r.subs[id]
	r.mu.Unlock()
	if ok {
		sub.view.Read(func(p *Partial, _ view.Status) { fn(sub, p) })
	}
	return ok
}

// AggregateOf answers a standing query from its materialization — no
// scan. The result is byte-identical to a from-scratch Aggregate over
// the same filter and options.
func (r *Registry) AggregateOf(id string) (agg Aggregation, ok bool) {
	ok = r.read(id, func(sub *standingSub, p *Partial) { agg = MergePartials([]Partial{*p}, sub.opts) })
	return agg, ok
}

// TotalOf returns a subscription's current materialized total — the
// cheap read the shard router's threshold evaluator uses.
func (r *Registry) TotalOf(id string) (total int, ok bool) {
	ok = r.read(id, func(_ *standingSub, p *Partial) { total = p.Total })
	return total, ok
}

// PartialSnapshotOf returns a deep copy of a subscription's
// materialized Partial — the shard router merges per-shard snapshots
// into the cluster answer.
func (r *Registry) PartialSnapshotOf(id string) (snap Partial, opts AggregateOptions, ok bool) {
	// Folding into an empty Partial is the deep copy.
	ok = r.read(id, func(sub *standingSub, p *Partial) { foldDelta(&snap, *p); opts = sub.opts })
	return snap, opts, ok
}

func (sub *standingSub) info() (info StandingInfo) {
	sub.view.Read(func(p *Partial, st view.Status) {
		info = StandingInfo{
			ID:            sub.id,
			Filter:        sub.filter,
			Options:       sub.opts,
			Threshold:     sub.threshold,
			Total:         p.Total,
			Fired:         sub.fired,
			Dirty:         !st.Settled,
			DeltasApplied: st.Deltas,
			Rebuilds:      st.Rebuilds,
			Events:        sub.events,
		}
	})
	return info
}

// OnMutation is the store observer: install with
// st.SetObserver(reg.OnMutation). It runs on the mutating goroutine
// and never calls back into the store.
func (r *Registry) OnMutation(m store.Mutation) {
	for _, sub := range r.list() {
		switch m.Kind {
		case store.MutationAppend:
			if d, n := deltaOf(sub.filter, m.Entries); n > 0 {
				sub.view.Apply(m.Seq, d)
			} else {
				sub.view.Note(m.Seq)
			}
		case store.MutationSeal:
			// The entry set is unchanged; the materialization stays exact.
			sub.view.Note(m.Seq)
		case store.MutationCompact, store.MutationRetention:
			// Compaction keeps the entry set but moves physical layout;
			// retention genuinely shrinks it. Both invalidate wholesale —
			// the view rebuilds rather than reasoning about which
			// segments went where.
			sub.view.Invalidate(m.Seq)
		}
	}
}

// evaluate runs the threshold latch and change hook after a state
// change. It is the view's hook: the caller holds sub.view's lock.
func (r *Registry) evaluate(sub *standingSub, p *Partial) {
	r.mu.Lock()
	notify, onChange := r.notify, r.onChange
	r.mu.Unlock()
	total := p.Total
	if sub.threshold > 0 {
		if !sub.fired && total >= sub.threshold {
			sub.fired = true
			sub.events++
			mStandingEvents.Add(1)
			if notify != nil {
				notify(StandingEvent{
					SubscriptionID: sub.id,
					Seq:            sub.events,
					Threshold:      sub.threshold,
					Total:          total,
					Aggregate:      MergePartials([]Partial{*p}, sub.opts),
				})
			}
		} else if sub.fired && total < sub.threshold {
			// Retention shrank the set back below the line: re-arm.
			sub.fired = false
		}
	}
	if onChange != nil {
		onChange(sub.id, total)
	}
}

// deltaOf folds a batch's entries matching f into a delta Partial,
// returning the matched count. Times are sorted — append batches
// arrive in arrival order, and foldDelta's merge needs both sides
// nondecreasing.
func deltaOf(f store.Filter, entries []store.Entry) (Partial, int) {
	matched := entries[:0:0]
	for _, en := range entries {
		if f.Match(en) {
			matched = append(matched, en)
		}
	}
	if len(matched) == 0 {
		return Partial{}, 0
	}
	p := PartialOf(matched)
	slices.Sort(p.Times)
	return p, len(matched)
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
