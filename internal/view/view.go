// Package view is the incremental-view kernel: one state machine that
// keeps a derived state S equal to what a scan of its source would
// build, by folding the source's mutation stream into it. Standing
// aggregates (internal/query) and the correlation miner
// (internal/correlate) are fold functions over it; the kernel does not
// know which one it is serving.
//
// Consistency protocol. The source stamps every committed mutation with
// a sequence number assigned inside the committing critical section, and
// notifies after the commit. A producer returns its candidate state
// together with the sequence number of the snapshot it was built from —
// for a scan, the number the store read under the lock that took the
// scan's snapshot (store.ScanStats.Seq) — so the candidate reflects
// exactly the mutations with Seq <= that number: the fence. A build (the
// first install, or a rebuild) is one produce and one critical section:
//
//  1. produce a candidate and its fence (scan the source; or, for a warm
//     start, load a saved state whose fingerprint matches the source's,
//     read together with the sequence number it describes)
//  2. under the view's lock: install the candidate with its fence, fold
//     the deltas buffered during the produce whose Seq is past the
//     fence, and run the hook
//
// While a build is in flight the view buffers delivered deltas instead
// of folding them; later deliveries fold iff Seq > fence. After a failed
// produce the buffered deltas past the old fence catch the last good
// state up. Every mutation is delivered exactly once, so each one lands
// in the state exactly once — via the candidate, the buffer, or a live
// fold — whatever order delivery takes and however it interleaves with
// the build. Folds must therefore commute: S is a function of the
// applied set, never of arrival order. Nothing a writer does can
// overtake a build, so a build never rescans.
//
// A mutation that changes the source in a way no delta describes
// (retention) invalidates the view: it goes stale and the view's worker
// rebuilds from a scan. A stale view keeps serving, and
// keeps folding appends into, its last good state. An invalidation
// delivered during a build is remembered as the highest such sequence
// number: if it is past the fence the candidate may predate it, so the
// view installs stale and its worker rebuilds once; if not, the
// candidate covers it.
//
// Single-critical-section rule. The build's last step — install or
// fail, drain the buffer, run the hook, release ownership — is ONE
// critical section. There is no moment at which a build has finished but
// still owns the view, so an invalidation can never land on a view that
// is dirty with no one to rebuild it.
//
// Retry policy. A failed build leaves the view stale and is not retried
// by the kernel on its own: every delivered notification pokes a stale
// view's worker, so a failing source costs at most one build per
// mutation, and a quiet one costs nothing.
package view

import (
	"sync"

	"whatsupersay/internal/obs"
)

// Step tells the hook what just happened to the state.
type Step struct {
	// Seq is the delivered mutation's sequence number or, when a build
	// finished, the highest one the state reflects: the fence, or a
	// buffered delivery past it.
	Seq uint64
	// Changed is false for a delivery that left the state alone (a
	// Note, or a delta the fence already covers).
	Changed bool
}

// Status is a view's bookkeeping, read with the state under one lock.
type Status struct {
	// Settled means installed and clean: the state equals a scan as of
	// every delivered mutation. False during a build and while stale.
	Settled bool
	// Deltas counts folded deltas; Rebuilds counts worker re-installs.
	Deltas, Rebuilds uint64
}

// Counters are the consumer's names for the kernel's events; nil
// counters are no-ops.
type Counters struct {
	Deltas, Rebuilds, Failures *obs.Counter
}

type phase uint8

const (
	building phase = iota // a build owns the view; deliveries buffer
	live                  // installed and clean; deliveries fold
	stale                 // invalidated or failed; last good state, rebuild wanted
)

type pending[D any] struct {
	seq uint64
	d   D
}

// View maintains one derived state. S is the state, D one mutation's
// delta.
type View[S, D any] struct {
	scan   func() (S, uint64, error)
	fold   func(*S, D)
	onStep func(*S, Step)
	count  Counters

	mu      sync.Mutex
	state   S
	baseSeq uint64 // fence: mutations with Seq <= baseSeq are in state
	buf     []pending[D]
	// noted and invalid are the highest Seq delivered by Apply/Note and
	// by Invalidate while a build owns the view (0: none).
	noted, invalid   uint64
	phase            phase
	deltas, rebuilds uint64

	wake      chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// New builds a view holding initial, owned by the caller until Init
// returns: deliveries buffer from now on, so wire the source's
// notifications to Apply/Note/Invalidate first and call Init second,
// and no mutation falls between the two. scan produces the state from
// scratch with its fence (the worker's rebuild producer); fold applies
// one delta. onStep runs under the view's lock after every build and
// every delivery that is not buffered: it must not block or call back
// into the view.
func New[S, D any](initial S, scan func() (S, uint64, error), fold func(*S, D), onStep func(*S, Step), count Counters) *View[S, D] {
	v := &View[S, D]{
		state: initial, scan: scan, fold: fold, onStep: onStep, count: count,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go v.worker()
	return v
}

// Init runs the view's first build with produce on the caller's
// goroutine. Call it once, after New. On error the view is stale on its
// initial state and the next delivered mutation retries with scan.
func (v *View[S, D]) Init(produce func() (S, uint64, error)) error {
	return v.build(produce, false)
}

// Close stops the worker, waiting out a rebuild in flight.
func (v *View[S, D]) Close() {
	v.closeOnce.Do(func() { close(v.stop) })
	<-v.done
}

// Apply delivers the delta of mutation seq.
func (v *View[S, D]) Apply(seq uint64, d D) { v.deliver(seq, &d) }

// Note delivers a mutation that leaves the state as it is (a seal, a
// compaction, an append with nothing in it for this view).
func (v *View[S, D]) Note(seq uint64) { v.deliver(seq, nil) }

func (v *View[S, D]) deliver(seq uint64, d *D) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.phase == building {
		v.noted = max(v.noted, seq)
		if d != nil {
			v.buf = append(v.buf, pending[D]{seq, *d})
		}
		return
	}
	changed := d != nil && seq > v.baseSeq
	if changed {
		v.foldLocked(*d)
	}
	v.onStep(&v.state, Step{seq, changed})
	v.retryLocked()
}

// Invalidate delivers a mutation no delta describes.
func (v *View[S, D]) Invalidate(seq uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	switch {
	case v.phase == building:
		v.invalid = max(v.invalid, seq)
	case v.phase == live && seq > v.baseSeq:
		v.phase = stale
	}
	v.retryLocked()
}

// Read runs fn on the state and its status under the view's lock.
func (v *View[S, D]) Read(fn func(*S, Status)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	fn(&v.state, Status{Settled: v.phase == live, Deltas: v.deltas, Rebuilds: v.rebuilds})
}

// Settled reports Status.Settled.
func (v *View[S, D]) Settled() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.phase == live
}

func (v *View[S, D]) foldLocked(d D) {
	v.fold(&v.state, d)
	v.deltas++
	v.count.Deltas.Add(1)
}

// retryLocked pokes the worker if the view wants a rebuild.
func (v *View[S, D]) retryLocked() {
	if v.phase == stale {
		select {
		case v.wake <- struct{}{}:
		default:
		}
	}
}

// worker rebuilds the view whenever it is poked while stale.
func (v *View[S, D]) worker() {
	defer close(v.done)
	for {
		select {
		case <-v.stop:
			return
		case <-v.wake:
		}
		select {
		case <-v.stop:
			return // a poke racing Close starts no rebuild
		default:
		}
		v.mu.Lock()
		claim := v.phase == stale
		if claim {
			v.phase = building
		}
		v.mu.Unlock()
		if claim {
			// A failure is counted and leaves the view stale; the next
			// delivery pokes again.
			_ = v.build(v.scan, true)
		}
	}
}

// build runs one produce and installs its result. The caller owns the
// view (phase building); ownership ends in the critical section that
// installs or fails.
func (v *View[S, D]) build(produce func() (S, uint64, error), rebuild bool) error {
	st, fence, err := produce()
	v.mu.Lock()
	defer v.mu.Unlock()
	changed := err == nil
	if err != nil {
		v.phase = stale
		v.count.Failures.Add(1)
	} else {
		v.state, v.baseSeq, v.phase = st, fence, live
		if rebuild {
			v.rebuilds++
			v.count.Rebuilds.Add(1)
		}
		if v.invalid > fence {
			// Invalidated past the snapshot: the candidate may predate it.
			v.phase = stale
			v.retryLocked()
		}
	}
	for _, p := range v.buf {
		if p.seq > v.baseSeq {
			v.foldLocked(p.d)
			changed = true
		}
	}
	v.onStep(&v.state, Step{max(v.baseSeq, v.noted), changed})
	v.buf, v.noted, v.invalid = nil, 0, 0
	return err
}
