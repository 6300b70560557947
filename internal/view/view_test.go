package view

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whatsupersay/internal/obs"
)

// The kernel's suite runs a View over a fake source and a trivial
// model: the source's truth is the set of sequence numbers of its
// retained appends, a delta is the appended sequence number, and the
// view's state is the sorted list of what it has absorbed — so an append
// that lands twice, or not at all, or survives a retention it should
// not have, shows up as state != truth. The source honours the store's
// contract: a mutation commits (MutationSeq moves) before its
// notification is delivered, and a scan is atomic with respect to
// commits; everything else — when and in what order notifications
// arrive, where in a build they land, whether a scan fails — is the
// test's to choose.

var errScan = errors.New("scan failed")

type source struct {
	mu    sync.Mutex
	seq   uint64
	truth []uint64 // sorted

	reads    int
	onRead   func(read int, loaded bool) // around every MutationSeq load
	scans    int
	failNext int           // this many scans fail
	hold     chan struct{} // a scan parks here until it is closed
	snapLate bool          // a parked scan reads truth after, not before
	entered  chan struct{} // a parked scan announces itself (1-buffered, never blocks it)
}

func (s *source) MutationSeq() uint64 {
	s.mu.Lock()
	s.reads++
	n, hook := s.reads, s.onRead
	s.mu.Unlock()
	if hook != nil {
		hook(n, false)
	}
	s.mu.Lock()
	v := s.seq
	s.mu.Unlock()
	if hook != nil {
		hook(n, true)
	}
	return v
}

// commit applies one mutation to the truth and returns its sequence
// number: an append adds it to the set, a seal (or compaction) changes
// nothing, a retention drops the older half.
func (s *source) commit(kind string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	switch kind {
	case "append":
		s.truth = append(s.truth, s.seq)
	case "retention":
		s.truth = append([]uint64(nil), s.truth[len(s.truth)/2:]...)
	}
	return s.seq
}

func (s *source) scan() ([]uint64, error) {
	s.mu.Lock()
	s.scans++
	fail := s.failNext > 0
	if fail {
		s.failNext--
	}
	hold, late := s.hold, s.snapLate
	snap := append([]uint64(nil), s.truth...)
	s.mu.Unlock()
	if hold != nil {
		select {
		case s.entered <- struct{}{}:
		default:
		}
		<-hold
		if late {
			s.mu.Lock()
			snap = append([]uint64(nil), s.truth...)
			s.mu.Unlock()
		}
	}
	if fail {
		return nil, errScan
	}
	return snap, nil
}

// park makes the next scan block; the returned func releases it.
func (s *source) park(snapLate bool) (release func()) {
	hold := make(chan struct{})
	s.mu.Lock()
	s.hold, s.snapLate = hold, snapLate
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.hold = nil
		s.mu.Unlock()
		close(hold)
	}
}

func (s *source) scanCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scans
}

type harness struct {
	t        *testing.T
	src      *source
	v        *View[[]uint64, uint64]
	failures *obs.Counter
	last     Step // the hook's latest; guarded by the view's lock
}

func newHarness(t *testing.T) *harness {
	h := &harness{t: t, src: &source{entered: make(chan struct{}, 1)}, failures: obs.NewRegistry().Counter("failures")}
	fold := func(s *[]uint64, d uint64) {
		*s = append(*s, d)
		sort.Slice(*s, func(i, j int) bool { return (*s)[i] < (*s)[j] })
	}
	onStep := func(_ *[]uint64, st Step) { h.last = st }
	h.v = New(h.src, nil, h.src.scan, fold, onStep, Counters{Failures: h.failures})
	t.Cleanup(h.v.Close)
	return h
}

func (h *harness) init() {
	h.t.Helper()
	if err := h.v.Init(h.src.scan); err != nil {
		h.t.Fatal(err)
	}
}

// append commits an append and delivers it at once.
func (h *harness) append() { seq := h.src.commit("append"); h.v.Apply(seq, seq) }

func (h *harness) state() (out []uint64, st Status) {
	h.v.Read(func(s *[]uint64, status Status) { out, st = append([]uint64(nil), *s...), status })
	return out, st
}

func (h *harness) lastStep() (st Step) {
	h.v.Read(func(*[]uint64, Status) { st = h.last })
	return st
}

func (h *harness) waitFor(what string, cond func() bool) {
	h.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			got, st := h.state()
			h.t.Fatalf("timed out waiting for %s: state %v, status %+v, truth %v", what, got, st, h.src.truth)
		}
	}
}

// settleAndCheck waits — delivering nothing — for the view to settle,
// then compares it to the truth.
func (h *harness) settleAndCheck(step string) {
	h.t.Helper()
	h.waitFor(step+": settle", h.v.Settled)
	got, _ := h.state()
	h.src.mu.Lock()
	want := append([]uint64(nil), h.src.truth...)
	h.src.mu.Unlock()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		h.t.Fatalf("%s: view %v, truth %v", step, got, want)
	}
}

// TestViewOutOfOrderDelivery: Seq 5 delivered before Seq 4, live and
// straddling an install; each lands exactly once.
func TestViewOutOfOrderDelivery(t *testing.T) {
	h := newHarness(t)
	h.init()
	a, b := h.src.commit("append"), h.src.commit("append")
	h.v.Apply(b, b)
	h.v.Apply(a, a)
	if st := h.lastStep(); st != (Step{a, true}) {
		t.Fatalf("hook saw %+v after folding %d", st, a)
	}
	h.settleAndCheck("live, reordered")

	// Two more commit before a rebuild's scan and are delivered after it
	// installed, newest first: the fence, not arrival, decides — the scan
	// holds them already, so neither folds.
	c, d := h.src.commit("append"), h.src.commit("append")
	h.v.Invalidate(h.src.commit("retention"))
	h.waitFor("rebuild", h.v.Settled)
	if st := h.lastStep(); st != (Step{d + 1, true}) {
		t.Fatalf("hook saw %+v after a rebuild fenced at %d", st, d+1)
	}
	h.v.Apply(d, d)
	h.v.Apply(c, c)
	if st := h.lastStep(); st != (Step{c, false}) {
		t.Fatalf("hook saw %+v after a delta behind the fence", st)
	}
	h.settleAndCheck("late, reordered, behind the fence")
	if _, st := h.state(); st.Deltas != 2 || st.Rebuilds != 1 {
		t.Fatalf("status %+v, want 2 deltas and 1 rebuild", st)
	}
}

// TestViewAppendMidScan: an append that commits and is delivered while
// the scan is parked — before the scan reads the truth, and after —
// moves the sequence, so the build retries and the append lands once.
func TestViewAppendMidScan(t *testing.T) {
	for _, snapLate := range []bool{false, true} {
		t.Run(fmt.Sprintf("scanSeesIt=%v", snapLate), func(t *testing.T) {
			h := newHarness(t)
			h.append()
			release := h.src.park(snapLate)
			done := make(chan error, 1)
			go func() { done <- h.v.Init(h.src.scan) }()
			<-h.src.entered
			h.append()
			release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			h.settleAndCheck("after init")
			if n := h.src.scanCount(); n != 2 {
				t.Fatalf("%d scans, want 2 (sequence moved mid-scan: one retry)", n)
			}
			h.append()
			h.settleAndCheck("live append")
		})
	}
}

// TestViewOvertakenBuildPaces: while every scan is overtaken by a
// commit, the build pauses between attempts (doubling from minPause)
// instead of rescanning flat out, and installs once the source holds
// still.
func TestViewOvertakenBuildPaces(t *testing.T) {
	h := newHarness(t)
	h.append()
	var moving atomic.Bool
	moving.Store(true)
	h.src.onRead = func(read int, loaded bool) {
		// Odd reads open an attempt: commit right after, so its check fails.
		if moving.Load() && read%2 == 1 && loaded {
			seq := h.src.commit("append")
			go h.v.Apply(seq, seq)
		}
	}
	built := make(chan error, 1)
	go func() { built <- h.v.Init(h.src.scan) }()
	time.Sleep(40 * time.Millisecond)
	// Pauses of 1+2+4+8+16 ms fit in 40 ms: six attempts, not thousands.
	if n := h.src.scanCount(); n < 2 || n > 8 {
		t.Fatalf("%d scans in 40 ms of being overtaken, want a paced handful", n)
	}
	moving.Store(false)
	if err := <-built; err != nil {
		t.Fatal(err)
	}
	h.settleAndCheck("source held still")
}

// TestViewInvalidationAtEveryPoint delivers one retention at every
// reachable point of a build — a first build and a worker rebuild — and
// requires the view to settle on the truth with no further mutation.
// (Parent defect: the registry released ownership in a second critical
// section, and an invalidation landing before it froze the view.)
func TestViewInvalidationAtEveryPoint(t *testing.T) {
	points := []string{"before first seq read", "mid-scan before the read", "mid-scan after the read",
		"after scan before install", "immediately after install"}
	for _, rebuild := range []bool{false, true} {
		for _, point := range points {
			t.Run(fmt.Sprintf("rebuild=%v/%s", rebuild, point), func(t *testing.T) {
				h := newHarness(t)
				for i := 0; i < 4; i++ {
					h.append()
				}
				if rebuild {
					h.init()
				}
				delivered := make(chan struct{})
				invalidate := func() { h.v.Invalidate(h.src.commit("retention")) }
				// start runs the build under test: Init, or the worker's
				// rebuild triggered by a compaction.
				built := make(chan error, 1)
				start := func() {
					if rebuild {
						h.v.Invalidate(h.src.commit("compact"))
						built <- nil
					} else {
						go func() { built <- h.v.Init(h.src.scan) }()
					}
				}
				// The build's first load is read base+1, its install check
				// base+2.
				base := h.src.reads
				switch point {
				case "before first seq read":
					gate := make(chan struct{})
					h.src.onRead = func(read int, loaded bool) {
						if read == base+1 && !loaded {
							<-gate
						}
					}
					start()
					invalidate()
					close(delivered)
					close(gate)
				case "mid-scan before the read", "mid-scan after the read":
					release := h.src.park(point == "mid-scan before the read")
					start()
					<-h.src.entered
					invalidate()
					close(delivered)
					release()
				default:
					// The hook runs on the builder, under the view's lock at
					// the install check: commit there, deliver from another
					// goroutine (it queues on the lock).
					afterLoad := point == "immediately after install"
					h.src.onRead = func(read int, loaded bool) {
						if read == base+2 && loaded == afterLoad {
							seq := h.src.commit("retention")
							go func() { h.v.Invalidate(seq); close(delivered) }()
						}
					}
					start()
				}
				<-delivered
				if err := <-built; err != nil {
					t.Fatal(err)
				}
				h.settleAndCheck(point)
			})
		}
	}
}

// TestViewFailedBuildRetriesOncePerMutation: a scan that fails K times
// costs one attempt per delivered mutation and none in between; reads
// serve the last good state plus the appends since, and report
// unsettled; the first success equals the truth, appends delivered
// during the failures included. (Parent defect: the miner re-woke
// itself on error and spun.)
func TestViewFailedBuildRetriesOncePerMutation(t *testing.T) {
	const K = 4
	h := newHarness(t)
	for i := 0; i < 6; i++ {
		h.append()
	}
	h.init()
	good, _ := h.state()
	scans := h.src.scanCount()

	h.src.mu.Lock()
	h.src.failNext = K
	h.src.mu.Unlock()
	h.v.Invalidate(h.src.commit("retention"))
	for i := 1; i <= K; i++ {
		h.waitFor(fmt.Sprintf("failure %d", i), func() bool { return h.failures.Value() >= int64(i) })
		// No notification, no retry: give a spinning worker time to show.
		time.Sleep(10 * time.Millisecond)
		if got, fails := h.src.scanCount()-scans, h.failures.Value(); got != i || fails != int64(i) {
			t.Fatalf("%d scans and %d counted failures after %d notifications", got, fails, i)
		}
		got, st := h.state()
		if st.Settled || fmt.Sprint(got) != fmt.Sprint(good) {
			t.Fatalf("after failure %d: settled=%v state %v, want unsettled %v", i, st.Settled, got, good)
		}
		// The next notification is the next (and only) retry.
		seq := h.src.commit("append")
		good = append(good, seq)
		h.v.Apply(seq, seq)
	}
	h.settleAndCheck("first success")
	if got, fails := h.src.scanCount()-scans, h.failures.Value(); got != K+1 || fails != K {
		t.Fatalf("%d scans and %d counted failures, want %d and %d", got, fails, K+1, K)
	}
}

// TestViewCloseDuringScan: Close returns only after the rebuild in
// flight does, cuts its retry short, and leaves no goroutine.
func TestViewCloseDuringScan(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newHarness(t)
	h.init()
	release := h.src.park(false)
	h.v.Invalidate(h.src.commit("retention"))
	<-h.src.entered
	h.append() // the sequence moved: an open view would retry
	closed := make(chan struct{})
	go func() { h.v.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while the scan was still running")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-closed
	if n := h.src.scanCount(); n != 2 {
		t.Fatalf("%d scans, want 2 (init + the one Close waited out)", n)
	}
	if h.v.Settled() {
		t.Fatal("a build cut short by Close must not report settled")
	}
	h.v.Close() // idempotent
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestViewRandomSchedules drives seeded random schedules — appends,
// seals, compactions, retentions, delayed and reordered delivery, parked
// and failing scans — and checks the view against the truth after every
// settle.
func TestViewRandomSchedules(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			h := newHarness(t)
			type note struct {
				kind string
				seq  uint64
			}
			var inFlight []note // committed, not yet delivered
			var release func()
			var seen int64 // failures answered with a seal so far
			deliver := func(i int) {
				n := inFlight[i]
				inFlight = append(inFlight[:i], inFlight[i+1:]...)
				switch n.kind {
				case "append":
					h.v.Apply(n.seq, n.seq)
				case "seal":
					h.v.Note(n.seq)
				default:
					h.v.Invalidate(n.seq)
				}
			}
			unpark := func() {
				if release != nil {
					release()
					release = nil
				}
			}
			settle := func(step string) {
				unpark()
				for len(inFlight) > 0 {
					deliver(rng.Intn(len(inFlight)))
				}
				// A failed build waits for the next notification; send one
				// seal per failure seen, and nothing otherwise.
				h.waitFor(step+": settle", func() bool {
					if h.v.Settled() {
						return true
					}
					if n := h.failures.Value(); n > seen {
						seen = n
						h.v.Note(h.src.commit("seal"))
					}
					return false
				})
				h.settleAndCheck(step)
			}

			for i := 0; i < rng.Intn(5); i++ {
				inFlight = append(inFlight, note{"append", h.src.commit("append")})
			}
			h.init()
			settle("init")
			for step := 0; step < 120; step++ {
				switch r := rng.Intn(100); {
				case r < 40:
					inFlight = append(inFlight, note{"append", h.src.commit("append")})
				case r < 48:
					inFlight = append(inFlight, note{"seal", h.src.commit("seal")})
				case r < 56:
					inFlight = append(inFlight, note{"compact", h.src.commit("compact")})
				case r < 62:
					inFlight = append(inFlight, note{"retention", h.src.commit("retention")})
				case r < 82:
					if len(inFlight) > 0 {
						deliver(rng.Intn(len(inFlight)))
					}
				case r < 87:
					h.src.mu.Lock()
					h.src.failNext = 1 + rng.Intn(2)
					h.src.mu.Unlock()
				case r < 92:
					if release == nil {
						release = h.src.park(rng.Intn(2) == 0)
					} else {
						unpark()
					}
				default:
					settle(fmt.Sprintf("step %d", step))
				}
			}
			settle("end")
		})
	}
}
