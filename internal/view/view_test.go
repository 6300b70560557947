package view

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
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
// contract: a mutation commits before its notification is delivered,
// and a scan reads the truth and the sequence number it reflects in one
// snapshot (store.ScanStats.Seq); everything else — when and in what
// order notifications arrive, where in a build they land, whether a
// scan fails — is the test's to choose.

var errScan = errors.New("scan failed")

type source struct {
	mu    sync.Mutex
	seq   uint64
	truth []uint64 // sorted

	scans    int
	failNext int           // this many scans fail
	hold     chan struct{} // a scan parks here until it is closed
	snapLate bool          // a parked scan snapshots after, not before
	entered  chan struct{} // a parked scan announces itself (1-buffered, never blocks it)
	// enter and leave run once, on the next scan's goroutine: before its
	// snapshot, and after it just before it returns.
	enter, leave func()
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

// snapshot reads the truth and the sequence number it reflects
// atomically.
func (s *source) snapshot() ([]uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.truth...), s.seq
}

func (s *source) scan() ([]uint64, uint64, error) {
	s.mu.Lock()
	s.scans++
	fail := s.failNext > 0
	if fail {
		s.failNext--
	}
	hold, late, enter, leave := s.hold, s.snapLate, s.enter, s.leave
	s.enter, s.leave = nil, nil
	s.mu.Unlock()
	if enter != nil {
		enter()
	}
	snap, seq := s.snapshot()
	if hold != nil {
		select {
		case s.entered <- struct{}{}:
		default:
		}
		<-hold
		if late {
			snap, seq = s.snapshot()
		}
	}
	if leave != nil {
		leave()
	}
	if fail {
		return nil, 0, errScan
	}
	return snap, seq, nil
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
	// Guarded by the view's lock: the hook's latest Step, and a func the
	// next hook runs once (under the lock: it must not call the view).
	last       Step
	onNextStep func()
}

func newHarness(t *testing.T) *harness {
	h := &harness{t: t, src: &source{entered: make(chan struct{}, 1)}, failures: obs.NewRegistry().Counter("failures")}
	fold := func(s *[]uint64, d uint64) {
		*s = append(*s, d)
		sort.Slice(*s, func(i, j int) bool { return (*s)[i] < (*s)[j] })
	}
	onStep := func(_ *[]uint64, st Step) {
		h.last = st
		if f := h.onNextStep; f != nil {
			h.onNextStep = nil
			f()
		}
	}
	h.v = New(nil, h.src.scan, fold, onStep, Counters{Failures: h.failures})
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
			want, _ := h.src.snapshot()
			h.t.Fatalf("timed out waiting for %s: state %v, status %+v, truth %v", what, got, st, want)
		}
	}
}

// settleAndCheck waits — delivering nothing — for the view to settle,
// then compares it to the truth.
func (h *harness) settleAndCheck(step string) {
	h.t.Helper()
	h.waitFor(step+": settle", h.v.Settled)
	got, _ := h.state()
	want, _ := h.src.snapshot()
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

// TestViewAppendMidScan: an append and a seal that commit and are
// delivered while the scan is parked — before the scan takes its
// snapshot, and after — cost no second scan: the snapshot's sequence
// number is the fence, the append lands once (in the snapshot or from
// the buffer), and the build's hook reports the seal, the newest
// mutation the state reflects, either way.
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
			seal := h.src.commit("seal")
			h.v.Note(seal)
			release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if st := h.lastStep(); st != (Step{seal, true}) {
				t.Fatalf("build's hook saw %+v, want the seal %d", st, seal)
			}
			h.settleAndCheck("after init")
			if n := h.src.scanCount(); n != 1 {
				t.Fatalf("%d scans, want 1 (the scan's snapshot is its own fence)", n)
			}
			h.append()
			h.settleAndCheck("live append")
		})
	}
}

// TestViewBuildUnderCommitsScansOnce: a build — first install and
// worker rebuild — whose scan runs while a writer commits and delivers
// without letting up installs after exactly one produce, settles while
// the writer is still going, and equals the truth.
func TestViewBuildUnderCommitsScansOnce(t *testing.T) {
	for _, rebuild := range []bool{false, true} {
		t.Run(fmt.Sprintf("rebuild=%v", rebuild), func(t *testing.T) {
			h := newHarness(t)
			h.append()
			if rebuild {
				h.init()
			}
			scans := h.src.scanCount()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					h.append()
					time.Sleep(50 * time.Microsecond)
				}
			}()
			release := h.src.park(false)
			if rebuild {
				h.v.Invalidate(h.src.commit("retention"))
			} else {
				go func() {
					if err := h.v.Init(h.src.scan); err != nil {
						t.Error(err)
					}
				}()
			}
			<-h.src.entered
			time.Sleep(10 * time.Millisecond) // commits pile up behind the snapshot
			release()
			h.waitFor("install under commits", h.v.Settled)
			close(stop)
			wg.Wait()
			h.settleAndCheck("writer stopped")
			if n := h.src.scanCount() - scans; n != 1 {
				t.Fatalf("%d scans for one build under commits, want 1", n)
			}
		})
	}
}

// TestViewInvalidationAtEveryPoint delivers one retention at every
// reachable point of a build — a first build and a worker rebuild — and
// requires the view to settle on the truth with no further mutation. An
// invalidation the build's snapshot covers costs nothing more; one past
// the fence makes the view install stale and rebuild exactly once, two
// of them included. (Parent defect: the registry released ownership in a
// second critical section, and an invalidation landing before it froze
// the view.)
func TestViewInvalidationAtEveryPoint(t *testing.T) {
	points := []struct {
		name     string
		rebuilds int // the invalidation's cost in extra scans
	}{
		{"before first seq read", 0}, {"mid-scan before the read", 0}, {"mid-scan after the read", 1},
		{"after scan before install", 1}, {"immediately after install", 1}, {"two past the fence mid-build", 1},
	}
	for _, rebuild := range []bool{false, true} {
		for _, p := range points {
			t.Run(fmt.Sprintf("rebuild=%v/%s", rebuild, p.name), func(t *testing.T) {
				h := newHarness(t)
				for i := 0; i < 4; i++ {
					h.append()
				}
				if rebuild {
					h.init()
				}
				scans := h.src.scanCount()
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
				switch p.name {
				case "before first seq read", "after scan before install":
					// The scan's own goroutine commits and delivers: before
					// its snapshot, or after it has been taken.
					hook := func() { invalidate(); close(delivered) }
					h.src.mu.Lock()
					if p.name == "before first seq read" {
						h.src.enter = hook
					} else {
						h.src.leave = hook
					}
					h.src.mu.Unlock()
					start()
				case "immediately after install":
					// The hook runs on the builder, under the view's lock: commit
					// there, deliver from another goroutine (it queues on the
					// lock).
					h.v.Read(func(*[]uint64, Status) {
						h.onNextStep = func() {
							seq := h.src.commit("retention")
							go func() { h.v.Invalidate(seq); close(delivered) }()
						}
					})
					start()
				default:
					release := h.src.park(p.name == "mid-scan before the read")
					start()
					<-h.src.entered
					invalidate()
					if p.name == "two past the fence mid-build" {
						invalidate()
					}
					close(delivered)
					release()
				}
				<-delivered
				if err := <-built; err != nil {
					t.Fatal(err)
				}
				h.settleAndCheck(p.name)
				if got := h.src.scanCount() - scans; got != 1+p.rebuilds {
					t.Fatalf("%d scans, want the build's 1 + %d", got, p.rebuilds)
				}
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
// flight does — its one scan installs with the append delivered behind
// it — and leaves no goroutine.
func TestViewCloseDuringScan(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newHarness(t)
	h.init()
	release := h.src.park(false)
	h.v.Invalidate(h.src.commit("retention"))
	<-h.src.entered
	h.append() // past the parked scan's fence: buffered, folded at install
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
	h.settleAndCheck("closed after the install")
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

// TestMergeSorted: the in-place back-merge equals sorting the
// concatenation, whether the delta lands after, inside or before the
// column, and leaves the delta untouched.
func TestMergeSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	column := func(n int, from int64) []int64 {
		c := make([]int64, n)
		for i := range c {
			from += rng.Int63n(5)
			c[i] = from
		}
		return c
	}
	for trial := 0; trial < 200; trial++ {
		a := column(rng.Intn(30), rng.Int63n(100))
		b := column(rng.Intn(10), rng.Int63n(150))
		want := append(append([]int64(nil), a...), b...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		bCopy := append([]int64(nil), b...)
		got := MergeSorted(a, b)
		if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(b) != fmt.Sprint(bCopy) {
			t.Fatalf("MergeSorted(%v, %v) = %v, want %v", a, bCopy, got, want)
		}
	}
	if b := []int64{1, 2}; &MergeSorted(nil, b)[0] == &b[0] {
		t.Fatal("merging into an empty column must copy the delta")
	}
}
