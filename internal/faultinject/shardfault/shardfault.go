// Package shardfault is faultinject's shard-boundary layer. Where the
// reader faults in the parent package damage the byte transport under
// one ingest, these damage a whole store behind the shard router:
// opens that fail, appends that error, scans that stall or crawl. They exist so every behavior in the router's
// failure envelope — quarantine at startup, circuit breakers opening
// and half-open probing, per-shard deadlines, degraded partial results —
// is reachable deterministically from a test, with no real disk failure
// or timing luck involved.
//
// StoreBackend is defined here structurally (Go interfaces are
// satisfied by method set, not by declaration) so this package needs no
// dependency on the shard router: *store.Store satisfies it, a
// *FaultyStore wrapping one satisfies it, and the router accepts either
// through its own interface, which has the same methods.
package shardfault

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/store"
)

// ErrInjectedOpen is the open-time failure OpenFaulty injects — the
// corrupt or unmountable shard directory the router must quarantine.
var ErrInjectedOpen = errors.New("shardfault: injected open failure")

// ErrInjectedAppend is the write failure a FaultyStore injects — the
// full or dying disk behind one shard.
var ErrInjectedAppend = errors.New("shardfault: injected append failure")

// ErrInjectedScan is the read failure a FaultyStore injects.
var ErrInjectedScan = errors.New("shardfault: injected scan failure")

// StoreBackend is the store surface the shard router consumes, mirrored
// here so FaultyStore can interpose on any implementation.
// FingerprintSeq and SetObserver, which feed a shard's standing registry
// and correlation miner, pass through unfaulted: an injected append
// failure happens before delegation and never notifies the observer,
// which sees only committed mutations.
type StoreBackend interface {
	Append(entries ...store.Entry) error
	Scan(f store.Filter, fn func(store.Entry) error) (store.ScanStats, error)
	ScanColumns(f store.Filter, v store.ColumnVisitor) (store.ScanStats, error)
	Seal() error
	Close() error
	Len() int
	TailLen() int
	Segments() []store.SegmentInfo
	Fingerprint() uint64
	FingerprintSeq() (fp, seq uint64)
	SetObserver(store.Observer)
	System() logrec.System
}

// StoreFaults selects which shard-boundary faults to inject. Faults are
// counted, not probabilistic: "the next N calls fail" is what makes
// breaker-threshold tests exact. The zero value injects nothing.
type StoreFaults struct {
	// FailAppends fails the next N Append calls with ErrInjectedAppend
	// (negative: fail forever).
	FailAppends int
	// AppendHold, when non-nil, makes every Append block until the
	// channel is closed — the wedged disk that backs a shard's ingest
	// up into backpressure.
	AppendHold <-chan struct{}
	// AppendDelay stalls every Append for this long before delegating —
	// a slow (not wedged) disk, for tests that need the shard's drain
	// rate measurably degraded rather than stopped.
	AppendDelay time.Duration
	// FailScans fails the next N Scan or ScanColumns calls with
	// ErrInjectedScan before touching the store (negative: fail forever).
	FailScans int
	// ScanDelay stalls every Scan and ScanColumns call for this long
	// before starting — the overloaded or seeking shard a per-shard
	// deadline must cut off.
	ScanDelay time.Duration
	// ScanHold, when non-nil, makes every Scan and ScanColumns block
	// until the channel is closed (after ScanDelay) — an unbounded stall
	// for tests that need a shard wedged, not merely slow.
	ScanHold <-chan struct{}
}

// FaultyStore wraps a backend with injectable faults. Fault state is
// mutex-guarded: tests mutate it (Heal, SetFaults) while the router's
// appends and scans exercise the store concurrently.
type FaultyStore struct {
	StoreBackend

	mu     sync.Mutex
	faults StoreFaults
}

// NewFaultyStore wraps b with the given initial faults.
func NewFaultyStore(b StoreBackend, faults StoreFaults) *FaultyStore {
	return &FaultyStore{StoreBackend: b, faults: faults}
}

// SetFaults replaces the live fault configuration.
func (f *FaultyStore) SetFaults(faults StoreFaults) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = faults
}

// Heal clears all faults: the disk came back.
func (f *FaultyStore) Heal() { f.SetFaults(StoreFaults{}) }

// consume decrements a fail-next-N counter, reporting whether this call
// should fail. Negative counters fail forever.
func consume(n *int) bool {
	switch {
	case *n == 0:
		return false
	case *n > 0:
		*n--
	}
	return true
}

// Append applies the hold fault, then either fails (FailAppends
// budget) or delegates.
func (f *FaultyStore) Append(entries ...store.Entry) error {
	f.mu.Lock()
	hold := f.faults.AppendHold
	delay := f.faults.AppendDelay
	fail := consume(&f.faults.FailAppends)
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if hold != nil {
		<-hold
	}
	if fail {
		return fmt.Errorf("%w", ErrInjectedAppend)
	}
	return f.StoreBackend.Append(entries...)
}

// scanFault applies the read faults Scan and ScanColumns share: the
// stall (ScanDelay, then ScanHold), then the FailScans budget.
func (f *FaultyStore) scanFault() error {
	f.mu.Lock()
	delay := f.faults.ScanDelay
	hold := f.faults.ScanHold
	fail := consume(&f.faults.FailScans)
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if hold != nil {
		<-hold
	}
	if fail {
		return fmt.Errorf("%w", ErrInjectedScan)
	}
	return nil
}

// Scan applies the read faults, then delegates.
func (f *FaultyStore) Scan(flt store.Filter, fn func(store.Entry) error) (store.ScanStats, error) {
	if err := f.scanFault(); err != nil {
		return store.ScanStats{}, err
	}
	return f.StoreBackend.Scan(flt, fn)
}

// ScanColumns applies the same read faults as Scan, then delegates: an
// aggregate over a faulted shard stalls, fails and heals exactly as a
// select does.
func (f *FaultyStore) ScanColumns(flt store.Filter, v store.ColumnVisitor) (store.ScanStats, error) {
	if err := f.scanFault(); err != nil {
		return store.ScanStats{}, err
	}
	return f.StoreBackend.ScanColumns(flt, v)
}

// OpenFaulty is an open-store hook for the shard router's test seam: it
// fails outright for shard directories listed in failDirs (simulating a
// corrupt directory the router must quarantine) and wraps every other
// shard in a FaultyStore so tests can inject runtime faults later. The
// returned map exposes each opened shard's wrapper keyed by directory.
func OpenFaulty(failDirs map[string]bool) (open func(dir string, opts store.Options) (StoreBackend, *store.OpenReport, error), wrapped map[string]*FaultyStore, mu *sync.Mutex) {
	wrapped = make(map[string]*FaultyStore)
	mu = &sync.Mutex{}
	open = func(dir string, opts store.Options) (StoreBackend, *store.OpenReport, error) {
		if failDirs[dir] {
			return nil, nil, fmt.Errorf("%w: %s", ErrInjectedOpen, dir)
		}
		st, rep, err := store.Open(dir, opts)
		if err != nil {
			return nil, rep, err
		}
		fs := NewFaultyStore(st, StoreFaults{})
		mu.Lock()
		wrapped[dir] = fs
		mu.Unlock()
		return fs, rep, nil
	}
	return open, wrapped, mu
}
