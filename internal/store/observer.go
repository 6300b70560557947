package store

import "sync"

// Mutation notification: the hook the standing-query layer hangs off.
// The store invokes its observer after a mutation has committed — the
// wal write for an append, the rename for a seal, the manifest-clear
// for a compaction, the unlink for a retention pass — never before, so
// an observer always describes durable state. The observer runs outside
// the store's locks (an observer is free to call back into Scan or
// Fingerprint) but under a dedicated notify mutex, so notifications for
// one store are totally ordered and never concurrent with each other.

// MutationKind says which operation committed.
type MutationKind int

const (
	// MutationAppend: entries joined the tail. Mutation.Entries holds
	// the appended batch (post-normalization: System pinned, Raw
	// dropped) — the delta an incremental view folds in.
	MutationAppend MutationKind = iota
	// MutationSeal: tail entries moved into a sealed segment. The entry
	// set is unchanged (no delta to apply); the fingerprint moved.
	MutationSeal
	// MutationCompact: adjacent segments merged. The entry set is
	// unchanged, but derived state keyed by physical layout must
	// refresh.
	MutationCompact
	// MutationRetention: whole segments aged out. The entry set
	// genuinely shrank; incremental views must rebuild from a scan.
	MutationRetention
)

// String names the kind for logs and metrics labels.
func (k MutationKind) String() string {
	switch k {
	case MutationAppend:
		return "append"
	case MutationSeal:
		return "seal"
	case MutationCompact:
		return "compact"
	case MutationRetention:
		return "retention"
	default:
		return "unknown"
	}
}

// Mutation describes one committed store mutation.
type Mutation struct {
	Kind MutationKind
	// Seq is the store's mutation sequence number, assigned inside the
	// committing critical section: a scan that can see a mutation's
	// effects reports ScanStats.Seq >= its Seq, and one that cannot
	// reports less. That is what lets an incremental view install a
	// scanned baseline and then apply exactly the deltas the scan missed
	// — "apply iff Seq > the baseline's fence" is race-free no matter how
	// notification delivery interleaves (see internal/view).
	Seq uint64
	// Entries is the appended batch for MutationAppend, nil otherwise.
	Entries []Entry
}

// Observer receives committed-mutation notifications. Implementations
// must not block for long — notifications are delivered synchronously
// on the mutating goroutine (after locks are released), so a slow
// observer slows appends.
type Observer func(Mutation)

// SetObserver installs the store's mutation observer (nil to remove).
// At most one observer is supported; layers that need fan-out multiplex
// behind their own func. The observer starts receiving mutations that
// commit after SetObserver returns; a caller that needs a consistent
// baseline should install the observer first and then scan — any
// mutation between the scan and the install would otherwise be lost,
// while the reverse order at worst delivers a delta the baseline
// already covers to an observer that must handle replays anyway (the
// standing-query registry instead serializes registration against
// notifications at its own layer).
func (s *Store) SetObserver(fn Observer) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	s.observer = fn
}

// notify delivers one mutation to the observer, if any. Callers must
// not hold mu — observers may re-enter the store's read side (Scan,
// ScanColumns, Fingerprint). Compaction and retention notify while
// still holding compactMu, so observers must not call Compact,
// ApplyRetention, or Maintain.
func (s *Store) notify(m Mutation) {
	s.obsMu.Lock()
	fn := s.observer
	if fn != nil {
		// Deliver under obsMu so notifications are totally ordered —
		// concurrent appends cannot interleave their observers.
		fn(m)
	}
	s.obsMu.Unlock()
}

// obsState is embedded in Store (declared here to keep the observer
// machinery in one file).
type obsState struct {
	obsMu    sync.Mutex
	observer Observer
	// mutSeq is the mutation sequence counter, guarded by the store's mu.
	// A commit advances it (nextSeqLocked) after applying its effects, and
	// a reader takes it together with the snapshot it numbers
	// (ScanStats.Seq, FingerprintSeq) — so a snapshot covers exactly the
	// mutations whose Seq is at most the number read with it.
	mutSeq uint64
}

// nextSeqLocked stamps a committing mutation. The caller holds mu for
// writing.
func (s *Store) nextSeqLocked() uint64 {
	s.mutSeq++
	return s.mutSeq
}
