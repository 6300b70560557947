package shard

import (
	"sync"
	"time"
)

// A circuit breaker guards each shard: K consecutive failures (appends,
// scans, or timeouts — any path that touches the backend) open it, an
// open breaker fails calls fast instead of queueing more work onto a
// struggling store, and after a backoff a single half-open probe is let
// through to test recovery. Probe success closes the breaker; probe
// failure re-opens it with doubled backoff, up to a cap. Each shard's
// store has exactly one router in front of it (one process owns a
// cluster directory), so the backoff is plain: there is no fleet of
// routers whose probes could arrive in sync.
//
// Time is injected (clock): breaker tests advance a fake clock instead
// of sleeping, so open→half-open→closed is stepped through
// deterministically under -race.

// Breaker states, in escalation order. Exported only as the strings
// Health reports.
type breakerState int

const (
	stateClosed breakerState = iota
	stateHalfOpen
	stateOpen
)

func (s breakerState) String() string {
	switch s {
	case stateClosed:
		return "ok"
	case stateHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// Default breaker tuning (Options overrides).
const (
	DefaultFailureThreshold = 5
	DefaultBreakerBackoff   = 250 * time.Millisecond
	DefaultBreakerMaxWait   = 30 * time.Second
)

type breaker struct {
	mu sync.Mutex

	clock     func() time.Time
	threshold int
	base, max time.Duration

	state       breakerState
	consecutive int           // consecutive failures while closed
	backoff     time.Duration // current open-state wait (doubles per re-open)
	retryAt     time.Time     // when open, earliest half-open probe
	probing     bool          // a half-open probe is in flight
}

func newBreaker(threshold int, base, max time.Duration, clock func() time.Time) *breaker {
	if threshold <= 0 {
		threshold = DefaultFailureThreshold
	}
	if base <= 0 {
		base = DefaultBreakerBackoff
	}
	if max <= 0 {
		max = DefaultBreakerMaxWait
	}
	if clock == nil {
		clock = time.Now
	}
	return &breaker{
		clock:     clock,
		threshold: threshold,
		base:      base,
		max:       max,
	}
}

// Allow reports whether a call may proceed. In the open state it flips
// to half-open once the backoff expires and admits exactly one probe;
// concurrent callers are refused until that probe settles.
func (b *breaker) Allow() bool {
	ok, _ := b.allow()
	return ok
}

// allow is Allow plus whether the admitted call is the half-open probe.
// A caller that can abandon its call without learning anything about
// the shard (the client's own context dying mid-flight) must know,
// because an abandoned probe has to be released with cancelProbe —
// otherwise probing stays true forever and the breaker wedges.
func (b *breaker) allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true, false
	case stateOpen:
		if b.clock().Before(b.retryAt) {
			return false, false
		}
		b.state = stateHalfOpen
		b.probing = true
		return true, true
	default: // half-open
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// Success records a completed call: any state resets to closed.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = stateClosed
	b.consecutive = 0
	b.backoff = 0
	b.probing = false
}

// Failure records a failed call: a failed half-open probe re-opens with
// doubled backoff; the threshold'th consecutive closed-state failure
// opens.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	b.consecutive++
	if b.state == stateHalfOpen || b.consecutive >= b.threshold {
		b.open()
	}
}

// cancelProbe releases an admitted half-open probe whose call was
// abandoned with no outcome — the client's own deadline died, which
// says nothing about the shard. The breaker returns to open with its
// already-expired retryAt intact, so the next Allow re-admits a fresh
// probe immediately instead of refusing every caller forever behind a
// probing flag nobody will ever clear.
func (b *breaker) cancelProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.probing {
		return // the probe settled concurrently (a racing Success/Failure)
	}
	b.probing = false
	if b.state == stateHalfOpen {
		b.state = stateOpen
	}
}

// open transitions to the open state with the next backoff: the base
// wait on the first opening, doubled per failed probe up to the cap;
// callers hold mu.
func (b *breaker) open() {
	b.state = stateOpen
	if b.backoff == 0 {
		b.backoff = b.base
	} else if b.backoff = b.backoff * 2; b.backoff > b.max {
		b.backoff = b.max
	}
	b.retryAt = b.clock().Add(b.backoff)
}

// snapshot returns the state for Health without perturbing it.
func (b *breaker) snapshot() (state string, consecutive int, retryIn time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == stateOpen {
		if d := b.retryAt.Sub(b.clock()); d > 0 {
			retryIn = d
		}
	}
	return b.state.String(), b.consecutive, retryIn
}

// stateCode maps the state onto the obs gauge scale (0 ok, 1 half-open,
// 2 open; 3 is reserved for quarantined shards, which have no breaker).
func (b *breaker) stateCode() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return 0
	case stateHalfOpen:
		return 1
	default:
		return 2
	}
}
