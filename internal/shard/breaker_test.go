package shard

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable, manually advanced time source: breaker
// tests step open → half-open → closed without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestBreakerOpensAtThresholdAndProbes(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(3, 100*time.Millisecond, time.Second, clk.Now)

	// Closed: failures below the threshold keep admitting calls.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Failure()
	}
	if state, n, _ := b.snapshot(); state != "ok" || n != 2 {
		t.Fatalf("before threshold: state %s, consecutive %d", state, n)
	}

	// Third consecutive failure opens.
	if !b.Allow() {
		t.Fatal("closed breaker refused the threshold call")
	}
	b.Failure()
	if state, _, retryIn := b.snapshot(); state != "open" || retryIn <= 0 {
		t.Fatalf("after threshold: state %s, retryIn %v", state, retryIn)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before the backoff")
	}

	// The first wait is the base backoff: advancing it reaches the
	// half-open window.
	clk.Advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("half-open probe refused after the backoff")
	}
	// Exactly one probe: a concurrent caller is refused while it flies.
	if b.Allow() {
		t.Fatal("second concurrent half-open probe admitted")
	}

	// Probe failure re-opens with doubled backoff.
	b.Failure()
	if state, _, _ := b.snapshot(); state != "open" {
		t.Fatalf("failed probe left state %s", state)
	}
	clk.Advance(100 * time.Millisecond) // half the doubled backoff
	clk.Advance(100 * time.Millisecond) // the full doubled backoff
	if !b.Allow() {
		t.Fatal("probe refused after doubled backoff")
	}
	b.Success()
	if state, n, _ := b.snapshot(); state != "ok" || n != 0 {
		t.Fatalf("after successful probe: state %s, consecutive %d", state, n)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused after recovery")
	}
}

func TestBreakerBackoffCapped(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(1, 100*time.Millisecond, 250*time.Millisecond, clk.Now)
	for i := 0; i < 10; i++ {
		if b.Allow() {
			b.Failure()
		}
		clk.Advance(time.Hour)
	}
	b.mu.Lock()
	backoff := b.backoff
	b.mu.Unlock()
	if backoff != 250*time.Millisecond {
		t.Fatalf("backoff %v not capped at 250ms", backoff)
	}
}

// TestCancelProbeReleasesHalfOpen pins the probe-abandonment contract:
// a half-open probe whose call dies without an outcome (client cancel)
// must be released, not left in flight forever — before cancelProbe,
// the probing flag wedged the breaker shut until process restart.
func TestCancelProbeReleasesHalfOpen(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(1, 100*time.Millisecond, time.Second, clk.Now)
	b.Allow()
	b.Failure() // open
	clk.Advance(100 * time.Millisecond)

	ok, probe := b.allow()
	if !ok || !probe {
		t.Fatalf("expected probe admission, got ok=%v probe=%v", ok, probe)
	}
	b.cancelProbe()
	if state, _, _ := b.snapshot(); state != "open" {
		t.Fatalf("cancelled probe left state %s", state)
	}
	// The backoff already expired, so the very next caller must be
	// admitted as a fresh probe — no wedge, no extra wait.
	if ok, probe = b.allow(); !ok || !probe {
		t.Fatalf("breaker wedged after cancelled probe: ok=%v probe=%v", ok, probe)
	}
	b.Success()
	if !b.Allow() {
		t.Fatal("closed breaker refused after recovery")
	}
}

// TestCancelProbeNoopsWithoutProbe: releasing when nothing is in flight
// (or after a racing Success already settled the probe) must not
// perturb a closed breaker.
func TestCancelProbeNoopsWithoutProbe(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(2, 100*time.Millisecond, time.Second, clk.Now)
	b.cancelProbe()
	if state, _, _ := b.snapshot(); state != "ok" {
		t.Fatalf("stray cancelProbe moved a closed breaker to %s", state)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused after stray cancelProbe")
	}
}

// TestBreakerBackoffExact: the open-state wait is the plain doubling
// backoff, so the next half-open probe is due exactly one backoff after
// each opening.
func TestBreakerBackoffExact(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(1, 100*time.Millisecond, time.Second, clk.Now)
	for _, backoff := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond} {
		if !b.Allow() {
			t.Fatalf("breaker refused the call due at backoff %v", backoff)
		}
		openedAt := clk.Now()
		b.Failure()
		b.mu.Lock()
		retryAt := b.retryAt
		b.mu.Unlock()
		if want := openedAt.Add(backoff); !retryAt.Equal(want) {
			t.Fatalf("retryAt = %v, want open time + %v = %v", retryAt, backoff, want)
		}
		clk.Advance(backoff)
	}
}
