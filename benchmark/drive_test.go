package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// An open loop against a handler that stalls once: the stall must show
// in the latencies of the requests queued behind it, because each is
// timed from when it was due and not from when it could finally be
// sent, and the generator's lateness must be reported. Only lower
// bounds are asserted on the slow side (a stalled synchronous sender
// cannot send before the stall ends), so a busy machine cannot fail the
// test.
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	const (
		rate     = 100.0 // one request every 10 ms
		n        = 30
		stalled  = 5
		stall    = 100 * time.Millisecond
		interval = 10 * time.Millisecond
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1)-1 == stalled {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()

	res := openLoop(rate, n, func(int) {
		if status, _ := c.do("GET", "/", nil); status != 200 {
			t.Errorf("status %d", status)
		}
	})
	if len(res.latency) != n || len(res.lateness) != n {
		t.Fatalf("%d latencies, %d latenesses, want %d of each", len(res.latency), len(res.lateness), n)
	}
	if got := res.latency[stalled]; got < ms(stall) {
		t.Errorf("stalled request took %.1f ms, less than the %.0f ms stall", got, ms(stall))
	}
	// The next request was due one interval after the stalled one and
	// could not be sent until the stall ended: it waited for at least
	// the rest of the stall, and that wait is in its latency although
	// the server answered it at once.
	next := stalled + 1
	wait := ms(stall - interval)
	if got := res.lateness[next]; got < wait {
		t.Errorf("request behind the stall was sent %.1f ms late, want at least %.0f ms", got, wait)
	}
	if got := res.latency[next]; got < wait {
		t.Errorf("request behind the stall has latency %.1f ms, want at least the %.0f ms it waited", got, wait)
	}
	// The requests before the stall were not delayed by it.
	for i := 0; i < stalled; i++ {
		if res.lateness[i] >= wait {
			t.Errorf("request %d, before the stall, was sent %.1f ms late", i, res.lateness[i])
		}
	}
	// The schedule does not stretch: the generator catches up, and the
	// whole run still takes about n intervals, not n intervals plus the
	// stall.
	if got := res.lateness[n-1]; got >= wait {
		t.Errorf("generator never caught up: last request sent %.1f ms late", got)
	}
	if res.wall < time.Duration(n-1)*interval {
		t.Errorf("run took %v, less than the schedule's %v", res.wall, time.Duration(n-1)*interval)
	}
}

// A closed loop hands out every index exactly once and never has more
// operations in flight than it has clients.
func TestClosedLoopRunsEachIndexOnceWithOneInFlightPerClient(t *testing.T) {
	const n = 200
	clients := []*client{{}, {}}
	var seen [n]atomic.Int32
	var inFlight, peak atomic.Int32
	closedLoop(clients, n, func(_ *client, w, i int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		if w < 0 || w >= len(clients) {
			t.Errorf("worker %d out of range", w)
		}
		seen[i].Add(1)
		time.Sleep(50 * time.Microsecond)
		inFlight.Add(-1)
	})
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Errorf("index %d ran %d times", i, got)
		}
	}
	if got := peak.Load(); got > int32(len(clients)) {
		t.Errorf("%d operations in flight with %d clients", got, len(clients))
	}
}

func TestClientCount(t *testing.T) {
	for nproc, want := range map[int]int{0: 1, 1: 1, 2: 2, 64: 2} {
		if got := clientCount(nproc); got != want {
			t.Errorf("clientCount(%d) = %d, want %d", nproc, got, want)
		}
	}
}
