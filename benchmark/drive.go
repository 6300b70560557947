package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client is one load-generating connection: a keep-alive HTTP client
// that never opens a second connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer. A transport error
// comes back as status 0.
func (c *client) do(method, path string, body []byte) (status int, answer []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	answer, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, answer
}

// clientCount is how many connections the benchmark drives at once: one
// per core up to two, the most this sandbox can run beside the server
// without the generator becoming the bottleneck.
func clientCount(nproc int) int { return min(2, max(1, nproc)) }

// closedLoop runs operations 0..n-1 over the clients: each client takes
// the next unclaimed index only after its previous operation completed,
// so a slow server receives less load. op reports the operation's
// latency sample through the returned slices itself; closedLoop returns
// the wall time of the whole loop.
func closedLoop(clients []*client, n int, op func(c *client, worker, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				op(c, w, i)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// openLoopResult is what one paced sender measured, in milliseconds.
type openLoopResult struct {
	latency  []float64 // completion minus due time, per operation
	lateness []float64 // send minus due time: how late the generator ran
	wall     time.Duration
}

// openLoop sends operations 0..n-1 from one connection on a fixed
// schedule: operation i is due at i/rate seconds after the start,
// whatever the server does. The sender is synchronous, so a stalled
// operation delays the sends behind it; each operation is timed from
// when it was due, not from when it was sent, which charges that wait
// to the operations that suffered it (no coordinated omission).
func openLoop(rate float64, n int, send func(i int)) openLoopResult {
	res := openLoopResult{latency: make([]float64, 0, n), lateness: make([]float64, 0, n)}
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		send(i)
		res.latency = append(res.latency, ms(time.Since(due)))
		res.lateness = append(res.lateness, ms(sent.Sub(due)))
	}
	res.wall = time.Since(t0)
	return res
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
