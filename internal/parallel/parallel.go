// Package parallel is the order-preserving chunked worker pool behind
// the pipeline's hot stages (generate, parse, tag). Work is split into
// sequence-stamped chunks of a fixed size, the chunks fan out across a
// bounded set of workers, and results are reassembled in chunk order —
// so the output of a parallel run is byte-identical to a serial run of
// the same chunking, regardless of worker count or scheduling.
//
// The cardinal rule, enforced by construction here and by equivalence
// tests in the consuming packages: chunk boundaries are a function of
// the input size and the configured chunk size only, never of the
// worker count. Worker count decides how fast the chunks drain, not
// what the chunks are, which is what keeps `Workers: 1` and
// `Workers: 32` indistinguishable in output.
//
// Scheduling is additionally autotuned: a multi-worker Do runs its
// first chunk inline as a probe, and when the measured per-chunk work
// says the whole job is too small to pay for goroutine fan-out it
// finishes serially (counted in parallel_autotune_serial_total). The
// decision changes wall-clock only — the chunk boundaries, and thus
// the output, are identical on both sides of the threshold.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"whatsupersay/internal/obs"
)

// Pool telemetry, recorded into the process registry: per-chunk
// latency, instantaneous queue depth, and the busy-vs-available worker
// time from which utilization is derived (utilization =
// parallel_busy_nanos_total / parallel_worker_nanos_total). All updates
// are atomic and per-chunk (never per-item), so the cost is two clock
// reads and a handful of atomic adds per DefaultChunkSize items — see
// DESIGN.md §9 for the measured overhead.
var (
	poolChunks    = obs.Default.Counter("parallel_chunks_total")
	poolChunkTime = obs.Default.Histogram("parallel_chunk_seconds", obs.Seconds)
	poolQueue     = obs.Default.Gauge("parallel_queue_depth")
	poolBusy      = obs.Default.Counter("parallel_busy_nanos_total")
	poolWorker    = obs.Default.Counter("parallel_worker_nanos_total")

	// poolSerialFallbacks counts Do calls that measured the first chunk,
	// judged the remaining work too small to pay for goroutines, and
	// finished serially (see autotuneMinWork), so a parallel call site
	// that is no faster than serial is explainable from a scrape.
	poolSerialFallbacks = obs.Default.Counter("parallel_autotune_serial_total")
)

// autotuneMinWork is the estimated remaining work below which Do
// finishes serially instead of spawning workers. Parallelism costs a
// few tens of microseconds (goroutine spawns, the WaitGroup barrier,
// cross-core cache traffic); when the whole job is in that range —
// tiny inputs, trivial per-item work — the serial path is faster and,
// by the chunk-boundary invariant, byte-identical. A variable so the
// autotune tests can force either decision deterministically.
var autotuneMinWork = 250 * time.Microsecond

// runChunk times one chunk and folds it into the pool telemetry.
func runChunk(fn func(lo, hi int), lo, hi int) {
	t0 := time.Now()
	fn(lo, hi)
	d := time.Since(t0)
	poolChunks.Inc()
	poolChunkTime.Observe(int64(d))
	poolBusy.Add(int64(d))
	poolQueue.Add(-1)
}

// DefaultChunkSize is the per-chunk work-item count when Options leaves
// it zero. Big enough to amortize scheduling, small enough to load
// balance tail chunks across workers.
const DefaultChunkSize = 4096

// Options tunes a parallel run. The zero value means "all cores,
// default chunk size" and is what the pipeline uses by default.
type Options struct {
	// Workers bounds the number of concurrent workers; 0 means
	// GOMAXPROCS. Workers never affects results, only wall-clock.
	Workers int
	// ChunkSize is the number of work items per chunk; 0 means
	// DefaultChunkSize. ChunkSize affects chunk boundaries and is part
	// of the deterministic contract: same input + same ChunkSize =
	// same chunks.
	ChunkSize int
}

// workers resolves the effective worker count for n work items.
func (o Options) workers(chunks int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > chunks {
		w = chunks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chunkSize resolves the effective chunk size.
func (o Options) chunkSize() int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return DefaultChunkSize
}

// Chunks returns the number of chunks n items split into under o.
func (o Options) Chunks(n int) int {
	cs := o.chunkSize()
	return (n + cs - 1) / cs
}

// Do partitions [0, n) into fixed-size chunks and invokes fn(lo, hi)
// for each chunk from a bounded worker pool, returning when every chunk
// is done. fn must be safe to call concurrently for disjoint ranges;
// writing results into a preallocated slice indexed by position is the
// intended usage and is what preserves order.
func Do(n int, opts Options, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	cs := opts.chunkSize()
	chunks := opts.Chunks(n)
	w := opts.workers(chunks)
	poolQueue.Add(float64(chunks))
	t0 := time.Now()
	if w == 1 {
		// Serial fast path: same chunk boundaries, no goroutines.
		for c := 0; c < chunks; c++ {
			lo := c * cs
			hi := min(lo+cs, n)
			runChunk(fn, lo, hi)
		}
		poolWorker.Add(int64(time.Since(t0)))
		return
	}

	// Autotune probe: run chunk 0 inline and time it. If the estimated
	// remaining work (probe × remaining chunks) is below the threshold
	// where goroutines pay for themselves, finish serially. Chunk
	// boundaries are identical either way — the decision changes only
	// scheduling, never results.
	runChunk(fn, 0, min(cs, n))
	probe := time.Since(t0)
	if probe < autotuneMinWork && probe*time.Duration(chunks-1) < autotuneMinWork {
		poolSerialFallbacks.Inc()
		for c := 1; c < chunks; c++ {
			lo := c * cs
			hi := min(lo+cs, n)
			runChunk(fn, lo, hi)
		}
		poolWorker.Add(int64(time.Since(t0)))
		return
	}

	t1 := time.Now()
	var next atomic.Int64
	next.Store(1) // chunk 0 already ran as the probe
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * cs
				hi := min(lo+cs, n)
				runChunk(fn, lo, hi)
			}
		}()
	}
	wg.Wait()
	// Worker-time denominator: one worker during the probe, then w
	// workers for the parallel remainder.
	poolWorker.Add(int64(probe) + int64(time.Since(t1))*int64(w))
}

// FlatMap runs fn over each chunk of [0, n) and concatenates the
// per-chunk result slices in chunk order — the sequence-stamped
// scatter/gather the pipeline stages use when the per-item output count
// is not known up front (tagging, filtering). The concatenated result
// is identical to appending fn's outputs serially.
func FlatMap[T any](n int, opts Options, fn func(lo, hi int) []T) []T {
	if n <= 0 {
		return nil
	}
	chunks := opts.Chunks(n)
	parts := make([][]T, chunks)
	cs := opts.chunkSize()
	Do(n, opts, func(lo, hi int) {
		parts[lo/cs] = fn(lo, hi)
	})
	return Concat(parts)
}

// Tasks runs fn(i) for each task index in [0, n) from a bounded worker
// pool and gathers the per-task results in task order. It is FlatMap
// with one task per chunk: the form used when work items are naturally
// coarse and heterogeneous (one alert category, one background shard).
func Tasks[T any](n int, workers int, fn func(i int) []T) []T {
	parts := make([][]T, n)
	Do(n, Options{Workers: workers, ChunkSize: 1}, func(lo, hi int) {
		parts[lo] = fn(lo)
	})
	return Concat(parts)
}

// Concat joins slices into one, preallocated to the exact total.
func Concat[T any](parts [][]T) []T {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
