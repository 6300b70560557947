package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer's public function. Start and End
// are nanoseconds since the tracer was made, Parent is the index of the
// span that caused it (-1 for a root) and Op numbers the traced
// operation, so the spans of one request share an identifier. Allocs is
// the heap-object count the call made, children included.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Allocs uint64 `json:"allocs"`
}

// tracer records spans from one goroutine into memory. It is not safe
// for concurrent use: the traced run replays every operation on the
// calling goroutine so that parent/child nesting is a plain stack.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
	// off makes begin/end no-ops: alternate operations run untraced so
	// the cost of tracing itself is measured (trace.overhead_frac).
	off     bool
	samples []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0: time.Now(),
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/tiny/allocs:objects"},
		},
	}
}

// mallocs is runtime.MemStats.Mallocs read through runtime/metrics,
// which does not stop the world, so it can bracket spans of a few
// microseconds.
func (t *tracer) mallocs() uint64 {
	metrics.Read(t.samples)
	return t.samples[0].Value.Uint64() + t.samples[1].Value.Uint64()
}

// begin opens a span under the innermost open one and returns its
// index for end. The allocation counter is read before the clock so the
// read is charged to the parent, not to the span.
func (t *tracer) begin(name string) int {
	if t.off {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Allocs: t.mallocs()})
	t.stack = append(t.stack, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Allocs = t.mallocs() - s.Allocs
	t.stack = t.stack[:len(t.stack)-1]
}

// nextOp starts a new operation: spans opened from now on carry its id.
func (t *tracer) nextOp() { t.op++ }

// layerTotal is what one span name adds up to over a trace.
type layerTotal struct {
	Count  int     `json:"count"`
	SelfNs int64   `json:"self_ns"`
	DurNs  int64   `json:"dur_ns"`
	Allocs uint64  `json:"allocs"`
	Durs   []int64 `json:"-"`
}

// reduce folds spans into per-name totals. A span's self time is its
// duration minus the part of that interval its direct children cover;
// its allocations are likewise net of its children's.
func reduce(spans []span) map[string]*layerTotal {
	childNs := make([]int64, len(spans))
	childAllocs := make([]uint64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
			childAllocs[s.Parent] += s.Allocs
		}
	}
	out := map[string]*layerTotal{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.DurNs += dur
		lt.SelfNs += dur - childNs[i]
		lt.Allocs += s.Allocs - min(childAllocs[i], s.Allocs)
		lt.Durs = append(lt.Durs, dur)
	}
	return out
}

// writeTrace stores the spans and their reduction under benchmark/out.
func writeTrace(dir, workload string, spans []span, layers map[string]*layerTotal) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "layers": layers, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
