package main

import "testing"

// A synthetic tree:
//
//	op 0..100
//	├── a 10..40
//	│   └── b 15..25
//	├── a 50..70
//	└── c 70..90
//
// Self time is duration minus what the direct children cover, so a
// grandchild is charged to its parent only.
func TestReduceSubtractsDirectChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Allocs: 50},
		{Name: "a", Start: 10, End: 40, Parent: 0, Allocs: 20},
		{Name: "b", Start: 15, End: 25, Parent: 1, Allocs: 5},
		{Name: "a", Start: 50, End: 70, Parent: 0, Allocs: 10},
		{Name: "c", Start: 70, End: 90, Parent: 0, Allocs: 0},
	}
	got := reduce(spans)
	for name, want := range map[string]layerTotal{
		"op": {Count: 1, DurNs: 100, SelfNs: 100 - 30 - 20 - 20, Allocs: 50 - 20 - 10},
		"a":  {Count: 2, DurNs: 50, SelfNs: 50 - 10, Allocs: 30 - 5},
		"b":  {Count: 1, DurNs: 10, SelfNs: 10, Allocs: 5},
		"c":  {Count: 1, DurNs: 20, SelfNs: 20, Allocs: 0},
	} {
		lt := got[name]
		if lt == nil {
			t.Fatalf("no total for %q", name)
		}
		if lt.Count != want.Count || lt.DurNs != want.DurNs || lt.SelfNs != want.SelfNs || lt.Allocs != want.Allocs {
			t.Errorf("%s: count/dur/self/allocs = %d/%d/%d/%d, want %d/%d/%d/%d", name,
				lt.Count, lt.DurNs, lt.SelfNs, lt.Allocs, want.Count, want.DurNs, want.SelfNs, want.Allocs)
		}
	}
	// Self times add up to the root: nothing is counted twice or lost.
	var self int64
	for _, lt := range got {
		self += lt.SelfNs
	}
	if self != 100 {
		t.Errorf("self times sum to %d, want the root's 100", self)
	}
}

func TestTracerNestsAndNumbersOperations(t *testing.T) {
	tr := newTracer()
	tr.nextOp()
	op := tr.begin("op")
	child := tr.begin("child")
	tr.end(child)
	tr.end(op)
	tr.nextOp()
	other := tr.begin("op")
	tr.end(other)

	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	if p := tr.spans[child].Parent; p != op {
		t.Errorf("child's parent = %d, want %d", p, op)
	}
	if tr.spans[op].Parent != -1 || tr.spans[other].Parent != -1 {
		t.Error("a span opened on an empty stack must be a root")
	}
	if tr.spans[op].Op != tr.spans[child].Op || tr.spans[op].Op == tr.spans[other].Op {
		t.Errorf("operation ids %d %d %d: spans of one operation share an id, operations differ",
			tr.spans[op].Op, tr.spans[child].Op, tr.spans[other].Op)
	}
	for i, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if c, o := tr.spans[child], tr.spans[op]; c.Start < o.Start || c.End > o.End {
		t.Error("child is not inside its parent")
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer()
	tr.off = true
	id := tr.begin("x")
	tr.end(id)
	if len(tr.spans) != 0 || len(tr.stack) != 0 {
		t.Errorf("tracer that is off recorded %d spans, stack %d", len(tr.spans), len(tr.stack))
	}
}

// The ingest shares take only what hangs under an op.ingest root, and
// charge each span's self time to the layer its name is prefixed with.
func TestIngestSharesByLayerPrefix(t *testing.T) {
	spans := []span{
		{Name: "op.load", Start: 0, End: 1000, Parent: -1},
		{Name: "ingest.parse", Start: 0, End: 1000, Parent: 0},
		{Name: spanOpIngest, Start: 1000, End: 1100, Parent: -1},
		{Name: "ingest.parse", Start: 1000, End: 1050, Parent: 2},
		{Name: "store.append", Start: 1050, End: 1090, Parent: 2},
		{Name: "query.standing_fold", Start: 1060, End: 1080, Parent: 4},
	}
	shares, covered := ingestShares(spans)
	want := map[string]float64{"ingest": 0.5, "store": 0.2, "query": 0.2}
	for layer, w := range want {
		if got := shares[layer]; got != w {
			t.Errorf("share of %s = %v, want %v", layer, got, w)
		}
	}
	if covered != 0.9 {
		t.Errorf("covered = %v, want 0.9", covered)
	}
}
