package simulate

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Sharded generation. Event synthesis is decomposed into independent
// tasks — one per alert category (or correlated category group) and one
// per fixed-size background shard — each running on its own
// deterministically derived RNG with a private event buffer and a
// private incident list. Tasks run one after another and merge in task
// order, with incident IDs renumbered by running offset, so the
// generated log is a pure function of Config (pinned by the golden
// test). The derived seeds depend only on the task's label, so a task
// draws the same stream wherever it falls in the run.

// task is one independent unit of event synthesis.
type task struct {
	label string
	run   func(s *generator)
}

// taskSeed derives a task's RNG seed from the config seed, the system,
// and the task label — nothing else.
func taskSeed(cfg Config, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return cfg.Seed ^ int64(cfg.System)*0x9e3779b9 ^ int64(h.Sum64())
}

// fork clones the generator's read-only context (config, machine,
// window, timeline) into a fresh synthesis state with a derived RNG, an
// empty event buffer, and locally numbered incidents.
func (g *generator) fork(label string) *generator {
	return &generator{
		cfg:      g.cfg,
		m:        g.m,
		rng:      rand.New(rand.NewSource(taskSeed(g.cfg, label))),
		start:    g.start,
		end:      g.end,
		timeline: g.timeline,
	}
}

// merge folds one task's output into the master, renumbering its local
// incident IDs past everything merged so far. Incident 0 means "not an
// incident" (background) and is left alone.
func (g *generator) merge(s *generator) {
	off := g.nextInc
	for _, inc := range s.truth.Incidents {
		inc.ID += off
		g.truth.Incidents = append(g.truth.Incidents, inc)
	}
	for _, e := range s.events {
		if e.incident != 0 {
			e.incident += off
		}
		g.events = append(g.events, e)
	}
	g.nextInc += s.nextInc
}

// runTasks runs each task on its own fork and merges it, in task order.
func (g *generator) runTasks(tasks []task) {
	for _, t := range tasks {
		s := g.fork(t.label)
		t.run(s)
		g.merge(s)
	}
}

// bgShardSize is the fixed background shard size: shard boundaries (and
// therefore every shard's RNG stream) are a function of the message
// budget alone.
const bgShardSize = 1 << 15

// shardTasks splits an n-message budget into fixed-size shard tasks.
// run receives the shard's message count.
func shardTasks(label string, n int, run func(s *generator, count int)) []task {
	var out []task
	for i := 0; n > 0; i++ {
		count := bgShardSize
		if count > n {
			count = n
		}
		cnt := count
		out = append(out, task{
			label: fmt.Sprintf("%s/%d", label, i),
			run:   func(s *generator) { run(s, cnt) },
		})
		n -= count
	}
	return out
}
