package filter

import (
	"container/heap"
	"time"

	"whatsupersay/internal/obs"
	"whatsupersay/internal/tag"
)

// The online filter assumes alerts arrive in non-decreasing time order,
// but a real collection path only approximates that: per-source relay
// queues drain at different rates, so alerts arrive mildly out of order.
// Feeding such a stream straight into Stream.Offer silently corrupts the
// redundancy decision — a late-arriving first report gets dropped as
// redundant while its earlier-stamped echo survives. Reordering restores
// exact time order for any stream whose disorder is bounded, using the
// watermark technique of streaming systems: an alert is released only
// once no earlier-stamped alert can still arrive.

// Reordering-buffer telemetry: how many alerts the watermark has
// released, and the instantaneous buffer depth (the latency the buffer
// is charging the stream).
var (
	mReorderReleased = obs.Default.Counter("reorder_released_total")
	mReorderPending  = obs.Default.Gauge("reorder_pending")
)

// Decision pairs an alert with the filter's verdict, emitted once the
// alert clears the reordering buffer.
type Decision struct {
	Alert tag.Alert
	// Keep reports whether the alert survived (first report of a
	// failure) — the same verdict batch Simultaneous.Filter would give.
	Keep bool
}

// Reordering wraps Stream with a bounded reordering buffer. Slack is the
// maximum out-of-order delay tolerated: if every alert arrives within
// Slack of all alerts stamped earlier than it, the decisions are exactly
// those of batch Algorithm 3.1 on the time-sorted stream. Latency is the
// price: a decision is withheld until the watermark passes the alert.
//
// Ordering contract: decisions for time-stamped alerts are emitted in
// event-time order (across Offer and Flush). Zero-time alerts —
// corrupted timestamps — carry no event time to order by, so they are
// decided out-of-band, immediately at arrival, and may therefore appear
// between two buffered alerts' decisions; see Offer.
//
// Reuse contract: a Reordering instance filters ONE logical stream.
// Flush drains the buffer but deliberately leaves the watermark and the
// inner Stream's redundancy state in place (a late tail delivered after
// an end-of-stream flush must still be judged against the stream it
// belongs to). To filter a second, unrelated stream with the same
// instance — whose timestamps may start before the first stream's
// maximum — call Reset first, or early alerts of the new stream would be
// released immediately against the stale watermark, out of order.
type Reordering struct {
	// S makes the keep/drop decisions once order is restored.
	S *Stream
	// Slack bounds the tolerated skew (and the added decision latency).
	Slack time.Duration

	h   alertHeap
	max time.Time // latest event time seen
}

// NewReordering creates a reordering filter with redundancy window t and
// out-of-order slack.
func NewReordering(t, slack time.Duration) *Reordering {
	return &Reordering{S: NewStream(t), Slack: slack}
}

// Offer accepts one alert in arrival order and returns the decisions for
// every alert the watermark released, in event-time order. Alerts whose
// time is zero (corrupted away) are decided immediately — they carry no
// ordering information, so buffering them could not sequence them
// anywhere meaningful — and are always kept, matching Stream.Offer. Such
// a decision is emitted at arrival even while earlier-stamped alerts sit
// in the buffer; only the time-stamped decisions are mutually ordered.
func (r *Reordering) Offer(a tag.Alert) []Decision {
	if r.S == nil {
		r.S = NewStream(0)
	}
	if a.Record.Time.IsZero() {
		return []Decision{{Alert: a, Keep: r.S.Offer(a)}}
	}
	heap.Push(&r.h, a)
	if a.Record.Time.After(r.max) {
		r.max = a.Record.Time
	}
	// Strict watermark: release only alerts stamped strictly earlier
	// than max-Slack. Any future arrival is stamped within Slack of some
	// already-seen alert, hence strictly later than every released one —
	// so equal-time alerts are always released together, in Seq order,
	// exactly as the batch filter visits them.
	watermark := r.max.Add(-r.Slack)
	var out []Decision
	for r.h.Len() > 0 && r.h.alerts[0].Record.Time.Before(watermark) {
		b := heap.Pop(&r.h).(tag.Alert)
		out = append(out, Decision{Alert: b, Keep: r.S.Offer(b)})
	}
	mReorderReleased.Add(int64(len(out)))
	mReorderPending.Set(float64(r.h.Len()))
	return out
}

// Flush drains the buffer at end of stream, returning the remaining
// decisions in event-time order. Flush does NOT reset the filter: the
// watermark and the inner Stream's redundancy state survive, so a late
// tail of the same stream is still judged correctly. Call Reset before
// reusing the instance for a different stream.
func (r *Reordering) Flush() []Decision {
	if r.S == nil {
		r.S = NewStream(0)
	}
	var out []Decision
	for r.h.Len() > 0 {
		b := heap.Pop(&r.h).(tag.Alert)
		out = append(out, Decision{Alert: b, Keep: r.S.Offer(b)})
	}
	mReorderReleased.Add(int64(len(out)))
	mReorderPending.Set(0)
	return out
}

// Reset prepares the instance for a new, unrelated stream: it discards
// any buffered alerts, clears the watermark, and resets the inner
// Stream's redundancy state (preserving its configured window). Without
// it, a second stream whose timestamps start earlier than the first
// stream's maximum would have its early alerts released immediately —
// in arrival rather than event-time order — against the stale
// watermark.
func (r *Reordering) Reset() {
	// Zero the backing array before truncating so the dropped alerts'
	// record strings are released to the GC.
	for i := range r.h.alerts {
		r.h.alerts[i] = tag.Alert{}
	}
	r.h.alerts = r.h.alerts[:0]
	r.max = time.Time{}
	if r.S != nil {
		r.S.Reset()
	}
	mReorderPending.Set(0)
}

// Pending reports how many alerts are buffered awaiting the watermark.
func (r *Reordering) Pending() int { return r.h.Len() }

// alertHeap is a min-heap in canonical record order (time, then Seq).
type alertHeap struct {
	alerts []tag.Alert
}

func (h alertHeap) Len() int { return len(h.alerts) }
func (h alertHeap) Less(i, j int) bool {
	return h.alerts[i].Record.Before(&h.alerts[j].Record)
}
func (h alertHeap) Swap(i, j int) { h.alerts[i], h.alerts[j] = h.alerts[j], h.alerts[i] }

func (h *alertHeap) Push(x any) { h.alerts = append(h.alerts, x.(tag.Alert)) }

func (h *alertHeap) Pop() any {
	old := h.alerts
	n := len(old)
	a := old[n-1]
	// Zero the vacated slot before shrinking: the slice's backing array
	// lives as long as the buffer does, and a stale tag.Alert there
	// pins the full raw record string (and the category pointer) long
	// after the alert was decided.
	old[n-1] = tag.Alert{}
	h.alerts = old[:n-1]
	return a
}
