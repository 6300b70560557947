// Package correlate mines a weighted event-correlation graph from the
// alert store, online. It is the paper's Section-5 promise — "filtering
// enables modeling" — made operational in the LogMaster shape: nodes
// are event types (a category, a (source, category) pair, or a mined
// message template), and a directed edge A→B counts how often a B event
// follows an A event within a time window, with the edge's confidence
// (co-occurrence count over A's event count) and typical lag. Figure 3's
// GM_PAR → GM_LANAI precursor is exactly such an edge, and the graph's
// edges feed internal/predict as precursor predictors.
//
// The representation is chosen so that the online incremental graph is
// *provably* byte-identical to a from-scratch batch mine over the same
// entries. The maintained state is all-integer:
//
//   - per-node timestamp columns (sorted Unix nanoseconds) — a pure
//     function of the entry multiset, order-independent by construction;
//   - per-ordered-pair accumulators {Pairs, LagSum} — and pair counting
//     is bilinear over disjoint multiset unions, so folding an appended
//     batch Δ into columns A,B updates every edge exactly by
//     cross(A,ΔB) + cross(ΔA,B) + cross(ΔA,ΔB).
//
// A pair (ta, tb) counts for edge A→B iff 0 < tb-ta ≤ Window: strict
// precedence, so equal timestamps contribute nothing and tie order
// cannot perturb the graph. Confidence and mean lag are derived from
// the integers only at render time. Differential tests pin the
// incremental state equal to the batch mine after every mutation class.
package correlate

import (
	"fmt"
	"sort"
	"time"

	"whatsupersay/internal/mining"
	"whatsupersay/internal/store"
	"whatsupersay/internal/view"
)

// DefaultWindow is the co-occurrence window when Config.Window is zero.
// The study's cross-category cascades are minutes-scale (Figure 3's
// GM_PAR → GM_LANAI lag is 1–30 minutes); one hour covers them with
// slack without linking unrelated day-apart events.
const DefaultWindow = time.Hour

// NodeMode selects what a graph node identifies.
type NodeMode int

const (
	// NodeCategory keys nodes by alert category — the Table 4 tags, the
	// paper's unit of analysis and the default.
	NodeCategory NodeMode = iota
	// NodeSourceCategory keys nodes by "source/category", separating the
	// same failure signature on different nodes.
	NodeSourceCategory
	// NodeTemplate keys nodes by mined message template (Config.Templates
	// is the pinned vocabulary); bodies matching no template share the
	// UnmatchedNode.
	NodeTemplate
)

// String names the mode for manifests and metrics labels.
func (m NodeMode) String() string {
	switch m {
	case NodeCategory:
		return "category"
	case NodeSourceCategory:
		return "source-category"
	case NodeTemplate:
		return "template"
	default:
		return "unknown"
	}
}

// ParseNodeMode resolves a mode name (the inverse of String).
func ParseNodeMode(s string) (NodeMode, error) {
	switch s {
	case "", "category":
		return NodeCategory, nil
	case "source-category":
		return NodeSourceCategory, nil
	case "template":
		return NodeTemplate, nil
	default:
		return 0, fmt.Errorf("correlate: unknown node mode %q", s)
	}
}

// UnmatchedNode is the template-mode node for bodies matching no
// template in the pinned vocabulary.
const UnmatchedNode = "(unmatched)"

// Config parameterizes a miner. The zero value works: category nodes,
// DefaultWindow, kept entries only.
type Config struct {
	// Window is the co-occurrence window (0 = DefaultWindow). A pair
	// counts iff 0 < later-earlier ≤ Window.
	Window time.Duration
	// NodeMode selects node identity (default NodeCategory).
	NodeMode NodeMode
	// Templates is the pinned template vocabulary for NodeTemplate mode.
	// Pinning it in the config (rather than re-mining on each rebuild)
	// keeps node identities stable across compaction/retention
	// re-baselines — an unstable vocabulary would silently fork nodes.
	Templates []mining.Template
	// IncludeRemoved also counts entries Algorithm 3.1 removed. The
	// default (false) mines the filtered stream — the paper's point is
	// that modeling only becomes tractable after filtering.
	IncludeRemoved bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	return c
}

// Key is the config's identity string, used to decide whether a
// persisted artifact is compatible with a miner's configuration.
func (c Config) Key() string {
	c = c.withDefaults()
	tpl := ""
	if c.NodeMode == NodeTemplate {
		for _, t := range c.Templates {
			tpl += t.String() + "\x00"
		}
	}
	return fmt.Sprintf("w=%d;m=%s;rm=%t;tpl=%q", c.Window.Nanoseconds(), c.NodeMode, c.IncludeRemoved, tpl)
}

// nodeOf maps one entry to its graph node, or ok=false when the entry
// is outside the mined set (removed entries under the default config).
func (c Config) nodeOf(en store.Entry) (string, bool) {
	if !en.Kept && !c.IncludeRemoved {
		return "", false
	}
	switch c.NodeMode {
	case NodeSourceCategory:
		return en.Record.Source + "/" + en.Category, true
	case NodeTemplate:
		for _, t := range c.Templates {
			if t.Matches(en.Record.Body) {
				return t.String(), true
			}
		}
		return UnmatchedNode, true
	default:
		return en.Category, true
	}
}

// edgeKey is one ordered node pair.
type edgeKey struct{ a, b string }

// edgeAccum is the integer edge state: co-occurrence pair count and the
// sum of pair lags in nanoseconds. Int64 addition is commutative and
// associative (even on overflow), which is what makes incremental ==
// batch exact rather than approximate.
type edgeAccum struct {
	Pairs  int64
	LagSum int64
}

// graphState is the maintained integer state: per-node sorted timestamp
// columns plus per-pair accumulators. Both are pure functions of the
// entry multiset (given a config), never of arrival order.
type graphState struct {
	cols  map[string][]int64
	edges map[edgeKey]edgeAccum
}

func newGraphState() *graphState {
	return &graphState{cols: map[string][]int64{}, edges: map[edgeKey]edgeAccum{}}
}

// clone deep-copies the state.
func (s *graphState) clone() graphState {
	c := graphState{cols: make(map[string][]int64, len(s.cols)), edges: make(map[edgeKey]edgeAccum, len(s.edges))}
	for node, col := range s.cols {
		c.cols[node] = append([]int64(nil), col...)
	}
	for k, v := range s.edges {
		c.edges[k] = v
	}
	return c
}

// events returns the total event count across columns.
func (s *graphState) events() int {
	n := 0
	for _, c := range s.cols {
		n += len(c)
	}
	return n
}

// cross counts precedence pairs between two sorted columns: pairs
// (x, y) with x ∈ xs, y ∈ ys and 0 < y-x ≤ window, plus the sum of
// their lags. Two-pointer sweep with a running prefix sum of xs — each
// y's eligible xs form a contiguous window [lo, hi) of xs, so the lag
// sum for y is count*y - sum(xs[lo:hi]).
func cross(xs, ys []int64, window int64) (pairs, lagSum int64) {
	if len(xs) == 0 || len(ys) == 0 {
		return 0, 0
	}
	// prefix[i] = sum of xs[:i].
	prefix := make([]int64, len(xs)+1)
	for i, x := range xs {
		prefix[i+1] = prefix[i] + x
	}
	lo, hi := 0, 0
	for _, y := range ys {
		// xs[lo:] have y - x ≤ window  ⇔  x ≥ y - window.
		for lo < len(xs) && xs[lo] < y-window {
			lo++
		}
		// xs[:hi] have y - x > 0  ⇔  x < y.
		if hi < lo {
			hi = lo
		}
		for hi < len(xs) && xs[hi] < y {
			hi++
		}
		if hi > lo {
			n := int64(hi - lo)
			pairs += n
			lagSum += n*y - (prefix[hi] - prefix[lo])
		}
	}
	return pairs, lagSum
}

// delta is one appended batch reduced to per-node new-event columns
// (each sorted). It is what the miner buffers while a baseline scan is
// in flight.
type delta struct {
	cols map[string][]int64
	n    int // total new events
}

// deltaOf reduces an appended batch to its per-node columns under cfg.
func deltaOf(cfg Config, entries []store.Entry) delta {
	d := delta{cols: map[string][]int64{}}
	for _, en := range entries {
		node, ok := cfg.nodeOf(en)
		if !ok {
			continue
		}
		d.cols[node] = append(d.cols[node], en.Record.Time.UnixNano())
		d.n++
	}
	for node := range d.cols {
		c := d.cols[node]
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	return d
}

// fold applies one delta to the state: every edge accumulator gains the
// cross terms the new events introduce, then the new columns merge in.
// Because cross is bilinear over disjoint unions, the result is exactly
// the state a batch mine over the union would build.
func (s *graphState) fold(d delta, window int64) {
	if d.n == 0 {
		return
	}
	// New-vs-old and new-vs-new cross terms. Existing nodes with no new
	// events only gain pairs against nodes that do have new events.
	dnodes := make([]string, 0, len(d.cols))
	for node := range d.cols {
		dnodes = append(dnodes, node)
	}
	sort.Strings(dnodes)
	snodes := make([]string, 0, len(s.cols))
	for node := range s.cols {
		snodes = append(snodes, node)
	}
	sort.Strings(snodes)

	addEdge := func(a, b string, pairs, lagSum int64) {
		if pairs == 0 {
			return
		}
		k := edgeKey{a, b}
		acc := s.edges[k]
		acc.Pairs += pairs
		acc.LagSum += lagSum
		s.edges[k] = acc
	}
	for _, a := range snodes {
		oldA := s.cols[a]
		for _, b := range dnodes {
			// old A → new B.
			p, l := cross(oldA, d.cols[b], window)
			addEdge(a, b, p, l)
		}
	}
	for _, a := range dnodes {
		newA := d.cols[a]
		for _, b := range snodes {
			// new A → old B.
			p, l := cross(newA, s.cols[b], window)
			addEdge(a, b, p, l)
		}
		for _, b := range dnodes {
			// new A → new B (covers self-edges within the batch).
			p, l := cross(newA, d.cols[b], window)
			addEdge(a, b, p, l)
		}
	}
	for node, col := range d.cols {
		s.cols[node] = view.MergeSorted(s.cols[node], col)
	}
}

// EdgesFromColumns recomputes every pair accumulator from scratch over
// the given columns — the batch reference the incremental fold must
// agree with, and the merge step for cluster views (per-shard edge
// counts do NOT sum across shards, because a pair's two events can land
// on different shards; merged columns recompute exactly).
func EdgesFromColumns(cols map[string][]int64, window time.Duration) map[edgeKey]edgeAccum {
	w := window.Nanoseconds()
	nodes := make([]string, 0, len(cols))
	for node := range cols {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	edges := map[edgeKey]edgeAccum{}
	for _, a := range nodes {
		for _, b := range nodes {
			p, l := cross(cols[a], cols[b], w)
			if p > 0 {
				edges[edgeKey{a, b}] = edgeAccum{Pairs: p, LagSum: l}
			}
		}
	}
	return edges
}

// columnsOf builds the per-node columns for an entry stream under cfg.
// Scan order is canonical (nondecreasing time), so per-node appends stay
// sorted; out-of-order input is sorted defensively.
func columnsOf(cfg Config, entries []store.Entry) map[string][]int64 {
	cols := map[string][]int64{}
	for _, en := range entries {
		node, ok := cfg.nodeOf(en)
		if !ok {
			continue
		}
		cols[node] = append(cols[node], en.Record.Time.UnixNano())
	}
	for node := range cols {
		c := cols[node]
		if !sort.SliceIsSorted(c, func(i, j int) bool { return c[i] < c[j] }) {
			sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		}
	}
	return cols
}

// Node is one graph node in the rendered view.
type Node struct {
	Name string `json:"name"`
	// Count is the node's event count in the mined window of history.
	Count int `json:"count"`
}

// Edge is one rendered correlation edge: B follows A within the window
// Pairs times; Confidence is Pairs over A's event count (how often an A
// event "leads to" a B event, the precursor strength); MeanLag is the
// average A→B delay.
type Edge struct {
	Source string `json:"source"`
	Target string `json:"target"`
	Pairs  int64  `json:"pairs"`
	// SourceCount and TargetCount are the endpoint event counts, so a
	// reader can judge support without a second lookup.
	SourceCount int           `json:"source_count"`
	TargetCount int           `json:"target_count"`
	Confidence  float64       `json:"confidence"`
	MeanLag     time.Duration `json:"mean_lag_ns"`
}

// Graph is the rendered correlation graph: a deterministic pure
// function of the integer state. Edges sort by descending Pairs, then
// Source, then Target; nodes sort by name.
type Graph struct {
	Window time.Duration `json:"window_ns"`
	// NodeMode is the node-identity mode the graph was mined under.
	NodeMode string `json:"node_mode"`
	// Events is the total event count across nodes.
	Events int    `json:"events"`
	Nodes  []Node `json:"nodes"`
	Edges  []Edge `json:"edges"`
}

// render builds the Graph view of a state.
func render(cfg Config, s *graphState) Graph {
	cfg = cfg.withDefaults()
	g := Graph{Window: cfg.Window, NodeMode: cfg.NodeMode.String(), Events: s.events()}
	g.Nodes = make([]Node, 0, len(s.cols))
	for node, col := range s.cols {
		g.Nodes = append(g.Nodes, Node{Name: node, Count: len(col)})
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].Name < g.Nodes[j].Name })
	g.Edges = make([]Edge, 0, len(s.edges))
	for k, acc := range s.edges {
		if acc.Pairs == 0 {
			continue
		}
		e := Edge{
			Source:      k.a,
			Target:      k.b,
			Pairs:       acc.Pairs,
			SourceCount: len(s.cols[k.a]),
			TargetCount: len(s.cols[k.b]),
			MeanLag:     time.Duration(acc.LagSum / acc.Pairs),
		}
		if e.SourceCount > 0 {
			e.Confidence = float64(acc.Pairs) / float64(e.SourceCount)
		}
		g.Edges = append(g.Edges, e)
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i].Pairs != g.Edges[j].Pairs {
			return g.Edges[i].Pairs > g.Edges[j].Pairs
		}
		if g.Edges[i].Source != g.Edges[j].Source {
			return g.Edges[i].Source < g.Edges[j].Source
		}
		return g.Edges[i].Target < g.Edges[j].Target
	})
	return g
}

// GraphFromColumns renders the graph a batch mine over the given
// columns produces — the cluster merge path and the batch reference.
func GraphFromColumns(cfg Config, cols map[string][]int64) Graph {
	cfg = cfg.withDefaults()
	s := &graphState{cols: cols, edges: EdgesFromColumns(cols, cfg.Window)}
	return render(cfg, s)
}

// MineEntries is the from-scratch batch reference: columns then edges
// then render. The differential suites pin the online miner's snapshot
// byte-identical (via JSON) to this after every mutation class.
func MineEntries(cfg Config, entries []store.Entry) Graph {
	cfg = cfg.withDefaults()
	return GraphFromColumns(cfg, columnsOf(cfg, entries))
}

// MineStore batch-mines a store by scanning it — the `logstudy
// correlate` subcommand's path and the rebuild baseline's core.
func MineStore(st Scanner, cfg Config) (Graph, error) {
	cfg = cfg.withDefaults()
	cols, _, err := scanColumns(st, cfg)
	if err != nil {
		return Graph{}, err
	}
	return GraphFromColumns(cfg, cols), nil
}

// Scanner is the store surface batch mining needs. *store.Store
// satisfies it.
type Scanner interface {
	Scan(f store.Filter, fn func(store.Entry) error) (store.ScanStats, error)
}

// scanColumns streams a store's entries into per-node columns and
// returns them with the scan's sequence number (ScanStats.Seq).
func scanColumns(st Scanner, cfg Config) (map[string][]int64, uint64, error) {
	cols := map[string][]int64{}
	stats, err := st.Scan(store.Filter{}, func(en store.Entry) error {
		node, ok := cfg.nodeOf(en)
		if !ok {
			return nil
		}
		cols[node] = append(cols[node], en.Record.Time.UnixNano())
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	// Canonical scan order is nondecreasing in time, but be defensive:
	// the state's invariants all assume sorted columns.
	for node := range cols {
		c := cols[node]
		if !sort.SliceIsSorted(c, func(i, j int) bool { return c[i] < c[j] }) {
			sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		}
	}
	return cols, stats.Seq, nil
}

// FilterEdges applies the /api/correlations query knobs to a rendered
// edge list: minimum pair support, minimum confidence, and an optional
// node whose neighborhood (edges touching it) is selected. Order is
// preserved.
func FilterEdges(edges []Edge, minSupport int64, minConfidence float64, node string) []Edge {
	out := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.Pairs < minSupport || e.Confidence < minConfidence {
			continue
		}
		if node != "" && e.Source != node && e.Target != node {
			continue
		}
		out = append(out, e)
	}
	return out
}

// MergeColumns merges per-shard column snapshots into the union's
// columns — the cluster graph is GraphFromColumns over the result,
// which is provably the single-store batch mine of the union (pair
// counting over merged columns is exactly pair counting over the union
// entry set; per-shard edge counts would miss cross-shard pairs).
func MergeColumns(parts []map[string][]int64) map[string][]int64 {
	out := map[string][]int64{}
	for _, p := range parts {
		for node, col := range p {
			out[node] = view.MergeSorted(out[node], col)
		}
	}
	return out
}
