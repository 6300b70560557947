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
// entries. The maintained state is per-node timestamp columns (sorted
// Unix nanoseconds) — a pure function of the entry multiset,
// order-independent by construction — and folding an appended batch is
// a merge of its columns into them. Edges are computed when the graph
// is read: per ordered node pair, the co-occurrence pair count and lag
// sum over the two columns (EdgesFromColumns), which is also the merge
// step across shards, where per-shard edge counts would miss the pairs
// whose two events landed on different shards.
//
// A pair (ta, tb) counts for edge A→B iff 0 < tb-ta ≤ Window: strict
// precedence, so equal timestamps contribute nothing and tie order
// cannot perturb the graph. Confidence and mean lag are derived from
// the integers only at render time. Differential tests pin the
// incremental state equal to the batch mine after every mutation class.
package correlate

import (
	"fmt"
	"slices"
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

// edgeAccum is one edge's integer state: co-occurrence pair count and
// the sum of pair lags in nanoseconds.
type edgeAccum struct {
	Pairs  int64
	LagSum int64
}

// columns is the miner's state and each appended batch's delta: per-node
// sorted timestamp columns. Nodes with no events are absent.
type columns map[string][]int64

// add appends one entry's timestamp to its node's column, if cfg mines it.
func (c Config) add(cols columns, en store.Entry) {
	if node, ok := c.nodeOf(en); ok {
		cols[node] = append(cols[node], en.Record.Time.UnixNano())
	}
}

// sorted sorts every column in place: a scan delivers time order, an
// append batch arrival order, and merge needs both sorted.
func (cols columns) sorted() columns {
	for _, c := range cols {
		slices.Sort(c)
	}
	return cols
}

// merge folds d into cols: a disjoint multiset union, so folding batches
// in any order yields the columns of their union.
func (cols columns) merge(d columns) {
	for node, col := range d {
		cols[node] = view.MergeSorted(cols[node], col)
	}
}

// clone deep-copies the columns.
func (cols columns) clone() columns {
	c := make(columns, len(cols))
	for node, col := range cols {
		c[node] = slices.Clone(col)
	}
	return c
}

// events returns the total event count across columns.
func (cols columns) events() int {
	n := 0
	for _, c := range cols {
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

// EdgesFromColumns computes every pair accumulator over the given
// columns — the one edge computation, on every read path. Per-shard
// edge counts do NOT sum across shards, because a pair's two events can
// land on different shards; merged columns compute them exactly.
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
func columnsOf(cfg Config, entries []store.Entry) columns {
	cols := columns{}
	for _, en := range entries {
		cfg.add(cols, en)
	}
	return cols.sorted()
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

// GraphFromColumns renders the graph of the given columns: edges
// computed over them, then sorted. It is the one read path — the
// miner's snapshot, the cluster's merged view and the batch reference.
func GraphFromColumns(cfg Config, cols map[string][]int64) Graph {
	cfg = cfg.withDefaults()
	edges := EdgesFromColumns(cols, cfg.Window)
	g := Graph{Window: cfg.Window, NodeMode: cfg.NodeMode.String(), Events: columns(cols).events()}
	g.Nodes = make([]Node, 0, len(cols))
	for node, col := range cols {
		g.Nodes = append(g.Nodes, Node{Name: node, Count: len(col)})
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].Name < g.Nodes[j].Name })
	g.Edges = make([]Edge, 0, len(edges))
	for k, acc := range edges {
		e := Edge{
			Source:      k.a,
			Target:      k.b,
			Pairs:       acc.Pairs,
			SourceCount: len(cols[k.a]),
			TargetCount: len(cols[k.b]),
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
func scanColumns(st Scanner, cfg Config) (columns, uint64, error) {
	cols := columns{}
	stats, err := st.Scan(store.Filter{}, func(en store.Entry) error {
		cfg.add(cols, en)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return cols.sorted(), stats.Seq, nil
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
	out := columns{}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}
