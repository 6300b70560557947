package correlate

import (
	"sort"
	"sync"
	"time"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
	"whatsupersay/internal/predict"
	"whatsupersay/internal/tag"
)

// Live prediction: the graph's edges become precursor predictors
// (predict.GraphPrecursor), entered into the AutoEnsemble candidate
// pool next to the rate/EWMA baselines, and the whole pool is trained
// and scored against the miner's own event stream — train on the
// earlier fraction, hold out the rest, keep one champion per category.
// The report is a *pure function* of the miner's integer state: the
// event stream is reconstructed from the timestamp columns (predictors
// only read a category name and a timestamp), ties are broken by node
// name so duplicate timestamps cannot perturb the output, and "now" is
// the newest event in the stream — so the sharded view (merged columns
// through the same function) is identical to the single-store view by
// construction, and differential tests can pin it.

// Prediction telemetry.
var (
	mPredictEvals     = obs.Default.Counter("predict_evaluations_total")
	gPredictChampions = obs.Default.Gauge("predict_champions")
	gPredictWarnings  = obs.Default.Gauge("predict_active_warnings")
)

// Default prediction-evaluation parameters. Horizon and lead mirror the
// study's scale: cascades play out over minutes to an hour.
const (
	DefaultHorizon = time.Hour
	DefaultMinLead = time.Minute
	// DefaultSplitFrac is the train fraction of the stream's time span.
	DefaultSplitFrac = 0.7
	// DefaultMinF1 is the champion floor: categories whose best training
	// F1 is below it are reported unpredictable rather than guessed at.
	DefaultMinF1 = 0.2
	// DefaultMinEdgeConfidence gates which graph edges become candidate
	// predictors — a weak edge is noise, not a precursor.
	DefaultMinEdgeConfidence = 0.25
	// DefaultMinEdgeSupport is the matching pair-count gate.
	DefaultMinEdgeSupport = 3
)

// PredictOptions tune the live evaluation. Zero values take defaults.
type PredictOptions struct {
	Horizon           time.Duration `json:"horizon_ns"`
	MinLead           time.Duration `json:"min_lead_ns"`
	SplitFrac         float64       `json:"split_frac"`
	MinF1             float64       `json:"min_f1"`
	MinEdgeConfidence float64       `json:"min_edge_confidence"`
	MinEdgeSupport    int64         `json:"min_edge_support"`
}

func (o PredictOptions) withDefaults() PredictOptions {
	if o.Horizon <= 0 {
		o.Horizon = DefaultHorizon
	}
	if o.MinLead <= 0 {
		o.MinLead = DefaultMinLead
	}
	if o.SplitFrac <= 0 || o.SplitFrac >= 1 {
		o.SplitFrac = DefaultSplitFrac
	}
	if o.MinF1 <= 0 {
		o.MinF1 = DefaultMinF1
	}
	if o.MinEdgeConfidence <= 0 {
		o.MinEdgeConfidence = DefaultMinEdgeConfidence
	}
	if o.MinEdgeSupport <= 0 {
		o.MinEdgeSupport = DefaultMinEdgeSupport
	}
	return o
}

// ScoreRow is one category's champion on the scoreboard.
type ScoreRow struct {
	Category string `json:"category"`
	// Predictor is the champion's label (e.g. "graph(GM_PAR)").
	Predictor string `json:"predictor"`
	// FromGraph marks champions derived from the correlation graph.
	FromGraph bool `json:"from_graph,omitempty"`
	// Lag is the mined typical precursor lag for graph champions — the
	// expected lead time a warning gives (zero for non-graph champions).
	Lag            time.Duration `json:"lag_ns,omitempty"`
	TrainPrecision float64       `json:"train_precision"`
	TrainRecall    float64       `json:"train_recall"`
	TrainF1        float64       `json:"train_f1"`
	Precision      float64       `json:"precision"`
	Recall         float64       `json:"recall"`
	F1             float64       `json:"f1"`
}

// ActiveWarning is one current warning: an event of Category is
// expected within the horizon after Time.
type ActiveWarning struct {
	Time      time.Time `json:"time"`
	Category  string    `json:"category"`
	Predictor string    `json:"predictor"`
}

// PredictionReport is the /api/predict payload.
type PredictionReport struct {
	// AsOf is the newest event in the evaluated stream — the report's
	// deterministic "now".
	AsOf    time.Time     `json:"as_of"`
	Horizon time.Duration `json:"horizon_ns"`
	Events  int           `json:"events"`
	// Categories is how many event types were evaluated; Scoreboard
	// holds the ones with a champion.
	Categories int        `json:"categories"`
	Scoreboard []ScoreRow `json:"scoreboard"`
	// Warnings are the champions' warnings issued within the final
	// horizon before AsOf — the "expected soon" set.
	Warnings []ActiveWarning `json:"warnings"`
}

// GraphEdgesForPredict converts mined edges into predictor-pool form,
// applying the support/confidence gates and dropping self-edges (a
// category "predicting" itself with zero lead is degenerate, the same
// rule AutoSelect applies to plain Precursors).
func GraphEdgesForPredict(g Graph, minSupport int64, minConfidence float64) []predict.GraphEdge {
	out := make([]predict.GraphEdge, 0, len(g.Edges))
	for _, e := range g.Edges {
		if e.Source == e.Target || e.Pairs < minSupport || e.Confidence < minConfidence {
			continue
		}
		out = append(out, predict.GraphEdge{
			Precursor:  e.Source,
			Target:     e.Target,
			Confidence: e.Confidence,
			Lag:        e.MeanLag,
		})
	}
	return out
}

// alertsFromColumns reconstructs the pseudo alert stream predictors
// consume: one alert per (node, timestamp), sorted by time with node
// name breaking ties so duplicate timestamps are deterministic.
// Predictors read only Category.Name and Record.Time.
func alertsFromColumns(cols map[string][]int64) []tag.Alert {
	n := 0
	for _, col := range cols {
		n += len(col)
	}
	alerts := make([]tag.Alert, 0, n)
	nodes := make([]string, 0, len(cols))
	for node := range cols {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	cats := make(map[string]*catalog.Category, len(nodes))
	for _, node := range nodes {
		cats[node] = &catalog.Category{Name: node}
	}
	for _, node := range nodes {
		for _, ts := range cols[node] {
			alerts = append(alerts, tag.Alert{
				Record:   logrec.Record{Time: time.Unix(0, ts).UTC()},
				Category: cats[node],
			})
		}
	}
	sort.SliceStable(alerts, func(i, j int) bool {
		ti, tj := alerts[i].Record.Time, alerts[j].Record.Time
		if !ti.Equal(tj) {
			return ti.Before(tj)
		}
		return alerts[i].Category.Name < alerts[j].Category.Name
	})
	return alerts
}

// PredictFromColumns runs the full evaluation over one column set and
// its mined graph — the pure function both the single-store and the
// merged cluster views call.
func PredictFromColumns(cfg Config, cols map[string][]int64, opts PredictOptions) PredictionReport {
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()
	mPredictEvals.Add(1)

	g := GraphFromColumns(cfg, cols)
	alerts := alertsFromColumns(cols)
	rep := PredictionReport{Horizon: opts.Horizon, Events: len(alerts), Categories: len(cols)}
	if len(alerts) == 0 {
		rep.Scoreboard = []ScoreRow{}
		rep.Warnings = []ActiveWarning{}
		return rep
	}
	rep.AsOf = alerts[len(alerts)-1].Record.Time

	targets := make([]string, 0, len(cols))
	for node := range cols {
		targets = append(targets, node)
	}
	sort.Strings(targets)

	edges := GraphEdgesForPredict(g, opts.MinEdgeSupport, opts.MinEdgeConfidence)
	candidates := []predict.Candidate{
		{Predictor: predict.RateThreshold{Window: 10 * time.Minute, Count: 3, Cooldown: time.Hour}, Label: "rate-threshold"},
		{Predictor: predict.DefaultEWMA(), Label: "ewma"},
	}
	candidates = append(candidates, predict.GraphCandidates(edges)...)

	sels := predict.AutoSelect(alerts, targets, candidates, opts.SplitFrac, opts.MinLead, opts.Horizon, opts.MinF1)
	rep.Scoreboard = make([]ScoreRow, 0, len(sels))
	labels := make(map[string]string, len(sels))
	for _, s := range sels {
		row := ScoreRow{
			Category:       s.Category,
			Predictor:      s.Label,
			TrainPrecision: s.Train.Precision(),
			TrainRecall:    s.Train.Recall(),
			TrainF1:        f1Of(s.Train),
			Precision:      s.Holdout.Precision(),
			Recall:         s.Holdout.Recall(),
			F1:             f1Of(s.Holdout),
		}
		if gp, ok := s.Predictor.(predict.GraphPrecursor); ok {
			row.FromGraph = true
			row.Lag = gp.Lag
		}
		labels[s.Category] = s.Label
		rep.Scoreboard = append(rep.Scoreboard, row)
	}

	// Current warnings: run the champion ensemble over the full stream
	// and keep warnings issued within the final horizon before AsOf.
	ens := predict.ToEnsemble(sels)
	cutoff := rep.AsOf.Add(-opts.Horizon)
	rep.Warnings = []ActiveWarning{}
	for _, w := range ens.Predict(alerts) {
		if w.Time.Before(cutoff) || w.Time.After(rep.AsOf) {
			continue
		}
		rep.Warnings = append(rep.Warnings, ActiveWarning{
			Time: w.Time, Category: w.Category, Predictor: labels[w.Category],
		})
	}
	gPredictChampions.Set(float64(len(rep.Scoreboard)))
	gPredictWarnings.Set(float64(len(rep.Warnings)))
	return rep
}

// PredictStore runs the full evaluation over a store scan — the batch
// counterpart of LiveService, used by the correlate subcommand.
func PredictStore(st Scanner, cfg Config, opts PredictOptions) (PredictionReport, error) {
	cfg = cfg.withDefaults()
	cols, _, err := scanColumns(st, cfg)
	if err != nil {
		return PredictionReport{}, err
	}
	return PredictFromColumns(cfg, cols, opts), nil
}

// f1Of mirrors predict's selection criterion for reporting.
func f1Of(e predict.Eval) float64 {
	p, r := e.Precision(), e.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// LiveService serves prediction reports over a miner, recomputing only
// when the miner's state version moves — the evaluation is O(events)
// and the answer is pure, so version-keyed caching is exact, not a
// staleness tradeoff.
type LiveService struct {
	m    *Miner
	opts PredictOptions

	mu      sync.Mutex
	version uint64
	cached  *PredictionReport
}

// NewLiveService wraps a miner. Zero options take defaults.
func NewLiveService(m *Miner, opts PredictOptions) *LiveService {
	return &LiveService{m: m, opts: opts.withDefaults()}
}

// Options returns the (defaulted) evaluation options.
func (s *LiveService) Options() PredictOptions { return s.opts }

// Report returns the current prediction report, recomputed only when
// the miner's state has changed since the last call.
func (s *LiveService) Report() PredictionReport {
	cols, version := s.m.ColumnsSnapshot()
	s.mu.Lock()
	if s.cached != nil && s.version == version {
		rep := *s.cached
		s.mu.Unlock()
		return rep
	}
	s.mu.Unlock()

	rep := PredictFromColumns(s.m.cfg, cols, s.opts)
	s.mu.Lock()
	s.version = version
	s.cached = &rep
	s.mu.Unlock()
	return rep
}
