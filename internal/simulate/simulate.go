// Package simulate generates synthetic system logs for the five
// supercomputers, calibrated to the published statistics of the paper
// (Tables 2-6) and reproducing the structural phenomena its figures
// document: per-source skew, regime shifts, redundant storm reporting,
// implicit cross-category correlation, spatially correlated bursts,
// message loss, and corruption.
//
// The real logs are not public ("Our log data are not available for
// public study primarily because we cannot remove all sensitive
// information with sufficient confidence", Section 3.2.1), so this
// generator is the substrate substitution documented in DESIGN.md: every
// statistical property the paper measures is an explicit, parameterized
// process here, and the full analysis pipeline (parse → tag → filter →
// analyze) runs on the generated text exactly as it would on the
// originals.
package simulate

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/cluster"
	"whatsupersay/internal/corrupt"
	"whatsupersay/internal/ddn"
	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
	"whatsupersay/internal/opcontext"
	"whatsupersay/internal/parallel"
	"whatsupersay/internal/rasdb"
	"whatsupersay/internal/syslogng"
)

// DefaultScale is the default volume scale: one-thousandth of the paper's
// message volume, which keeps the largest system (Spirit, 272 M messages)
// at a few hundred thousand synthetic lines. Incident (failure) counts
// are *not* scaled — they are small and carry the structure — so filtered
// alert counts match the paper at any scale while raw counts scale
// linearly.
const DefaultScale = 0.001

// Config parameterizes one synthetic log.
type Config struct {
	// System selects the machine.
	System logrec.System
	// Scale multiplies message volume (default DefaultScale). Must be in
	// (0, 1].
	Scale float64
	// AlertScale, when non-zero, overrides Scale for alert volume only.
	// Experiments that need full-fidelity alert structure on a system
	// with few alerts (e.g. Liberty's 2,452) set AlertScale to 1 while
	// keeping background volume scaled down.
	AlertScale float64
	// Seed makes the log reproducible. The same (System, Scale, Seed)
	// always yields byte-identical output, regardless of Workers.
	Seed int64
	// Workers bounds the goroutines used for event synthesis, rendering,
	// and re-parsing (0 = GOMAXPROCS). It is a throughput knob only:
	// every shard draws from its own deterministically derived RNG, so
	// the output is byte-identical at any worker count.
	Workers int
	// CorruptionProb is the per-line damage probability (default 2e-4,
	// roughly the prevalence the paper describes as routine but rare).
	CorruptionProb float64
	// DisableTransportLoss turns off the UDP loss model, for experiments
	// that need exact counts.
	DisableTransportLoss bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = DefaultScale
	}
	if c.CorruptionProb == 0 {
		c.CorruptionProb = 2e-4
	}
	return c
}

// AlertTruth is the ground truth for one generated line that carried an
// alert.
type AlertTruth struct {
	// Category is the alert category name.
	Category string
	// Incident is the ground-truth failure the alert reports.
	Incident int64
}

// Incident is one ground-truth failure.
type Incident struct {
	ID       int64
	Category string
	Time     time.Time
	// Nodes are the sources that reported the incident.
	Nodes []string
}

// Truth is the generator's ground truth for one log.
type Truth struct {
	// Emitted counts messages generated before transport.
	Emitted int
	// Dropped counts messages lost in the UDP relay.
	Dropped int
	// CorruptedLines counts lines damaged by the injector.
	CorruptedLines int
	// Incidents lists every ground-truth failure, in time order.
	Incidents []Incident
	// AlertAt maps a final line index (== record Seq) to its alert
	// truth. Lines absent from the map are background messages.
	AlertAt map[uint64]AlertTruth
}

// Output is one generated log with its ground truth.
type Output struct {
	Config   Config
	Machine  *cluster.Machine
	Start    time.Time
	End      time.Time
	Lines    []string
	Records  []logrec.Record
	Truth    Truth
	Timeline *opcontext.Timeline
}

// TotalBytes returns the byte size of the log text including newlines,
// the "Size" column of Table 2.
func (o *Output) TotalBytes() int64 {
	var n int64
	for _, l := range o.Lines {
		n += int64(len(l)) + 1
	}
	return n
}

// event is one generated message before rendering.
type event struct {
	t        time.Time
	node     string
	cat      *catalog.Category // nil for background
	incident int64
	severity logrec.Severity
	facility string
	program  string
	body     string
	dialect  catalog.Dialect
}

// generator accumulates events for one system.
type generator struct {
	cfg      Config
	m        *cluster.Machine
	rng      *rand.Rand
	start    time.Time
	end      time.Time
	events   []event
	truth    Truth
	timeline *opcontext.Timeline
	nextInc  int64
}

// newIncident registers a ground-truth failure and returns its id.
func (g *generator) newIncident(cat string, t time.Time, nodes ...string) int64 {
	g.nextInc++
	g.truth.Incidents = append(g.truth.Incidents, Incident{
		ID: g.nextInc, Category: cat, Time: t, Nodes: nodes,
	})
	return g.nextInc
}

// emitAlert appends one alert message event.
func (g *generator) emitAlert(t time.Time, node string, c *catalog.Category, incident int64) {
	g.events = append(g.events, event{
		t: t, node: node, cat: c, incident: incident,
		severity: c.Severity, facility: c.Facility, program: c.Program,
		body: c.Gen(g.rng), dialect: c.Dialect,
	})
}

// emitBackground appends one benign message event.
func (g *generator) emitBackground(t time.Time, node string, sev logrec.Severity, facility, program, body string, dialect catalog.Dialect) {
	g.events = append(g.events, event{
		t: t, node: node, severity: sev, facility: facility,
		program: program, body: body, dialect: dialect,
	})
}

// uniformTime draws a time uniformly from the window.
func (g *generator) uniformTime() time.Time {
	span := g.end.Sub(g.start)
	return g.start.Add(time.Duration(g.rng.Int63n(int64(span))))
}

// uniformTimeIn draws a time uniformly from [from, to).
func (g *generator) uniformTimeIn(from, to time.Time) time.Time {
	span := to.Sub(from)
	if span <= 0 {
		return from
	}
	return from.Add(time.Duration(g.rng.Int63n(int64(span))))
}

// scaled converts a paper count to this run's count, with a floor of
// minKeep so structurally important small counts survive scaling.
func (g *generator) scaled(paperCount, minKeep int) int {
	n := int(float64(paperCount)*g.cfg.Scale + 0.5)
	if n < minKeep {
		n = minKeep
	}
	return n
}

// Generate produces the synthetic log for one system.
func Generate(cfg Config) (*Output, error) {
	sp := obs.Default.StartSpan("generate")
	defer sp.End()
	cfg = cfg.withDefaults()
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return nil, fmt.Errorf("simulate: scale %v out of range (0,1]", cfg.Scale)
	}
	m, err := cluster.New(cfg.System)
	if err != nil {
		return nil, err
	}
	g := &generator{
		cfg:   cfg,
		m:     m,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.System)*0x9e3779b9)),
		start: m.LogStart,
		end:   m.LogEnd(),
	}
	g.truth.AlertAt = make(map[uint64]AlertTruth)
	g.timeline = g.fork("timeline").buildTimeline()

	// Synthesis fans out across workers in two waves — alert categories,
	// then background shards (whose BG/L budgets are ratios of the
	// generated alert counts) — each task on its own derived RNG, merged
	// in task order. See shard.go for the determinism contract.
	g.runTasks(g.alertTasks(), cfg.Workers)
	g.runTasks(g.backgroundTasks(), cfg.Workers)

	sort.SliceStable(g.events, func(i, j int) bool { return g.events[i].t.Before(g.events[j].t) })
	g.truth.Emitted = len(g.events)

	// Transport and corruption stay serial on the master RNG: both are
	// order-dependent samples over the whole merged stream.
	events := g.applyTransport()
	if cfg.System == logrec.BlueGeneL {
		// The BG/L JTAG polling reorder.
		rasdb.Collect(rasdb.DefaultMailbox(), events, func(e event) (time.Time, string) { return e.t, e.node })
	}

	opts := parallel.Options{Workers: cfg.Workers}
	lines, truths := g.render(events, opts)
	if cfg.CorruptionProb > 0 {
		res := corrupt.DefaultInjector(cfg.CorruptionProb).Apply(g.rng, lines)
		g.truth.CorruptedLines = res.Total()
	}

	records := parseLines(lines, cfg.System, g.start)
	for i, tr := range truths {
		if tr != nil {
			g.truth.AlertAt[uint64(i)] = *tr
		}
	}

	sort.Slice(g.truth.Incidents, func(i, j int) bool {
		return g.truth.Incidents[i].Time.Before(g.truth.Incidents[j].Time)
	})
	obs.Default.Counter("simulate_lines_total").Add(int64(len(lines)))
	obs.Default.Counter("simulate_dropped_total").Add(int64(g.truth.Dropped))
	return &Output{
		Config:  cfg,
		Machine: m,
		Start:   g.start, End: g.end,
		Lines: lines, Records: records,
		Truth:    g.truth,
		Timeline: g.timeline,
	}, nil
}

// applyTransport runs syslog-dialect events through the lossy UDP relay;
// RAS and SMW-event dialects ride reliable paths.
func (g *generator) applyTransport() []event {
	if g.cfg.DisableTransportLoss {
		return g.events
	}
	kept, dropped := syslogng.Deliver(syslogng.DefaultRelay(logServer(g.cfg.System)), g.rng, g.events,
		func(e event) (int64, bool) { return e.t.Unix(), e.dialect == catalog.DialectSyslog })
	g.truth.Dropped += dropped
	return kept
}

// logServer names the logging server of Section 3.1 for each system.
func logServer(sys logrec.System) string {
	switch sys {
	case logrec.Thunderbird:
		return "tbird-admin1"
	case logrec.Spirit:
		return "sadmin2"
	case logrec.Liberty:
		return "ladmin2"
	case logrec.RedStorm:
		return "smw0"
	default:
		return "bglsn0"
	}
}

// render converts events to wire lines, preserving alert truth per line.
// Rendering is a pure per-event function, so it fills the output slices
// chunk-parallel in place. Each chunk reuses one scratch buffer through
// the dialects' append renderers and carves its truth pointers from one
// chunk-local backing array, so the steady-state cost is one allocation
// per line (the line's string) instead of three to five.
func (g *generator) render(events []event, opts parallel.Options) ([]string, []*AlertTruth) {
	lines := make([]string, len(events))
	truths := make([]*AlertTruth, len(events))
	withPri := g.cfg.System == logrec.RedStorm
	parallel.Do(len(events), opts, func(lo, hi int) {
		var buf []byte
		// Capacity hi-lo guarantees no reallocation, so the pointers
		// handed out below stay valid.
		vals := make([]AlertTruth, 0, hi-lo)
		for i := lo; i < hi; i++ {
			e := events[i]
			rec := logrec.Record{
				Time: e.t, System: g.cfg.System, Source: e.node,
				Severity: e.severity, Facility: e.facility,
				Program: e.program, Body: e.body,
			}
			buf = buf[:0]
			switch e.dialect {
			case catalog.DialectRAS:
				buf = rasdb.AppendLine(buf, rec)
			case catalog.DialectEvent:
				buf = ddn.AppendEventLine(buf, rec)
			default:
				buf = syslogng.AppendLine(buf, rec, withPri)
			}
			lines[i] = string(buf)
			if e.cat != nil {
				vals = append(vals, AlertTruth{Category: e.cat.Name, Incident: e.incident})
				truths[i] = &vals[len(vals)-1]
			}
		}
	})
	return lines, truths
}

// parseLines parses wire lines back into records through the ingest
// reader's per-line step — the same dialect sniffing and year-rollover
// inference the read loop applies (Spirit's 558-day window crosses two
// New Years). The lines are not re-framed, so a corrupted line with an
// embedded newline stays one record.
func parseLines(lines []string, sys logrec.System, start time.Time) []logrec.Record {
	rd := ingest.Reader{System: sys, Start: start}
	years := ingest.NewYearTracker(start)
	recs := make([]logrec.Record, len(lines))
	for i, line := range lines {
		recs[i] = rd.ParseLine(line, years)
		recs[i].Seq = uint64(i)
	}
	return recs
}
