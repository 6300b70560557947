// Command logstudy drives the reproduction of "What Supercomputers Say: A
// Study of Five System Logs" (DSN 2007): it generates calibrated synthetic
// logs for the five machines, runs the tag → filter → analyze pipeline,
// and prints each of the paper's tables and figures.
//
// Usage:
//
//	logstudy tables  [-t 1|2|3|4|5|6|all] [-scale S] [-seed N]
//	logstudy figures [-f 1|2a|2b|3|4|5|6|all] [-scale S] [-seed N] [-adaptive]
//	logstudy generate -system bgl|tbird|redstorm|spirit|liberty [-scale S] [-seed N] [-o FILE]
//	logstudy compare-filters [-system NAME] [-scale S] [-seed N] [-adaptive]
//	logstudy analyze -in FILE [-system NAME] [-rules FILE]
//	logstudy ingest -in FILE [-system NAME] [-resume CKPT] [-max-errors N] [-quarantine FILE] [-inject SPEC]
//	logstudy anonymize -in FILE -key K [-o FILE]
//	logstudy discover [-system NAME] [-window D] [-min N]
//	logstudy mine [-system NAME] [-support N] [-top N]
//	logstudy jobs [-system NAME] [-category CAT] [-checkpoint D]
//	logstudy rules [-system NAME] [-export]
//	logstudy build-store -dir DIR [-system NAME] [-scale S] [-seed N] [-in FILE] [-compact]
//	logstudy serve -dir DIR [-addr ADDR] [-system NAME] [-shards N] [-max-body N] [-cache N] [-compact-every D] [-retention D] [-graphite ADDR]
//	logstudy loadgen [-target URL | -shards N] [-system NAME] [-ingesters K] [-queriers M] [-ramp-steps N] [-o FILE]
//	logstudy compact -dir DIR [-target N] [-retention D]
//	logstudy correlate -dir DIR [-window D] [-nodes MODE] [-min-support N] [-min-confidence P] [-top N] [-json] [-predict]
//
// Exit status is 0 on success (including -h/help), 1 on a runtime
// failure, and 2 on a command-line usage error.
//
// Every subcommand additionally accepts the global observability flags
// (before or after the subcommand name):
//
//	-metrics FILE  write a JSON snapshot of all pipeline telemetry at exit
//	-http ADDR     serve Prometheus /metrics and /debug/pprof on ADDR
//	-v             print the per-stage latency summary table at exit
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"whatsupersay/internal/anonymize"
	"whatsupersay/internal/catalog"
	"whatsupersay/internal/cluster"
	"whatsupersay/internal/core"
	"whatsupersay/internal/filter"
	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/mining"
	"whatsupersay/internal/obs"
	"whatsupersay/internal/report"
	"whatsupersay/internal/rules"
	"whatsupersay/internal/simulate"
	"whatsupersay/internal/tag"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain maps a run's outcome onto the process exit code contract
// shared by every subcommand: 0 on success (including -h/help), 1 on a
// runtime failure, 2 on a command-line usage mistake. Errors always
// land on errw (stderr), never stdout.
func runMain(args []string, out, errw io.Writer) int {
	err := run(args, out)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errBadFlags):
		// The flag package already printed the specific problem.
		return 2
	default:
		fmt.Fprintln(errw, "logstudy:", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
}

// errBadFlags marks a flag-parse failure the flag package has already
// reported to stderr; runMain exits 2 without printing it again.
var errBadFlags = errors.New("invalid flags")

// usageError is a command-line usage mistake (missing subcommand,
// missing required flag): printed to stderr and exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

// parseFlags normalizes the three outcomes every subcommand's flag
// parse shares: -h/-help prints the flag help and succeeds (exit 0),
// a bad flag becomes errBadFlags (exit 2), and success proceeds.
func parseFlags(fs *flag.FlagSet, args []string) (help bool, err error) {
	switch err := fs.Parse(args); {
	case err == nil:
		return false, nil
	case errors.Is(err, flag.ErrHelp):
		return true, nil
	default:
		return false, fmt.Errorf("%s: %w", fs.Name(), errBadFlags)
	}
}

// globalOpts are the observability flags every subcommand accepts,
// written before or after the subcommand name.
type globalOpts struct {
	metricsPath string // -metrics: JSON telemetry snapshot at exit
	httpAddr    string // -http: serve /metrics (Prometheus) and /debug/pprof
	verbose     bool   // -v: print the per-stage summary table at exit
}

// extractGlobal strips the global observability flags out of args,
// leaving the subcommand and its own flags untouched. Both "-flag value"
// and "-flag=value" spellings are accepted.
func extractGlobal(args []string) ([]string, globalOpts, error) {
	var g globalOpts
	var rest []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			rest = append(rest, a)
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
		switch name {
		case "metrics", "http":
			if !hasVal {
				i++
				if i >= len(args) {
					return nil, g, usageError(fmt.Sprintf("-%s requires a value", name))
				}
				val = args[i]
			}
			if name == "metrics" {
				g.metricsPath = val
			} else {
				g.httpAddr = val
			}
		case "v":
			g.verbose = true
		default:
			rest = append(rest, a)
		}
	}
	return rest, g, nil
}

func run(args []string, w io.Writer) error {
	args, g, err := extractGlobal(args)
	if err != nil {
		return err
	}
	if g.httpAddr != "" {
		addr, stop, err := obs.Serve(g.httpAddr, obs.Default)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(w, "serving /metrics and /debug/pprof on http://%s/\n", addr)
	}
	err = dispatch(args, w)
	if g.verbose {
		fmt.Fprintln(w)
		obs.Default.WriteSummary(w)
	}
	if g.metricsPath != "" {
		if werr := obs.Default.WriteJSONFile(g.metricsPath); werr != nil {
			if err == nil {
				err = werr
			}
		} else {
			fmt.Fprintf(w, "telemetry snapshot written to %s\n", g.metricsPath)
		}
	}
	return err
}

func dispatch(args []string, w io.Writer) error {
	if len(args) == 0 {
		usage(w)
		return usageError("a subcommand is required")
	}
	switch args[0] {
	case "tables":
		return runTables(args[1:], w)
	case "figures":
		return runFigures(args[1:], w)
	case "generate":
		return runGenerate(args[1:], w)
	case "compare-filters":
		return runCompareFilters(args[1:], w)
	case "analyze":
		return runAnalyze(args[1:], w)
	case "ingest":
		return runIngest(args[1:], w)
	case "discover":
		return runDiscover(args[1:], w)
	case "mine":
		return runMine(args[1:], w)
	case "jobs":
		return runJobs(args[1:], w)
	case "sweep":
		return runSweep(args[1:], w)
	case "anonymize":
		return runAnonymize(args[1:], w)
	case "rules":
		return runRules(args[1:], w)
	case "build-store":
		return runBuildStore(args[1:], w)
	case "serve":
		return runServe(args[1:], w)
	case "loadgen":
		return runLoadgen(args[1:], w)
	case "compact":
		return runCompact(args[1:], w)
	case "correlate":
		return runCorrelate(args[1:], w)
	case "help", "-h", "--help":
		usage(w)
		return nil
	default:
		usage(w)
		return usageError(fmt.Sprintf("unknown subcommand %q", args[0]))
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `logstudy - reproduce "What Supercomputers Say" (DSN 2007)

subcommands:
  tables           print Tables 1-6 (measured from synthetic logs)
  figures          print Figures 2a, 2b, 3, 4, 5, 6
  generate         emit one system's synthetic log text
  compare-filters  simultaneous vs serial filtering (Section 3.3.2)
  analyze          ingest a log file: tag, filter, summarize
  ingest           fault-tolerant streaming ingestion: retries, quarantine,
                   checkpoint/resume, optional chaos injection (-inject)
  anonymize        pseudonymize a log file (usernames, IPs) and audit it
  discover         rank categories by spatial correlation and burstiness (Section 4)
  mine             discover message templates (SLCT-style) and score vs expert tags
  jobs             workload overlay: killed jobs, lost node-hours, RAS metrics
  sweep            filtering-threshold sensitivity (the paper fixes T=5s)
  rules            print the expert tagging rules (awk-style or file format)
  build-store      run the pipeline once and persist tagged + filtered
                   alerts as a segment-indexed store (-dir)
  serve            answer /api/query, /api/aggregate, /api/segments, and
                   POST /api/ingest over a store, without re-running the
                   pipeline
  loadgen          drive a live serve endpoint (or a self-hosted one) with
                   concurrent ingesters and queriers on a seeded plan:
                   latency quantiles, throughput, and the saturation knee
                   (-o FILE writes the run's report as JSON)
  compact          merge a store's small segments into large sorted ones
                   and apply the retention horizon (-dir)
  correlate        mine the event-correlation graph from a store in one
                   scan: which categories precede which, with what
                   confidence and lag (-predict adds the champion
                   prediction scoreboard)

global flags (any subcommand, before or after its name):
  -metrics FILE    write a JSON snapshot of all pipeline telemetry at exit
  -http ADDR       serve Prometheus /metrics and /debug/pprof on ADDR
                   (e.g. -http localhost:6060)
  -v               print the per-stage latency summary table at exit`)
}

// studyIndex maps studies by system.
func studyIndex(studies []*core.Study) map[logrec.System]*core.Study {
	out := make(map[logrec.System]*core.Study, len(studies))
	for _, s := range studies {
		out[s.System] = s
	}
	return out
}

// commonFlags registers the scale/seed flags shared by subcommands.
func commonFlags(fs *flag.FlagSet) (*float64, *int64) {
	scale := fs.Float64("scale", simulate.DefaultScale, "volume scale relative to the paper's logs")
	seed := fs.Int64("seed", 1, "random seed")
	return scale, seed
}

func runTables(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	which := fs.String("t", "all", "table to print (1-6 or all)")
	scale, seed := commonFlags(fs)
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	want := func(t string) bool { return *which == "all" || *which == t }

	if want("1") {
		core.Table1().Render(w)
		fmt.Fprintln(w)
		if *which == "1" {
			return nil
		}
	}

	studies, err := core.NewAll(*scale, *seed)
	if err != nil {
		return err
	}
	byName := studyIndex(studies)

	if want("2") {
		t, err := core.Table2(studies)
		if err != nil {
			return err
		}
		t.Render(w)
		fmt.Fprintln(w)
	}
	if want("3") {
		core.Table3(studies).Render(w)
		fmt.Fprintln(w)
	}
	if want("4") {
		for _, s := range studies {
			core.Table4(s).Render(w)
			fmt.Fprintln(w)
		}
	}
	if want("5") {
		bgl := byName[logrec.BlueGeneL]
		core.Table5(bgl).Render(w)
		conf := core.Table5Baseline(bgl)
		fmt.Fprintf(w, "severity baseline (FATAL/FAILURE => alert): FP %.2f%%, FN %.2f%% (paper: 59.34%%, 0%%)\n\n",
			100*conf.FalsePositiveRate(), 100*conf.FalseNegativeRate())
	}
	if want("6") {
		core.Table6(byName[logrec.RedStorm]).Render(w)
		fmt.Fprintln(w)
	}
	return nil
}

func runFigures(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	which := fs.String("f", "all", "figure to print (1, 2a, 2b, 3, 4, 5, 6, all)")
	adaptive := fs.Bool("adaptive", false, "use per-category adaptive thresholds for figure 6")
	csvDir := fs.String("csv", "", "also write each figure's series as CSV into this directory")
	scale, seed := commonFlags(fs)
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	want := func(f string) bool { return *which == "all" || *which == f }
	writeCSV := func(name string, xName, yName string, xs, ys []float64) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		report.CSV(f, xName, yName, xs, ys)
		return nil
	}

	newStudy := func(sys logrec.System, alertScale float64) (*core.Study, error) {
		return core.New(simulate.Config{System: sys, Scale: *scale, AlertScale: alertScale, Seed: *seed})
	}

	if want("1") {
		bgl, err := newStudy(logrec.BlueGeneL, 0)
		if err != nil {
			return err
		}
		core.RenderFigure1(w, bgl)
		fmt.Fprintln(w)
	}
	if want("2a") || want("2b") || want("3") || want("4") {
		liberty, err := newStudy(logrec.Liberty, 1)
		if err != nil {
			return err
		}
		if want("2a") {
			core.RenderFigure2a(w, liberty)
			fmt.Fprintln(w)
			d := core.Figure2a(liberty)
			xs := make([]float64, len(d.Hourly))
			ys := make([]float64, len(d.Hourly))
			for i, c := range d.Hourly {
				xs[i], ys[i] = float64(i), float64(c)
			}
			if err := writeCSV("fig2a_liberty_hourly.csv", "hour", "messages", xs, ys); err != nil {
				return err
			}
		}
		if want("2b") {
			core.RenderFigure2b(w, liberty, 12)
			fmt.Fprintln(w)
			d := core.Figure2b(liberty)
			xs := make([]float64, len(d.Ranked))
			ys := make([]float64, len(d.Ranked))
			for i, sc := range d.Ranked {
				xs[i], ys[i] = float64(i+1), float64(sc.Count)
			}
			if err := writeCSV("fig2b_liberty_sources.csv", "rank", "messages", xs, ys); err != nil {
				return err
			}
		}
		if want("3") {
			core.RenderFigure3(w, liberty, "GM_PAR", "GM_LANAI")
			fmt.Fprintln(w)
		}
		if want("4") {
			core.RenderFigure4(w, liberty)
			fmt.Fprintln(w)
		}
	}
	if want("5") {
		tbird, err := newStudy(logrec.Thunderbird, 0)
		if err != nil {
			return err
		}
		if err := core.RenderFigure5(w, tbird, "ECC"); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if d, err := core.Figure5(tbird, "ECC"); err == nil {
			xs := make([]float64, len(d.Interarrivals))
			for i := range xs {
				xs[i] = float64(i + 1)
			}
			if err := writeCSV("fig5_tbird_ecc_gaps.csv", "n", "gap_seconds", xs, d.Interarrivals); err != nil {
				return err
			}
		}
	}
	if want("6") {
		for _, sys := range []logrec.System{logrec.BlueGeneL, logrec.Spirit} {
			s, err := newStudy(sys, 0)
			if err != nil {
				return err
			}
			if *adaptive {
				th := core.AdaptiveThresholds(s)
				s.Filtered = filter.Adaptive{Thresholds: th, Default: filter.DefaultThreshold}.Filter(s.Alerts)
				fmt.Fprintln(w, "(adaptive per-category thresholds)")
			}
			core.RenderFigure6(w, s)
			fmt.Fprintln(w)
			d := core.Figure6(s)
			xs := make([]float64, len(d.LogHist.Counts))
			ys := make([]float64, len(d.LogHist.Counts))
			for i, c := range d.LogHist.Counts {
				xs[i], ys[i] = d.LogHist.BinCenter(i), float64(c)
			}
			name := fmt.Sprintf("fig6_%s_interarrival_loghist.csv", sys.ShortName())
			if err := writeCSV(name, "gap_seconds_bin_center", "count", xs, ys); err != nil {
				return err
			}
		}
	}
	return nil
}

func runGenerate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	sysName := fs.String("system", "liberty", "system to generate (bgl, tbird, redstorm, spirit, liberty)")
	outPath := fs.String("o", "", "output file (default stdout)")
	treeDir := fs.String("tree", "", "write the per-source directory layout of Section 3.1 into this directory instead")
	scale, seed := commonFlags(fs)
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	sys, err := logrec.ParseSystem(*sysName)
	if err != nil {
		return err
	}
	out, err := simulate.Generate(simulate.Config{System: sys, Scale: *scale, Seed: *seed})
	if err != nil {
		return err
	}
	if *treeDir != "" {
		render := func(r logrec.Record) string { return r.Raw }
		if err := ingest.WriteTree(*treeDir, out.Records, render, true); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s lines into per-source files under %s\n",
			report.Comma(int64(len(out.Records))), *treeDir)
		return nil
	}
	if *outPath != "" {
		// .gz paths are compressed transparently.
		n, err := ingest.WriteLines(*outPath, out.Lines)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s lines (%s bytes) to %s\n",
			report.Comma(int64(len(out.Lines))), report.Comma(n), *outPath)
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, line := range out.Lines {
		if _, err := bw.WriteString(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func runCompareFilters(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare-filters", flag.ContinueOnError)
	sysName := fs.String("system", "spirit", "system to compare on")
	adaptive := fs.Bool("adaptive", false, "include the adaptive-threshold filter")
	correlation := fs.Bool("correlation", false, "include the correlation-aware filter and print its learned groups")
	scale, seed := commonFlags(fs)
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	sys, err := logrec.ParseSystem(*sysName)
	if err != nil {
		return err
	}
	s, err := core.New(simulate.Config{System: sys, Scale: *scale, Seed: *seed})
	if err != nil {
		return err
	}
	algs := []filter.Algorithm{
		filter.Simultaneous{T: filter.DefaultThreshold},
		filter.Serial{T: filter.DefaultThreshold},
		filter.Temporal{T: filter.DefaultThreshold},
		filter.Spatial{T: filter.DefaultThreshold},
		filter.Tuple{T: filter.DefaultThreshold},
	}
	if *adaptive {
		algs = append(algs, filter.Adaptive{Thresholds: core.AdaptiveThresholds(s), Default: filter.DefaultThreshold})
	}
	if *correlation {
		algs = append(algs, filter.CorrelationAware{T: filter.DefaultThreshold})
	}
	results := core.CompareFilters(s, algs...)
	t := report.NewTable(fmt.Sprintf("Filter comparison on %s (%s raw alerts)", s.System, report.Comma(int64(len(s.Alerts)))),
		"Algorithm", "Kept", "Removed", "Incidents", "Missed", "Redundant Kept", "Alerts/Failure", "Elapsed")
	for _, r := range results {
		t.AddRow(r.Algorithm, r.Stats.Output, r.Stats.Removed,
			r.Accuracy.Incidents, r.Accuracy.MissedIncidents, r.Accuracy.RedundantKept,
			fmt.Sprintf("%.3f", r.Accuracy.AlertsPerFailure()), r.Elapsed.String())
	}
	t.Render(w)

	diff := core.SurvivorDiff(s, filter.Serial{T: filter.DefaultThreshold}, filter.Simultaneous{T: filter.DefaultThreshold})
	if len(diff) > 0 {
		fmt.Fprintln(w, "\nalerts kept by serial but removed by simultaneous, by category:")
		for cat, n := range diff {
			fmt.Fprintf(w, "  %-12s %d\n", cat, n)
		}
	}
	if *correlation {
		groups := (filter.CorrelationAware{T: filter.DefaultThreshold}).Learn(s.Alerts)
		fmt.Fprintln(w, "\nlearned category correlations (Section 5 future work):")
		gs := groups.Groups()
		if len(gs) == 0 {
			fmt.Fprintln(w, "  (none above threshold)")
		}
		for _, g := range gs {
			fmt.Fprintf(w, "  %s\n", strings.Join(g, " + "))
		}
	}
	return nil
}

func runRules(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rules", flag.ContinueOnError)
	sysName := fs.String("system", "all", "system whose rules to print")
	export := fs.Bool("export", false, "emit the loadable rule-file format instead of the awk view")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	systems := logrec.Systems()
	if *sysName != "all" {
		sys, err := logrec.ParseSystem(*sysName)
		if err != nil {
			return err
		}
		systems = []logrec.System{sys}
	}
	for _, sys := range systems {
		if *export {
			if err := rules.Export(w, sys); err != nil {
				return err
			}
			fmt.Fprintln(w)
			continue
		}
		fmt.Fprintf(w, "%s (%d categories):\n", sys, len(catalog.BySystem(sys)))
		for _, c := range tag.NewTagger(sys).Rules() {
			fmt.Fprintf(w, "  %s/%-10s %s\n", c.Type.Code(), c.Name, tag.AwkSource(c))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runAnalyze(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	inPath := fs.String("in", "", "log file to analyze (required)")
	sysName := fs.String("system", "liberty", "system the log belongs to")
	rulesPath := fs.String("rules", "", "optional custom rule file (default: built-in expert rules)")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	if *inPath == "" {
		return usageError("analyze: -in is required")
	}
	sys, err := logrec.ParseSystem(*sysName)
	if err != nil {
		return err
	}
	f, err := ingest.Open(*inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := cluster.New(sys)
	if err != nil {
		return err
	}
	recs, stats, err := ingest.ReadAll(f, sys, m.LogStart)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ingested %s lines (%d parse errors; %d syslog, %d RAS, %d event)\n",
		report.Comma(int64(stats.Lines)), stats.ParseErrors, stats.Syslog, stats.RAS, stats.Event)

	var alerts []tag.Alert
	if *rulesPath != "" {
		rf, err := os.Open(*rulesPath)
		if err != nil {
			return err
		}
		set, lerr := rules.Load(rf)
		rf.Close()
		if lerr != nil {
			return lerr
		}
		alerts = tagWithSet(recs, set)
		fmt.Fprintf(w, "tagged with %d custom rules from %s\n", len(set.Rules), *rulesPath)
	} else {
		alerts = tag.NewTagger(sys).TagAll(recs)
	}
	// Both taggers keep ReadAll's canonical record order.
	filtered := filter.Simultaneous{T: filter.DefaultThreshold}.Filter(alerts)
	fmt.Fprintf(w, "alerts: %s raw, %s after Algorithm 3.1 (T=5s), %d categories observed\n\n",
		report.Comma(int64(len(alerts))), report.Comma(int64(len(filtered))), tag.CategoriesObserved(alerts))

	t := report.NewTable("alerts by category", "Type/Cat.", "Raw", "Filtered")
	raw := tag.CountByCategory(alerts)
	filt := tag.CountByCategory(filtered)
	for _, c := range catalog.BySystem(sys) {
		if raw[c.Name] == 0 {
			continue
		}
		t.AddRow(c.Type.Code()+" / "+c.Name, report.Comma(int64(raw[c.Name])), report.Comma(int64(filt[c.Name])))
	}
	t.Render(w)
	return nil
}

// tagWithSet tags records using a custom rule set, mapping rule names
// back to catalog categories when they exist (so downstream type
// accounting still works) and synthesizing ad-hoc categories otherwise.
func tagWithSet(recs []logrec.Record, set *rules.Set) []tag.Alert {
	adHoc := map[string]*catalog.Category{}
	var alerts []tag.Alert
	for _, r := range recs {
		rule, ok := set.Tag(r)
		if !ok {
			continue
		}
		c, ok := catalog.Lookup(r.System, rule.Name)
		if !ok {
			c = adHoc[rule.Name]
			if c == nil {
				c = &catalog.Category{System: r.System, Name: rule.Name, Type: rule.Type, Raw: 1, Filtered: 1, Pattern: rule.Source}
				adHoc[rule.Name] = c
			}
		}
		alerts = append(alerts, tag.Alert{Record: r, Category: c})
	}
	return alerts
}

func runDiscover(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("discover", flag.ContinueOnError)
	sysName := fs.String("system", "tbird", "system to analyze")
	window := fs.Duration("window", 30*time.Second, "spatial clustering window")
	minEvents := fs.Int("min", 20, "minimum raw alerts for a category to be scored")
	scale, seed := commonFlags(fs)
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	sys, err := logrec.ParseSystem(*sysName)
	if err != nil {
		return err
	}
	s, err := core.New(simulate.Config{System: sys, Scale: *scale, Seed: *seed})
	if err != nil {
		return err
	}
	scores := core.DiscoverSpatialCorrelation(s, *window, *minEvents)
	fano := core.BurstinessByCategory(s, *minEvents)
	t := report.NewTable(
		fmt.Sprintf("Spatial correlation and burstiness on %s (window %v)", s.System, *window),
		"Category", "Events", "Clusters", "Multi-source %", "Mean Sources", "Fano (hourly)")
	for _, sc := range scores {
		t.AddRow(sc.Category, sc.Score.Events, sc.Score.Windows,
			fmt.Sprintf("%.1f", 100*sc.Score.Index()),
			fmt.Sprintf("%.2f", sc.Score.MeanSources),
			fmt.Sprintf("%.1f", fano[sc.Category]))
	}
	t.Render(w)
	fmt.Fprintln(w, "\nhigh multi-source share = job-coupled (the SMP clock bug discovery signal);")
	fmt.Fprintln(w, "near zero = independent physical process (ECC).")
	return nil
}

func runMine(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mine", flag.ContinueOnError)
	sysName := fs.String("system", "liberty", "system to mine")
	support := fs.Int("support", 20, "minimum (position, token) support")
	top := fs.Int("top", 15, "templates to print")
	maxBodies := fs.Int("max", 100000, "maximum bodies to mine (0 = all)")
	scale, seed := commonFlags(fs)
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	sys, err := logrec.ParseSystem(*sysName)
	if err != nil {
		return err
	}
	s, err := core.New(simulate.Config{System: sys, Scale: *scale, Seed: *seed})
	if err != nil {
		return err
	}
	rep := core.MineTemplates(s, mining.Config{Support: *support}, *maxBodies)
	fmt.Fprintf(w, "mined %d templates from %s messages; purity vs expert tags %.3f\n\n",
		len(rep.Templates), report.Comma(int64(rep.Messages)), rep.AlertPurity)
	for i, tp := range rep.Templates {
		if i >= *top {
			fmt.Fprintf(w, "... %d more templates\n", len(rep.Templates)-*top)
			break
		}
		pattern := tp.String()
		if len(pattern) > 90 {
			pattern = pattern[:87] + "..."
		}
		fmt.Fprintf(w, "%8s  %s\n", report.Comma(int64(tp.Count)), pattern)
	}
	return nil
}

func runJobs(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("jobs", flag.ContinueOnError)
	sysName := fs.String("system", "liberty", "system to analyze")
	category := fs.String("category", "PBS_CHK", "job-fatal alert category")
	checkpoint := fs.Duration("checkpoint", time.Hour, "checkpoint interval for the lost-work comparison")
	scale, seed := commonFlags(fs)
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	sys, err := logrec.ParseSystem(*sysName)
	if err != nil {
		return err
	}
	s, err := core.New(simulate.Config{System: sys, Scale: *scale, AlertScale: 1, Seed: *seed})
	if err != nil {
		return err
	}
	imp := core.JobImpact(s, *category, *seed, *checkpoint)
	ras := core.RAS(s)
	fmt.Fprintf(w, "%s %s job impact:\n", s.System, *category)
	fmt.Fprintf(w, "  workload: %s jobs; killed in overlay: %d; alert-only estimate: %d\n",
		report.Comma(int64(imp.Jobs)), imp.GroundTruthKilled, imp.EstimatedKilled)
	fmt.Fprintf(w, "  node-hours lost: %.1f uncheckpointed, %.1f with %v checkpoints\n",
		imp.LostNodeHours, imp.LostNodeHoursCheckpointed, imp.CheckpointInterval)
	fmt.Fprintf(w, "  production availability %.4f; log-derived MTBF %v (discouraged; see Section 5)\n",
		ras.Metrics.Availability(), ras.LogMTBF)
	return nil
}

func runSweep(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	sysName := fs.String("system", "spirit", "system to sweep on")
	scale, seed := commonFlags(fs)
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	sys, err := logrec.ParseSystem(*sysName)
	if err != nil {
		return err
	}
	s, err := core.New(simulate.Config{System: sys, Scale: *scale, Seed: *seed})
	if err != nil {
		return err
	}
	rows := core.ThresholdSweep(s, core.DefaultSweepThresholds())
	t := report.NewTable(
		fmt.Sprintf("Algorithm 3.1 threshold sensitivity on %s (%s raw alerts; paper uses T=5s)",
			s.System, report.Comma(int64(len(s.Alerts)))),
		"T", "Kept", "Missed Incidents", "Redundant Kept", "Alerts/Failure")
	for _, r := range rows {
		t.AddRow(r.T.String(), r.Kept, r.Missed, r.Redundant, fmt.Sprintf("%.3f", r.AlertsPerFailure))
	}
	t.Render(w)
	return nil
}

func runAnonymize(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("anonymize", flag.ContinueOnError)
	inPath := fs.String("in", "", "log file to anonymize (required)")
	outPath := fs.String("o", "", "output file (default stdout)")
	key := fs.String("key", "", "secret pseudonymization key (required)")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	if *inPath == "" || *key == "" {
		return usageError("anonymize: -in and -key are required")
	}
	data, err := os.ReadFile(*inPath)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	an := anonymize.New(*key)
	changed := an.Lines(lines)
	leaks := an.Audit(lines)

	dst := w
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	bw := bufio.NewWriter(dst)
	for _, l := range lines {
		if _, err := bw.WriteString(l); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if *outPath != "" {
		fmt.Fprintf(w, "anonymized %s lines (%s rewritten) -> %s; audit found %d residual leaks\n",
			report.Comma(int64(len(lines))), report.Comma(int64(changed)), *outPath, len(leaks))
	}
	return nil
}
