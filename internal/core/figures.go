package core

import (
	"fmt"
	"io"
	"time"

	"whatsupersay/internal/report"
	"whatsupersay/internal/stats"
)

// Figure2aData is the hourly message series of Figure 2(a) with detected
// regime shifts.
type Figure2aData struct {
	Hourly       []int
	ChangePoints []stats.ChangePoint
	Start        time.Time
}

// Figure2a buckets a study's messages by hour and detects level shifts.
func Figure2a(s *Study) Figure2aData {
	start, end := s.Window()
	times := make([]time.Time, 0, len(s.Records))
	for _, r := range s.Records {
		times = append(times, r.Time)
	}
	hourly := stats.BucketCounts(times, start, end, time.Hour)
	return Figure2aData{
		Hourly:       hourly,
		ChangePoints: stats.DetectChangePoints(hourly, 4, 30),
		Start:        start,
	}
}

// RenderFigure2a writes the plot and the change-point summary.
func RenderFigure2a(w io.Writer, s *Study) {
	d := Figure2a(s)
	report.StepPlot(w, fmt.Sprintf("Figure 2(a). %s: messages per hour", s.System), d.Hourly, 96, 12)
	for _, cp := range d.ChangePoints {
		at := d.Start.Add(time.Duration(cp.Index) * time.Hour)
		fmt.Fprintf(w, "shift at %s: mean %.1f -> %.1f msgs/hour (score %.1f)\n",
			at.Format("2006-01-02 15:04"), cp.Before, cp.After, cp.Score)
	}
}

// Figure2bData is the per-source message ranking of Figure 2(b).
type Figure2bData struct {
	Ranked []stats.SourceCount
	// CorruptedSources counts sources that look like damaged attribution
	// (non-hostname junk), the cluster at the bottom of the figure.
	CorruptedSources int
}

// Figure2b ranks sources by message count.
func Figure2b(s *Study) Figure2bData {
	sources := make([]string, 0, len(s.Records))
	for _, r := range s.Records {
		if r.Source != "" {
			sources = append(sources, r.Source)
		}
	}
	ranked := stats.RankSources(sources)
	corrupted := 0
	for _, sc := range ranked {
		if !plausibleHostname(sc.Source) {
			corrupted++
		}
	}
	return Figure2bData{Ranked: ranked, CorruptedSources: corrupted}
}

// plausibleHostname reports whether a source string looks like a real
// node name rather than corruption.
func plausibleHostname(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '.', c == '_', c == ':':
		default:
			return false
		}
	}
	return true
}

// RenderFigure2b writes the top and bottom of the source ranking.
func RenderFigure2b(w io.Writer, s *Study, topN int) {
	d := Figure2b(s)
	fmt.Fprintf(w, "Figure 2(b). %s: messages by source (%d sources, %d with corrupted attribution)\n",
		s.System, len(d.Ranked), d.CorruptedSources)
	for i, sc := range d.Ranked {
		if i >= topN {
			fmt.Fprintf(w, "  ... %d more sources\n", len(d.Ranked)-topN)
			break
		}
		fmt.Fprintf(w, "  %-16s %s\n", sc.Source, report.Comma(int64(sc.Count)))
	}
}

// Figure3Data is the two-category correlation view of Figure 3.
type Figure3Data struct {
	Primary, Secondary []time.Time
	Correlation        float64
}

// Figure3 extracts two categories' filtered alert times and their
// daily-bucket correlation.
func Figure3(s *Study, primary, secondary string) Figure3Data {
	start, end := s.Window()
	p := AlertTimes(AlertsOfCategory(s.Filtered, primary))
	q := AlertTimes(AlertsOfCategory(s.Filtered, secondary))
	return Figure3Data{
		Primary:     p,
		Secondary:   q,
		Correlation: stats.CorrelateEventSeries(p, q, start, end, 24*time.Hour),
	}
}

// RenderFigure3 writes the two-lane scatter with the correlation.
func RenderFigure3(w io.Writer, s *Study, primary, secondary string) {
	d := Figure3(s, primary, secondary)
	start, end := s.Window()
	var pts []report.ScatterPoint
	for _, t := range d.Primary {
		pts = append(pts, report.ScatterPoint{X: t.Sub(start).Hours(), Lane: 0})
	}
	for _, t := range d.Secondary {
		pts = append(pts, report.ScatterPoint{X: t.Sub(start).Hours(), Lane: 1})
	}
	report.LaneScatter(w,
		fmt.Sprintf("Figure 3. %s: %s vs %s over time (daily correlation %.2f)", s.System, primary, secondary, d.Correlation),
		[]string{primary, secondary}, pts, 0, end.Sub(start).Hours(), 96)
}

// Figure4Data is the categorized filtered-alert timeline of Figure 4.
type Figure4Data struct {
	Categories []string
	// Points are (hours-since-start, lane) pairs for each filtered alert.
	Points []report.ScatterPoint
}

// Figure4 lays out a study's filtered alerts by category lane over time.
func Figure4(s *Study) Figure4Data {
	start, _ := s.Window()
	laneOf := make(map[string]int)
	var d Figure4Data
	for _, a := range s.Filtered {
		lane, ok := laneOf[a.Category.Name]
		if !ok {
			lane = len(d.Categories)
			laneOf[a.Category.Name] = lane
			d.Categories = append(d.Categories, a.Category.Name)
		}
		d.Points = append(d.Points, report.ScatterPoint{X: a.Record.Time.Sub(start).Hours(), Lane: lane})
	}
	return d
}

// RenderFigure4 writes the categorized scatter.
func RenderFigure4(w io.Writer, s *Study) {
	d := Figure4(s)
	start, end := s.Window()
	report.LaneScatter(w,
		fmt.Sprintf("Figure 4. %s: categorized filtered alerts over time", s.System),
		d.Categories, d.Points, 0, end.Sub(start).Hours(), 96)
}

// Figure5Data is the ECC interarrival analysis of Figure 5.
type Figure5Data struct {
	Interarrivals []float64
	Exponential   stats.Exponential
	ExpKS         stats.KSResult
	Lognormal     stats.Lognormal
	LogKS         stats.KSResult
	// Weibull is the reliability-engineering family; its shape parameter
	// K near 1 independently confirms the exponential (memoryless)
	// behavior of Figure 5's ECC alerts.
	Weibull   stats.Weibull
	WeibullKS stats.KSResult
	LogHist   *stats.LogHistogram
}

// Figure5 fits exponential and lognormal models to one category's
// filtered interarrivals (the paper uses Thunderbird ECC).
func Figure5(s *Study, category string) (Figure5Data, error) {
	times := AlertTimes(AlertsOfCategory(s.Filtered, category))
	gaps := stats.Interarrivals(times)
	var d Figure5Data
	d.Interarrivals = gaps
	var err error
	if d.Exponential, err = stats.FitExponential(gaps); err != nil {
		return d, fmt.Errorf("figure 5 exponential fit: %w", err)
	}
	if d.ExpKS, err = stats.KSTest(gaps, d.Exponential); err != nil {
		return d, fmt.Errorf("figure 5 exponential KS: %w", err)
	}
	if d.Lognormal, err = stats.FitLognormal(gaps); err != nil {
		return d, fmt.Errorf("figure 5 lognormal fit: %w", err)
	}
	if d.LogKS, err = stats.KSTest(gaps, d.Lognormal); err != nil {
		return d, fmt.Errorf("figure 5 lognormal KS: %w", err)
	}
	if d.Weibull, err = stats.FitWeibull(gaps); err != nil {
		return d, fmt.Errorf("figure 5 weibull fit: %w", err)
	}
	if d.WeibullKS, err = stats.KSTest(gaps, d.Weibull); err != nil {
		return d, fmt.Errorf("figure 5 weibull KS: %w", err)
	}
	d.LogHist = stats.NewLogHistogram(gaps, 0, 8, 2)
	return d, nil
}

// RenderFigure5 writes the fits and the log histogram.
func RenderFigure5(w io.Writer, s *Study, category string) error {
	d, err := Figure5(s, category)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 5. %s %s: %d filtered interarrivals\n", s.System, category, len(d.Interarrivals))
	fmt.Fprintf(w, "  exponential fit lambda=%.3g /s  KS D=%.3f p=%.3f\n", d.Exponential.Lambda, d.ExpKS.D, d.ExpKS.PValue)
	fmt.Fprintf(w, "  lognormal fit mu=%.2f sigma=%.2f  KS D=%.3f p=%.3f\n", d.Lognormal.Mu, d.Lognormal.Sigma, d.LogKS.D, d.LogKS.PValue)
	fmt.Fprintf(w, "  weibull fit k=%.2f lambda=%.3g  KS D=%.3f p=%.3f (k~1 = memoryless)\n", d.Weibull.K, d.Weibull.Lambda, d.WeibullKS.D, d.WeibullKS.PValue)
	centers := make([]float64, len(d.LogHist.Counts))
	for i := range centers {
		centers[i] = d.LogHist.BinCenter(i)
	}
	report.LogHistPlot(w, "  log-bucketed interarrival histogram:", centers, d.LogHist.Counts, 56)
	return nil
}

// Figure6Data is the filtered-interarrival log distribution of Figure 6.
type Figure6Data struct {
	Gaps    []float64
	LogHist *stats.LogHistogram
	Modes   int
}

// Figure6 computes the filtered interarrival log-histogram for a study
// and counts its modes: bimodal for BG/L (6(a)), unimodal for Spirit
// (6(b)).
func Figure6(s *Study) Figure6Data {
	gaps := stats.Interarrivals(AlertTimes(s.Filtered))
	h := stats.NewLogHistogram(gaps, 0, 7, 2)
	return Figure6Data{Gaps: gaps, LogHist: h, Modes: h.Modes(1, 0.25)}
}

// RenderFigure6 writes the log histogram and modality verdict.
func RenderFigure6(w io.Writer, s *Study) {
	d := Figure6(s)
	modality := "unimodal"
	if d.Modes >= 2 {
		modality = "bimodal/multimodal"
	}
	fmt.Fprintf(w, "Figure 6. %s: filtered alert interarrival log-distribution (%d gaps, %s)\n",
		s.System, len(d.Gaps), modality)
	centers := make([]float64, len(d.LogHist.Counts))
	for i := range centers {
		centers[i] = d.LogHist.BinCenter(i)
	}
	report.LogHistPlot(w, "", centers, d.LogHist.Counts, 56)
}
