package stats

import (
	"math"
	"sort"
	"time"
)

// Section 4 recounts how the Thunderbird SMP clock bug was found: "We
// investigated this message only after noticing that its occurrence was
// spatially correlated across nodes." This file implements that
// discovery procedure as an algorithm: score each alert category by how
// strongly its reports cluster across *distinct* sources in short time
// windows, so spatially correlated categories (CPU) separate from
// independent physical processes (ECC).

// SpatialEvent is one (time, source) observation.
type SpatialEvent struct {
	Time   time.Time
	Source string
}

// SpatialScore summarizes a category's cross-node clustering.
type SpatialScore struct {
	// Events is the number of observations scored.
	Events int
	// Windows is the number of clusters found (events grouped by the
	// window rule).
	Windows int
	// MultiSourceWindows counts clusters containing two or more distinct
	// sources.
	MultiSourceWindows int
	// MeanSources is the mean number of distinct sources per cluster.
	MeanSources float64
}

// Index is the spatial-correlation index: the fraction of clusters that
// span multiple sources. Independent per-node processes (ECC) score near
// 0; job-coupled bugs (the SMP clock bug) score high.
func (s SpatialScore) Index() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.MultiSourceWindows) / float64(s.Windows)
}

// SpatialCorrelation clusters events with the sliding-window rule (an
// event joins the current cluster if it is within window of the cluster's
// last event) and scores cross-source membership.
func SpatialCorrelation(events []SpatialEvent, window time.Duration) SpatialScore {
	if len(events) == 0 {
		return SpatialScore{}
	}
	sorted := make([]SpatialEvent, len(events))
	copy(sorted, events)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time.Before(sorted[j].Time) })

	score := SpatialScore{Events: len(events)}
	var clusterSources map[string]bool
	var last time.Time
	totalSources := 0
	flush := func() {
		if clusterSources == nil {
			return
		}
		score.Windows++
		totalSources += len(clusterSources)
		if len(clusterSources) > 1 {
			score.MultiSourceWindows++
		}
		clusterSources = nil
	}
	for _, e := range sorted {
		if clusterSources != nil && e.Time.Sub(last) >= window {
			flush()
		}
		if clusterSources == nil {
			clusterSources = make(map[string]bool, 4)
		}
		clusterSources[e.Source] = true
		last = e.Time
	}
	flush()
	if score.Windows > 0 {
		score.MeanSources = float64(totalSources) / float64(score.Windows)
	}
	return score
}

// Weibull is a two-parameter Weibull distribution, the standard
// reliability-engineering failure model (shape K, scale Lambda). K < 1
// means infant-mortality (decreasing hazard), K = 1 is exponential,
// K > 1 wear-out.
type Weibull struct {
	K, Lambda float64
}

// Name implements Distribution.
func (w Weibull) Name() string { return "weibull" }

// CDF implements Distribution.
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(x/w.Lambda, w.K))
}

// Params implements Distribution.
func (w Weibull) Params() map[string]float64 {
	return map[string]float64{"k": w.K, "lambda": w.Lambda}
}

// FitWeibull fits by maximum likelihood over positive values, solving the
// profile-likelihood equation for K by Newton iteration and recovering
// Lambda in closed form.
func FitWeibull(xs []float64) (Weibull, error) {
	var pos []float64
	for _, x := range xs {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	if len(pos) < 2 {
		return Weibull{}, ErrInsufficientData
	}
	logs := make([]float64, len(pos))
	meanLog := 0.0
	for i, x := range pos {
		logs[i] = math.Log(x)
		meanLog += logs[i]
	}
	meanLog /= float64(len(pos))

	// g(k) = sum(x^k ln x)/sum(x^k) - 1/k - meanLog = 0.
	g := func(k float64) (val, deriv float64) {
		var sxk, sxkl, sxkll float64
		for i, x := range pos {
			xk := math.Pow(x, k)
			sxk += xk
			sxkl += xk * logs[i]
			sxkll += xk * logs[i] * logs[i]
		}
		val = sxkl/sxk - 1/k - meanLog
		deriv = (sxkll*sxk-sxkl*sxkl)/(sxk*sxk) + 1/(k*k)
		return val, deriv
	}
	k := 1.0
	for i := 0; i < 100; i++ {
		val, deriv := g(k)
		if math.Abs(deriv) < 1e-12 {
			break
		}
		next := k - val/deriv
		if next <= 0 {
			next = k / 2
		}
		if math.Abs(next-k) < 1e-10 {
			k = next
			break
		}
		k = next
	}
	if k <= 0 || math.IsNaN(k) || math.IsInf(k, 0) {
		return Weibull{}, ErrInsufficientData
	}
	var sxk float64
	for _, x := range pos {
		sxk += math.Pow(x, k)
	}
	lambda := math.Pow(sxk/float64(len(pos)), 1/k)
	return Weibull{K: k, Lambda: lambda}, nil
}

// FanoFactor is the variance-to-mean ratio of bucketed event counts: 1
// for a Poisson process, > 1 for bursty (overdispersed) processes — a
// one-number summary of the paper's burstiness observations.
func FanoFactor(times []time.Time, start, end time.Time, width time.Duration) float64 {
	counts := BucketCounts(times, start, end, width)
	if len(counts) < 2 {
		return 0
	}
	xs := make([]float64, len(counts))
	for i, c := range counts {
		xs[i] = float64(c)
	}
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	// Population variance: the buckets are the full population of the
	// window.
	var v float64
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	v /= float64(len(xs))
	return v / m
}
