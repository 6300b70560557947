package query

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
	"time"

	"whatsupersay/internal/stats"
)

// interarrivalReference summarizes the gap seconds of a nondecreasing
// timestamp column directly — the float sample in time order, a
// sort-based min, max and percentiles, one histogram lookup per gap —
// with none of interarrivalNanos' shortcuts (the int64 sort, the
// monotone view, the runs of equal gaps).
func interarrivalReference(nanos []int64, quantiles []float64) *Interarrival {
	secs := make([]float64, 0, len(nanos))
	for i := 1; i < len(nanos); i++ {
		secs = append(secs, time.Duration(nanos[i]-nanos[i-1]).Seconds())
	}
	sorted := slices.Clone(secs)
	slices.Sort(sorted)
	ia := &Interarrival{
		Count:     len(secs),
		MeanSec:   stats.Mean(secs),
		StddevSec: stats.StdDev(secs),
		MinSec:    sorted[0],
		MaxSec:    sorted[len(sorted)-1],
	}
	ps := make([]float64, len(quantiles))
	for i, q := range quantiles {
		ps[i] = q * 100
	}
	for i, sec := range stats.Percentiles(secs, ps) {
		ia.Quantiles = append(ia.Quantiles, QuantileValue{Q: quantiles[i], Sec: sec})
	}
	h := stats.NewLogHistogram(secs, logHistMinExp, logHistMaxExp, logHistBinsPerDecade)
	ia.LogHist = &LogHist{MinExp: h.MinExp, BinsPerDecade: h.BinsPerDecade, Counts: h.Counts, Zero: h.Zero, Over: h.Over}
	return ia
}

// TestInterarrivalMatchesGapSeconds: the one-sort summary is
// byte-identical to summarizing the gap seconds directly, on columns
// with one-second ties (long runs of equal gaps), nanosecond gaps,
// heavy tails past the histogram's range, and the smallest sizes.
func TestInterarrivalMatchesGapSeconds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	quantiles := []float64{0.001, 0.25, 0.5, 0.9, 0.99, 1}
	for _, n := range []int{2, 3, 5, 64, 1000, 20000} {
		for _, shape := range []string{"seconds", "nanos", "heavy"} {
			nanos := make([]int64, n)
			cur := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
			for i := range nanos {
				switch shape {
				case "seconds":
					cur += int64(rng.Intn(4)) * int64(time.Second)
				case "nanos":
					cur += rng.Int63n(int64(3 * time.Second))
				case "heavy":
					cur += int64(rng.ExpFloat64() * float64(time.Hour))
					if rng.Intn(100) == 0 {
						cur += int64(200 * 24 * time.Hour) // past 10^7 s: the Over bin
					}
				}
				nanos[i] = cur
			}
			got, err := json.Marshal(interarrivalNanos(nanos, quantiles))
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(interarrivalReference(nanos, quantiles))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("n=%d %s:\n got %s\nwant %s", n, shape, got, want)
			}
		}
	}
}
