package main

import (
	"math"
	"testing"
)

// The reported tail is the highest percentile with at least ten samples
// beyond it: the choice moves up the ladder exactly where the tenth
// sample beyond appears.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50},
		{99, 50}, {100, 90},
		{199, 90}, {200, 95},
		{999, 95}, {1000, 99},
		{9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		// Count them: with samples 1..n the percentile's value is its
		// rank, and the samples beyond it are those above.
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if p := tailPercentile(tc.n); p > 50 {
			if beyond := tc.n - int(percentile(xs, p)); beyond < 10 {
				t.Errorf("tailPercentile(%d) = %v leaves %d samples beyond it", tc.n, p, beyond)
			}
		}
	}
}

func TestPercentileIsAMeasuredValue(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{1: 1, 20: 1, 21: 2, 50: 3, 99: 5, 100: 5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// relSpread must agree with the driver, which takes the quartiles from
// Python's statistics.quantiles(values, n=4). The expected values below
// were computed with it.
func TestRelSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		// quantiles([10, 12, 11, 40, 13], n=4) = [10.5, 12.0, 26.5]
		{[]float64{10, 12, 11, 40, 13}, (26.5 - 10.5) / 12},
	} {
		if got := relSpread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("relSpread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
