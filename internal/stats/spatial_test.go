package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestSpatialCorrelationSeparatesProcesses(t *testing.T) {
	base := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(1))

	// Independent per-node process (ECC-like): singleton events hours
	// apart on random nodes.
	var indep []SpatialEvent
	tm := base
	for i := 0; i < 200; i++ {
		tm = tm.Add(time.Duration(1+rng.Intn(10)) * time.Hour)
		indep = append(indep, SpatialEvent{Time: tm, Source: nodeNameT(rng)})
	}
	// Job-coupled process (CPU-clock-like): groups of 4 nodes reporting
	// within seconds.
	var coupled []SpatialEvent
	tm = base
	for i := 0; i < 100; i++ {
		tm = tm.Add(time.Duration(1+rng.Intn(10)) * time.Hour)
		for k := 0; k < 4; k++ {
			coupled = append(coupled, SpatialEvent{
				Time:   tm.Add(time.Duration(k) * time.Second),
				Source: nodeNameT(rng),
			})
		}
	}
	si := SpatialCorrelation(indep, 30*time.Second)
	sc := SpatialCorrelation(coupled, 30*time.Second)
	if si.Index() > 0.1 {
		t.Errorf("independent process index = %.2f, want ~0", si.Index())
	}
	if sc.Index() < 0.8 {
		t.Errorf("coupled process index = %.2f, want ~1", sc.Index())
	}
	if sc.MeanSources < 3 {
		t.Errorf("coupled mean sources = %.1f, want ~4", sc.MeanSources)
	}
}

func nodeNameT(rng *rand.Rand) string {
	return "tn" + string(rune('0'+rng.Intn(10))) + string(rune('0'+rng.Intn(10)))
}

func TestSpatialCorrelationEdge(t *testing.T) {
	if s := SpatialCorrelation(nil, time.Second); s.Windows != 0 || s.Index() != 0 {
		t.Error("empty input")
	}
	one := []SpatialEvent{{Time: time.Now(), Source: "a"}}
	s := SpatialCorrelation(one, time.Second)
	if s.Windows != 1 || s.MultiSourceWindows != 0 {
		t.Errorf("singleton: %+v", s)
	}
}

func TestFitWeibullRecoverParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Inverse-CDF sampling: x = lambda * (-ln U)^(1/k).
	sample := func(k, lambda float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = lambda * math.Pow(-math.Log(rng.Float64()), 1/k)
		}
		return out
	}
	cases := []struct{ k, lambda float64 }{
		{0.7, 100}, // infant mortality
		{1.0, 50},  // exponential
		{2.5, 10},  // wear-out
	}
	for _, tc := range cases {
		xs := sample(tc.k, tc.lambda, 20000)
		fit, err := FitWeibull(xs)
		if err != nil {
			t.Fatalf("k=%v: %v", tc.k, err)
		}
		if math.Abs(fit.K-tc.k) > 0.05*tc.k+0.02 {
			t.Errorf("k = %.3f, want %.3f", fit.K, tc.k)
		}
		if math.Abs(fit.Lambda-tc.lambda) > 0.05*tc.lambda {
			t.Errorf("lambda = %.3f, want %.3f", fit.Lambda, tc.lambda)
		}
	}
}

func TestWeibullCDF(t *testing.T) {
	w := Weibull{K: 1, Lambda: 10} // reduces to Exponential(1/10)
	e := Exponential{Lambda: 0.1}
	for _, x := range []float64{0.1, 1, 5, 20, 100} {
		if math.Abs(w.CDF(x)-e.CDF(x)) > 1e-12 {
			t.Errorf("Weibull(k=1) CDF(%v) = %v, want exponential %v", x, w.CDF(x), e.CDF(x))
		}
	}
	if w.CDF(0) != 0 || w.CDF(-1) != 0 {
		t.Error("CDF must be 0 for x <= 0")
	}
	if w.Name() != "weibull" || w.Params()["k"] != 1 {
		t.Error("metadata")
	}
}

func TestFitWeibullErrors(t *testing.T) {
	if _, err := FitWeibull([]float64{0, -1}); err == nil {
		t.Error("no positive data must error")
	}
	if _, err := FitWeibull([]float64{5}); err == nil {
		t.Error("one point must error")
	}
}

func TestWeibullKSIntegration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = 20 * math.Pow(-math.Log(rng.Float64()), 1/1.8)
	}
	fit, err := FitWeibull(xs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := KSTest(xs, fit)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.01 {
		t.Errorf("Weibull fit rejected on Weibull data: D=%v p=%v", res.D, res.PValue)
	}
}

func TestFanoFactor(t *testing.T) {
	base := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	end := base.AddDate(0, 0, 10)
	rng := rand.New(rand.NewSource(5))

	// Poisson process: Fano ~ 1.
	var poisson []time.Time
	tm := base
	for {
		tm = tm.Add(time.Duration(rng.ExpFloat64() * float64(10*time.Minute)))
		if !tm.Before(end) {
			break
		}
		poisson = append(poisson, tm)
	}
	if f := FanoFactor(poisson, base, end, time.Hour); f < 0.6 || f > 1.6 {
		t.Errorf("Poisson Fano = %.2f, want ~1", f)
	}

	// Bursty process: all events in a few hours → Fano >> 1.
	var bursty []time.Time
	for i := 0; i < len(poisson); i++ {
		bursty = append(bursty, base.Add(time.Duration(rng.Intn(7200))*time.Second))
	}
	if f := FanoFactor(bursty, base, end, time.Hour); f < 10 {
		t.Errorf("bursty Fano = %.2f, want >> 1", f)
	}
	if FanoFactor(nil, base, end, time.Hour) != 0 {
		t.Error("empty input")
	}
}
