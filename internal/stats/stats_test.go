package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if v := Variance(xs); math.Abs(v-4.571428571) > 1e-6 {
		t.Errorf("variance = %v", v)
	}
	if s := StdDev(xs); math.Abs(s-2.13809) > 1e-4 {
		t.Errorf("stddev = %v", s)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs must be 0")
	}
}

// percentileRef is the reference percentile: copy, sort, and
// interpolate linearly between the order statistics around p.
func percentileRef(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func TestMedianPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	got := Percentiles(xs, []float64{50, 0, 100, 25})
	for i, want := range []float64{3, 1, 5, 2} {
		if got[i] != want {
			t.Errorf("percentile %d = %v, want %v", i, got[i], want)
		}
	}
	// Interpolation between order statistics.
	if p := Percentiles([]float64{0, 10}, []float64{50}); p[0] != 5 {
		t.Errorf("interp p50 = %v, want 5", p[0])
	}
	if Percentiles(nil, []float64{50})[0] != 0 {
		t.Error("empty percentile must be 0")
	}
	// Percentiles must not mutate its input.
	if xs[0] != 5 {
		t.Error("Percentiles sorted the caller's slice")
	}
}

// TestPercentilesMatchPercentile: the shared-sort batch form, and the
// SortedPercentile rule under it read through a monotone view of a
// sorted column, must be bit-identical to a per-value sort — the
// aggregate differential tests depend on the forms being
// interchangeable.
func TestPercentilesMatchPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ps := []float64{-5, 0, 12.5, 50, 90, 99, 99.9, 100, 130}
	for _, n := range []int{1, 2, 3, 17, 1000} {
		xs := make([]float64, n)
		nanos := make([]int64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			nanos[i] = rng.Int63n(int64(10 * time.Second))
		}
		got := Percentiles(xs, ps)
		secs := make([]float64, n)
		for i, v := range nanos {
			secs[i] = time.Duration(v).Seconds()
		}
		sort.Slice(nanos, func(i, j int) bool { return nanos[i] < nanos[j] })
		at := func(i int) float64 { return time.Duration(nanos[i]).Seconds() }
		for i, p := range ps {
			if want := percentileRef(xs, p); got[i] != want {
				t.Errorf("n=%d p=%v: Percentiles = %v, reference = %v", n, p, got[i], want)
			}
			if got, want := SortedPercentile(n, at, p), percentileRef(secs, p); got != want {
				t.Errorf("n=%d p=%v: SortedPercentile over sorted nanos = %v, reference = %v", n, p, got, want)
			}
		}
	}
	if Percentiles(nil, ps) == nil || Percentiles([]float64{1}, nil) != nil {
		t.Error("degenerate shapes")
	}
	xs := []float64{5, 1, 3}
	Percentiles(xs, []float64{50})
	if xs[0] != 5 {
		t.Error("Percentiles sorted the caller's slice")
	}
}

func TestInterarrivals(t *testing.T) {
	base := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	times := []time.Time{base, base.Add(2 * time.Second), base.Add(2 * time.Second), base.Add(7 * time.Second)}
	gaps := Interarrivals(times)
	want := []float64{2, 0, 5}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v", gaps)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Errorf("gap[%d] = %v, want %v", i, gaps[i], want[i])
		}
	}
	if Interarrivals(times[:1]) != nil {
		t.Error("single event has no gaps")
	}
}

func TestLogHistogram(t *testing.T) {
	xs := []float64{0, 0.5, 1, 10, 100, 1000, 1e9}
	h := NewLogHistogram(xs, 0, 4, 1)
	if h.Zero != 2 { // 0 and 0.5 below 10^0
		t.Errorf("zero bucket = %d, want 2", h.Zero)
	}
	if h.Over != 1 { // 1e9 beyond 10^4
		t.Errorf("over = %d, want 1", h.Over)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[3] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	// Add with a multiplicity bins exactly like that many repeats.
	h2 := NewLogHistogram(nil, 0, 4, 1)
	for _, x := range xs {
		h2.Add(x, 2)
	}
	for i, c := range h.Counts {
		if h2.Counts[i] != 2*c {
			t.Errorf("bin %d: %d, Add×2 %d", i, c, h2.Counts[i])
		}
	}
	if h2.Zero != 2*h.Zero || h2.Over != 2*h.Over {
		t.Errorf("zero/over: %d/%d, Add×2 %d/%d", h.Zero, h.Over, h2.Zero, h2.Over)
	}
	d := NewLogHistogram(nil, 4, 4, 1)
	d.Add(1, 3)
	if d.Zero+d.Over != 0 {
		t.Error("an empty exponent range counted a value")
	}
	// Geometric bin center of the first decade bin with 1 bin/decade:
	// 10^0.5.
	if c := h.BinCenter(0); math.Abs(c-math.Sqrt(10)) > 1e-9 {
		t.Errorf("bin center = %v", c)
	}
}

func TestLogHistogramModes(t *testing.T) {
	// Bimodal: peaks near 10 s and near 10^4 s.
	var xs []float64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		xs = append(xs, math.Exp(rng.NormFloat64()*0.3+math.Log(10)))
		xs = append(xs, math.Exp(rng.NormFloat64()*0.3+math.Log(10000)))
	}
	h := NewLogHistogram(xs, 0, 7, 2)
	if m := h.Modes(1, 0.25); m != 2 {
		t.Errorf("bimodal sample: modes = %d, want 2", m)
	}
	// Unimodal.
	var ys []float64
	for i := 0; i < 1000; i++ {
		ys = append(ys, math.Exp(rng.NormFloat64()*0.4+math.Log(1000)))
	}
	h2 := NewLogHistogram(ys, 0, 7, 2)
	if m := h2.Modes(1, 0.25); m != 1 {
		t.Errorf("unimodal sample: modes = %d, want 1", m)
	}
}

func TestFitExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() / 0.25 // lambda 0.25
	}
	fit, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Lambda-0.25) > 0.01 {
		t.Errorf("lambda = %v, want ~0.25", fit.Lambda)
	}
	if _, err := FitExponential([]float64{0, -1}); err == nil {
		t.Error("no positive data must error")
	}
	if fit.CDF(0) != 0 || fit.CDF(-5) != 0 {
		t.Error("CDF must be 0 at and below 0")
	}
	if c := fit.CDF(1 / fit.Lambda); math.Abs(c-(1-math.Exp(-1))) > 1e-9 {
		t.Errorf("CDF at mean = %v", c)
	}
}

func TestFitLognormal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()*0.7 + 2.0)
	}
	fit, err := FitLognormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mu-2.0) > 0.03 || math.Abs(fit.Sigma-0.7) > 0.03 {
		t.Errorf("fit = %+v, want mu 2 sigma 0.7", fit)
	}
	// Median of lognormal is exp(mu).
	if c := fit.CDF(math.Exp(fit.Mu)); math.Abs(c-0.5) > 1e-9 {
		t.Errorf("CDF at median = %v, want 0.5", c)
	}
	if _, err := FitLognormal([]float64{1}); err == nil {
		t.Error("one point is not enough")
	}
}

func TestKSTestAcceptsMatchingDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 10
	}
	fit, _ := FitExponential(xs)
	res, err := KSTest(xs, fit)
	if err != nil {
		t.Fatal(err)
	}
	if res.D > 0.05 {
		t.Errorf("KS D = %v for matching data, want small", res.D)
	}
	if res.PValue < 0.01 {
		t.Errorf("p = %v for matching data, want not rejected", res.PValue)
	}
}

func TestKSTestRejectsMismatchedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Heavy-tailed lognormal data against an exponential fit: the
	// paper's "very poor statistical goodness-of-fit metrics" case.
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()*2 + 1)
	}
	fit, _ := FitExponential(xs)
	res, err := KSTest(xs, fit)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("p = %v for mismatched data, want rejection", res.PValue)
	}
}

func TestBucketCounts(t *testing.T) {
	start := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(3 * time.Hour)
	times := []time.Time{
		start, start.Add(30 * time.Minute), start.Add(90 * time.Minute),
		start.Add(-time.Hour),     // before window
		end.Add(10 * time.Minute), // after window
	}
	counts := BucketCounts(times, start, end, time.Hour)
	if len(counts) != 3 {
		t.Fatalf("buckets = %v", counts)
	}
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 0 {
		t.Errorf("counts = %v", counts)
	}
	if BucketCounts(times, end, start, time.Hour) != nil {
		t.Error("inverted window must be nil")
	}
}

func TestRankSources(t *testing.T) {
	ranked := RankSources([]string{"b", "a", "b", "c", "b", "a"})
	if ranked[0].Source != "b" || ranked[0].Count != 3 {
		t.Errorf("top = %+v", ranked[0])
	}
	if ranked[1].Source != "a" || ranked[2].Source != "c" {
		t.Errorf("order = %+v", ranked)
	}
}

func TestDetectChangePointsStep(t *testing.T) {
	counts := make([]int, 200)
	for i := range counts {
		if i < 80 {
			counts[i] = 10
		} else {
			counts[i] = 40
		}
	}
	// Mild noise.
	rng := rand.New(rand.NewSource(7))
	for i := range counts {
		counts[i] += rng.Intn(5)
	}
	cps := DetectChangePoints(counts, 3, 10)
	if len(cps) == 0 {
		t.Fatal("no change point found for an obvious step")
	}
	best := cps[0]
	for _, cp := range cps {
		if cp.Score > best.Score {
			best = cp
		}
	}
	if best.Index < 75 || best.Index > 85 {
		t.Errorf("change point at %d, want ~80", best.Index)
	}
	if best.After < best.Before {
		t.Error("step is upward; After must exceed Before")
	}
}

func TestDetectChangePointsFlatSeries(t *testing.T) {
	counts := make([]int, 100)
	rng := rand.New(rand.NewSource(8))
	for i := range counts {
		counts[i] = 20 + rng.Intn(3)
	}
	if cps := DetectChangePoints(counts, 3, 30); len(cps) != 0 {
		t.Errorf("flat series produced change points: %+v", cps)
	}
	if cps := DetectChangePoints(counts[:5], 3, 1); len(cps) != 0 {
		t.Error("too-short series must yield nothing")
	}
}

func TestPearsonCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if c := PearsonCorrelation(a, b); math.Abs(c-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", c)
	}
	inv := []float64{10, 8, 6, 4, 2}
	if c := PearsonCorrelation(a, inv); math.Abs(c+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", c)
	}
	if PearsonCorrelation(a, []float64{1, 1, 1, 1, 1}) != 0 {
		t.Error("constant series must give 0")
	}
	if PearsonCorrelation(a, b[:3]) != 0 {
		t.Error("length mismatch must give 0")
	}
}

func TestCorrelateEventSeries(t *testing.T) {
	start := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 0, 10)
	var a, b []time.Time
	// Correlated: b events shadow a events day by day.
	for day := 0; day < 10; day += 2 {
		for k := 0; k < 5; k++ {
			ts := start.AddDate(0, 0, day).Add(time.Duration(k) * time.Hour)
			a = append(a, ts)
			b = append(b, ts.Add(30*time.Minute))
		}
	}
	if c := CorrelateEventSeries(a, b, start, end, 24*time.Hour); c < 0.9 {
		t.Errorf("correlated series r = %v, want high", c)
	}
}
