package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when a fit or test needs more points.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Distribution is a fitted one-dimensional distribution.
type Distribution interface {
	// Name identifies the family.
	Name() string
	// CDF evaluates the cumulative distribution at x.
	CDF(x float64) float64
	// Params returns the fitted parameters for reporting.
	Params() map[string]float64
}

// Exponential is an exponential distribution with rate Lambda.
type Exponential struct {
	Lambda float64
}

// Name implements Distribution.
func (e Exponential) Name() string { return "exponential" }

// CDF implements Distribution.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-e.Lambda*x)
}

// Params implements Distribution.
func (e Exponential) Params() map[string]float64 {
	return map[string]float64{"lambda": e.Lambda}
}

// FitExponential fits by maximum likelihood (lambda = 1/mean) over the
// positive values of xs.
func FitExponential(xs []float64) (Exponential, error) {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += x
			n++
		}
	}
	if n == 0 || sum == 0 {
		return Exponential{}, ErrInsufficientData
	}
	return Exponential{Lambda: float64(n) / sum}, nil
}

// Lognormal is a lognormal distribution: ln X ~ Normal(Mu, Sigma).
type Lognormal struct {
	Mu, Sigma float64
}

// Name implements Distribution.
func (l Lognormal) Name() string { return "lognormal" }

// CDF implements Distribution.
func (l Lognormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if l.Sigma == 0 {
		if math.Log(x) < l.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(math.Log(x)-l.Mu)/(l.Sigma*math.Sqrt2))
}

// Params implements Distribution.
func (l Lognormal) Params() map[string]float64 {
	return map[string]float64{"mu": l.Mu, "sigma": l.Sigma}
}

// FitLognormal fits by maximum likelihood over the positive values of xs
// (mu and sigma are the mean and standard deviation of the logs).
func FitLognormal(xs []float64) (Lognormal, error) {
	logs := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 {
			logs = append(logs, math.Log(x))
		}
	}
	if len(logs) < 2 {
		return Lognormal{}, ErrInsufficientData
	}
	mu := Mean(logs)
	// MLE sigma uses the population variance of the logs.
	sum := 0.0
	for _, l := range logs {
		d := l - mu
		sum += d * d
	}
	return Lognormal{Mu: mu, Sigma: math.Sqrt(sum / float64(len(logs)))}, nil
}

// KSResult is the Kolmogorov-Smirnov one-sample test outcome.
type KSResult struct {
	// D is the KS statistic: the supremum gap between the empirical and
	// fitted CDFs.
	D float64
	// N is the sample size used.
	N int
	// PValue is the asymptotic Kolmogorov p-value (small means the fit
	// is rejected — the paper's "very poor statistical goodness-of-fit
	// metrics" case).
	PValue float64
}

// KSTest computes the one-sample KS statistic of xs against dist.
func KSTest(xs []float64, dist Distribution) (KSResult, error) {
	pos := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	if len(pos) == 0 {
		return KSResult{}, ErrInsufficientData
	}
	sort.Float64s(pos)
	n := float64(len(pos))
	d := 0.0
	for i, x := range pos {
		f := dist.CDF(x)
		dPlus := (float64(i)+1)/n - f
		dMinus := f - float64(i)/n
		if dPlus > d {
			d = dPlus
		}
		if dMinus > d {
			d = dMinus
		}
	}
	return KSResult{D: d, N: len(pos), PValue: ksPValue(d, len(pos))}, nil
}

// ksPValue is the asymptotic Kolmogorov distribution tail probability.
func ksPValue(d float64, n int) float64 {
	if d <= 0 {
		return 1
	}
	lambda := (math.Sqrt(float64(n)) + 0.12 + 0.11/math.Sqrt(float64(n))) * d
	// Series sum_{k=1..} (-1)^{k-1} 2 exp(-2 k^2 lambda^2).
	sum := 0.0
	for k := 1; k <= 100; k++ {
		term := 2 * math.Exp(-2*float64(k*k)*lambda*lambda)
		if k%2 == 0 {
			term = -term
		}
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
	}
	if sum < 0 {
		return 0
	}
	if sum > 1 {
		return 1
	}
	return sum
}
