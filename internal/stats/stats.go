// Package stats provides the small statistical toolkit the experiment
// harness uses to verify the paper's scaling claims: summary statistics
// and least-squares power-law fits on log–log data.
package stats

import (
	"fmt"
	"math"
	"slices"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation of xs (0 for fewer than two
// samples).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation; it panics on empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	ys := append([]float64(nil), xs...)
	slices.Sort(ys)
	return quantileSorted(ys, q)
}

// quantileSorted is Quantile on an already-sorted slice, letting callers
// that need several quantiles (Summarize, Running.Summary) copy and sort
// the sample once instead of once per quantile.
func quantileSorted(ys []float64, q float64) float64 {
	if q <= 0 {
		return ys[0]
	}
	if q >= 1 {
		return ys[len(ys)-1]
	}
	pos := q * float64(len(ys)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(ys) {
		return ys[len(ys)-1]
	}
	return ys[lo]*(1-frac) + ys[lo+1]*frac
}

// Max returns the maximum of xs; it panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary is a compact distribution description.
type Summary struct {
	N                  int
	Mean, Std          float64
	P50, P90, P99, Max float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	ys := append([]float64(nil), xs...)
	slices.Sort(ys)
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  Std(xs),
		P50:  quantileSorted(ys, 0.5),
		P90:  quantileSorted(ys, 0.9),
		P99:  quantileSorted(ys, 0.99),
		Max:  ys[len(ys)-1],
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f",
		s.N, s.Mean, s.Std, s.P50, s.P90, s.P99, s.Max)
}

// PowerFit is the least-squares fit y ≈ Coeff · x^Exp on log–log scale,
// with R2 the coefficient of determination in log space.
type PowerFit struct {
	Coeff, Exp, R2 float64
}

// FitPower fits y = c·x^e to positive data points by linear regression on
// (log x, log y). It panics if fewer than two points or any non-positive
// value is supplied.
func FitPower(xs, ys []float64) PowerFit {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: FitPower needs >= 2 paired points")
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic("stats: FitPower requires positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	slope, intercept, r2 := linreg(lx, ly)
	return PowerFit{Coeff: math.Exp(intercept), Exp: slope, R2: r2}
}

// LineFit is the least-squares fit y ≈ Intercept + Slope·x, with R2 the
// coefficient of determination.
type LineFit struct {
	Slope, Intercept, R2 float64
}

// FitLine fits y = a + b·x by ordinary least squares over every point. It
// panics if fewer than two paired points are supplied.
func FitLine(xs, ys []float64) LineFit {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: FitLine needs >= 2 paired points")
	}
	slope, intercept, r2 := linreg(xs, ys)
	return LineFit{Slope: slope, Intercept: intercept, R2: r2}
}

// linreg returns the least-squares slope, intercept and R² of y on x.
func linreg(xs, ys []float64) (slope, intercept, r2 float64) {
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, my, 0
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return slope, intercept, r2
}
