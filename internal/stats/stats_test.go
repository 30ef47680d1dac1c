package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{1}) != 0 {
		t.Fatal("empty/singleton edge cases wrong")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Mean(xs), 5, 1e-12) {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if !almost(Std(xs), 2.138, 0.001) {
		t.Fatalf("std = %v", Std(xs))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extremes wrong")
	}
	if !almost(Quantile(xs, 0.5), 3, 1e-12) {
		t.Fatalf("median = %v", Quantile(xs, 0.5))
	}
	if !almost(Quantile(xs, 0.25), 2, 1e-12) {
		t.Fatalf("q25 = %v", Quantile(xs, 0.25))
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.N != 5 || s.Max != 100 || s.P50 != 3 {
		t.Fatalf("summary %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary")
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestFitPowerExact(t *testing.T) {
	// y = 3 x^2 exactly.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	f := FitPower(xs, ys)
	if !almost(f.Exp, 2, 1e-9) || !almost(f.Coeff, 3, 1e-9) || !almost(f.R2, 1, 1e-9) {
		t.Fatalf("fit %+v", f)
	}
}

func TestFitPowerNoisy(t *testing.T) {
	xs := []float64{10, 20, 40, 80, 160, 320}
	ys := []float64{105, 195, 410, 790, 1620, 3150} // ~ 10x
	f := FitPower(xs, ys)
	if !almost(f.Exp, 1, 0.05) {
		t.Fatalf("exponent %v, want ~1", f.Exp)
	}
	if f.R2 < 0.99 {
		t.Fatalf("r2 %v", f.R2)
	}
}

func TestFitLine(t *testing.T) {
	// y = 2.5 + 0.5 x exactly, over every point (not just the endpoints).
	f := FitLine([]float64{6, 7, 8, 9}, []float64{5.5, 6, 6.5, 7})
	if !almost(f.Slope, 0.5, 1e-9) || !almost(f.Intercept, 2.5, 1e-9) || !almost(f.R2, 1, 1e-9) {
		t.Fatalf("fit %+v", f)
	}
	// An interior outlier moves the least-squares slope but not the
	// endpoint one: 0, 10, 0, 0 fits slope -1.
	if f := FitLine([]float64{0, 1, 2, 3}, []float64{0, 10, 0, 0}); !almost(f.Slope, -1, 1e-9) {
		t.Fatalf("outlier fit %+v, want slope -1", f)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a single point")
		}
	}()
	FitLine([]float64{1}, []float64{1})
}

func TestFitPowerPanics(t *testing.T) {
	for _, tc := range [][2][]float64{
		{{1}, {1}},
		{{1, 2}, {1, -2}},
		{{1, 2}, {1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for %v", tc)
				}
			}()
			FitPower(tc[0], tc[1])
		}()
	}
}

func TestQuickQuantileWithinRange(t *testing.T) {
	if err := quick.Check(func(raw []float64, q float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q = math.Abs(q)
		q -= math.Floor(q)
		v := Quantile(xs, q)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return v >= lo && v <= hi
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
