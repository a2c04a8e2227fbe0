package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sample is one (x, y) observation fed to a regression. In Triad's
// calibration, x is the sleep duration requested from the Time Authority
// (in seconds of reference time) and y is the TSC increment measured over
// the uninterrupted roundtrip.
type Sample struct {
	X float64
	Y float64
}

// Fit is the result of a linear regression y = Slope*x + Intercept.
// For calibration, Slope is the estimated TSC rate in ticks per second
// and Intercept absorbs the roundtrip network delay (in ticks).
type Fit struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination in [0, 1]; it is 1 for a
	// perfect linear fit and NaN when the variance of y is zero.
	R2 float64
	// N is the number of samples the fit was computed from.
	N int
}

// Eval returns the fitted value at x.
func (f Fit) Eval(x float64) float64 { return f.Slope*x + f.Intercept }

var (
	// ErrTooFewSamples is returned when a regression is requested over
	// fewer than two samples.
	ErrTooFewSamples = errors.New("stats: regression needs at least two samples")
	// ErrDegenerateX is returned when all x values coincide, so no slope
	// can be identified.
	ErrDegenerateX = errors.New("stats: regression x values are all identical")
)

// OLS computes an ordinary least-squares fit of y on x. This mirrors the
// paper's calibration: a regression over requested waittimes and measured
// TSC increments whose slope is the TSC increment rate with respect to the
// Time Authority's reference time.
func OLS(samples []Sample) (Fit, error) {
	n := len(samples)
	if n < 2 {
		return Fit{}, ErrTooFewSamples
	}
	var sx, sy float64
	for _, s := range samples {
		sx += s.X
		sy += s.Y
	}
	mx := sx / float64(n)
	my := sy / float64(n)
	var sxx, sxy, syy float64
	for _, s := range samples {
		dx := s.X - mx
		dy := s.Y - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, ErrDegenerateX
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := math.NaN()
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2, N: n}, nil
}

// TheilSen computes a robust median-of-pairwise-slopes fit. The resilient
// protocol variant (DESIGN.md §V) uses it so that a minority of delayed
// calibration responses cannot steer the estimated TSC rate, unlike OLS
// where a single delayed high-s or low-s response shifts the slope.
func TheilSen(samples []Sample) (Fit, error) {
	n := len(samples)
	if n < 2 {
		return Fit{}, ErrTooFewSamples
	}
	slopes := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := samples[j].X - samples[i].X
			if dx == 0 {
				continue
			}
			slopes = append(slopes, (samples[j].Y-samples[i].Y)/dx)
		}
	}
	if len(slopes) == 0 {
		return Fit{}, ErrDegenerateX
	}
	slope := Median(slopes)
	// Intercept: median of residual offsets, the standard Theil-Sen choice.
	offsets := make([]float64, len(samples))
	for i, s := range samples {
		offsets[i] = s.Y - slope*s.X
	}
	intercept := Median(offsets)
	return Fit{Slope: slope, Intercept: intercept, R2: math.NaN(), N: n}, nil
}

// Median returns the median of xs. It copies the input, so the caller's
// slice is left untouched. It returns NaN for an empty slice.
func Median(xs []float64) float64 {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	return MedianInPlace(cp)
}

// MedianInPlace is Median for a caller that owns xs and has no further
// use for its order: it sorts xs itself instead of a copy.
func MedianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// PPM expresses the relative error of got with respect to want in
// parts-per-million. The paper reports calibrated-clock drift rates this
// way (e.g. "all nodes drift at around 110ppm").
func PPM(got, want float64) float64 {
	if want == 0 {
		return math.NaN()
	}
	return (got - want) / want * 1e6
}

// FormatHz renders a frequency in MHz with the precision used by the
// paper's figure captions (e.g. "2900.089MHz").
func FormatHz(hz float64) string {
	return fmt.Sprintf("%.3fMHz", hz/1e6)
}
