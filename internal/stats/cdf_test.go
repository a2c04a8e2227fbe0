package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{10, 532, 1590}) // the Triad-like gap values, in ms
	if c.N() != 3 {
		t.Fatalf("N = %d, want 3", c.N())
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{5, 0},
		{10, 1.0 / 3},
		{531, 1.0 / 3},
		{532, 2.0 / 3},
		{1590, 1},
		{1e9, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.At(0)) || !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF should report NaN")
	}
}

func TestCDFWithTies(t *testing.T) {
	c := NewCDF([]float64{1, 1, 1, 2})
	if got := c.At(1); got != 0.75 {
		t.Errorf("At(1) = %v, want 0.75", got)
	}
	pts := c.Points()
	if len(pts) != 2 {
		t.Fatalf("Points() collapsed ties into %d points, want 2", len(pts))
	}
	if pts[0] != (Point{X: 1, P: 0.75}) || pts[1] != (Point{X: 2, P: 1}) {
		t.Errorf("Points() = %v", pts)
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {-1, 1}, {2, 5},
	}
	for _, tt := range tests {
		if got := c.Quantile(tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestCDFQuantileInterpolates(t *testing.T) {
	c := NewCDF([]float64{0, 10})
	if got := c.Quantile(0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %v, want 5", got)
	}
}

func TestCDFProperties(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		c := NewCDF(clean)
		// Monotone non-decreasing over the observed range and ending at 1.
		pts := c.Points()
		prev := 0.0
		for _, p := range pts {
			if p.P < prev {
				return false
			}
			prev = p.P
		}
		if pts[len(pts)-1].P != 1 {
			return false
		}
		// Quantiles bounded by min/max.
		mn, mx := c.Quantile(0), c.Quantile(1)
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		return mn == sorted[0] && mx == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
