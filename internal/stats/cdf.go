package stats

import (
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function over a set of
// observations. The paper's Figure 1 plots CDFs of inter-AEX delays; the
// experiment harness reproduces them with this type.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the observations. The input is
// copied and may be reused by the caller.
func NewCDF(xs []float64) *CDF {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return &CDF{sorted: cp}
}

// N reports the number of observations.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x), the fraction of observations at or below x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	// sort.SearchFloat64s returns the first index with sorted[i] >= x;
	// scan forward over ties so we count every observation <= x.
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 <= q <= 1) using nearest-rank
// interpolation. Quantile(0) is the minimum and Quantile(1) the maximum.
func (c *CDF) Quantile(q float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.sorted[lo]
	}
	frac := pos - float64(lo)
	return c.sorted[lo]*(1-frac) + c.sorted[hi]*frac
}

// Point is one (x, P(X<=x)) coordinate of a rendered CDF curve.
type Point struct {
	X float64
	P float64
}

// Points renders the CDF as a step curve with one point per distinct
// observation, suitable for plotting or for printing a figure's series.
func (c *CDF) Points() []Point {
	pts := make([]Point, 0, len(c.sorted))
	n := float64(len(c.sorted))
	for i := 0; i < len(c.sorted); i++ {
		// Collapse ties: emit one point per distinct value with the
		// cumulative probability after the last tie.
		if i+1 < len(c.sorted) && c.sorted[i+1] == c.sorted[i] {
			continue
		}
		pts = append(pts, Point{X: c.sorted[i], P: float64(i+1) / n})
	}
	return pts
}
