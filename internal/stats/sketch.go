package stats

import "math"

// Sketch layout: power-of-two octaves split log-linearly into
// sketchSubBuckets slices. The covered magnitude range is
// [2^sketchMinExp, 2^sketchMaxExp); values outside clamp into the edge
// buckets (like metrics.Histogram's overflow bucket, a known bound is
// reported rather than an extrapolation).
const (
	sketchSubBuckets = 8
	sketchMinExp     = -64 // 2^-64 ≈ 5.4e-20: far below any observable
	sketchMaxExp     = 64  // 2^64 ≈ 1.8e19: far above any observable
	sketchBuckets    = (sketchMaxExp - sketchMinExp) * sketchSubBuckets
)

// Sketch is a fixed-memory streaming quantile/CDF accumulator: a
// power-of-two-bucket histogram with log-linear sub-buckets and
// interpolated quantiles, the float64 counterpart of
// metrics.Histogram. Adding a sample is O(1) and allocation-free, the
// memory footprint is fixed at construction-free (the zero value is
// ready to use), and quantiles resolve to within one bucket width —
// a relative error of 2^(1/8)-1 ≈ 9% — which is what lets experiment
// figures stop retaining per-sample []float64 slices at thousand-node
// scale. Signed values are supported: negatives mirror into their own
// bucket array, zeros get a dedicated counter.
type Sketch struct {
	pos  [sketchBuckets]uint32
	neg  [sketchBuckets]uint32
	zero uint64
	n    uint64
	sum  float64
	min  float64
	max  float64
}

// sketchBucket maps a positive magnitude to its bucket index.
func sketchBucket(x float64) int {
	frac, exp := math.Frexp(x) // x = frac * 2^exp, frac in [0.5, 1)
	// Octave [2^(exp-1), 2^exp) holds x; slice it log-linearly by frac.
	idx := (exp-1-sketchMinExp)*sketchSubBuckets + int((frac*2-1)*sketchSubBuckets)
	if idx < 0 {
		return 0
	}
	if idx >= sketchBuckets {
		return sketchBuckets - 1
	}
	return idx
}

// sketchBounds returns bucket i's value range [lo, hi).
func sketchBounds(i int) (lo, hi float64) {
	oct := i / sketchSubBuckets
	sub := i % sketchSubBuckets
	base := math.Ldexp(1, oct+sketchMinExp) // 2^(minExp+oct): octave lower edge
	w := base / sketchSubBuckets
	return base + float64(sub)*w, base + float64(sub+1)*w
}

// Add folds one observation into the sketch. NaN is ignored (a
// telemetry path must never poison the aggregate); infinities clamp
// into the edge buckets.
//
//triad:hotpath
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		s.min = math.Min(s.min, x)
		s.max = math.Max(s.max, x)
	}
	s.n++
	s.sum += x
	switch {
	case x == 0:
		s.zero++
	case x > 0:
		s.pos[sketchBucket(x)]++
	default:
		s.neg[sketchBucket(-x)]++
	}
}

// N reports the number of observations recorded.
func (s *Sketch) N() int { return int(s.n) }

// Min reports the smallest observation, or 0 if none were added.
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max reports the largest observation, or 0 if none were added.
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Mean reports the arithmetic mean, or 0 if no observations were added.
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Merge folds another sketch's observations into this one. Merging is
// exact: the combined sketch is identical to one that saw both input
// streams, which is what lets partition-parallel simulations aggregate
// per-node distributions deterministically.
func (s *Sketch) Merge(o *Sketch) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		s.min, s.max = o.min, o.max
	} else {
		s.min = math.Min(s.min, o.min)
		s.max = math.Max(s.max, o.max)
	}
	for i := range s.pos {
		s.pos[i] += o.pos[i]
		s.neg[i] += o.neg[i]
	}
	s.zero += o.zero
	s.n += o.n
	s.sum += o.sum
}

// Reset forgets all observations, returning the sketch to its zero
// state so pooled accumulators can be reused across runs.
func (s *Sketch) Reset() { *s = Sketch{} }

// Quantile estimates the q-quantile (q in [0,1]; values outside clamp)
// by linear interpolation within the covering bucket, mirroring
// metrics.HistogramSnapshot.Quantile. The estimate is clamped to the
// observed [Min, Max], which pins the distribution's edges exactly.
// An empty sketch reports 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.n)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	est, done := s.quantileScan(&cum, rank)
	if !done {
		est = s.max
	}
	return math.Min(math.Max(est, s.min), s.max)
}

// quantileScan walks buckets in ascending value order — negatives from
// largest magnitude down, the zero bucket, then positives — and
// interpolates inside the bucket covering rank.
func (s *Sketch) quantileScan(cum *float64, rank float64) (float64, bool) {
	for i := sketchBuckets - 1; i >= 0; i-- {
		c := s.neg[i]
		if c == 0 {
			continue
		}
		lo, hi := sketchBounds(i)
		// Bucket holds magnitudes [lo, hi): as signed values the range is
		// (-hi, -lo], ascending from -hi toward -lo.
		if v, ok := interpolate(cum, rank, c, -hi, -lo); ok {
			return v, true
		}
	}
	if s.zero > 0 {
		if v, ok := interpolate(cum, rank, uint32(min64(s.zero, math.MaxUint32)), 0, 0); ok {
			return v, true
		}
		// A zero run longer than the uint32 clamp still sits at 0.
		if *cum += float64(s.zero) - float64(min64(s.zero, math.MaxUint32)); *cum >= rank {
			return 0, true
		}
	}
	for i := 0; i < sketchBuckets; i++ {
		c := s.pos[i]
		if c == 0 {
			continue
		}
		lo, hi := sketchBounds(i)
		if v, ok := interpolate(cum, rank, c, lo, hi); ok {
			return v, true
		}
	}
	return 0, false
}

// interpolate advances the cumulative count over one bucket and, if the
// rank lands inside it, returns the linearly interpolated value.
func interpolate(cum *float64, rank float64, count uint32, lo, hi float64) (float64, bool) {
	c := float64(count)
	if *cum+c < rank {
		*cum += c
		return 0, false
	}
	frac := (rank - *cum) / c
	return lo + frac*(hi-lo), true
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// At returns the empirical CDF value P(X <= x): the fraction of
// observations in buckets entirely at or below x, counting the
// covering bucket fractionally. Exact at bucket boundaries, within one
// bucket width elsewhere.
func (s *Sketch) At(x float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	// The extremes are tracked exactly, so outside them the answer is
	// known — and this also covers magnitudes clamped into the edge
	// buckets, whose bucket bounds misstate the sample's true value.
	if x >= s.max {
		return 1
	}
	if x < s.min {
		return 0
	}
	var cum float64
	for i := sketchBuckets - 1; i >= 0; i-- {
		if c := s.neg[i]; c != 0 {
			lo, hi := sketchBounds(i)
			cum += fracBelow(float64(c), -hi, -lo, x)
		}
	}
	if x >= 0 {
		cum += float64(s.zero)
	}
	for i := 0; i < sketchBuckets; i++ {
		if c := s.pos[i]; c != 0 {
			lo, hi := sketchBounds(i)
			cum += fracBelow(float64(c), lo, hi, x)
		}
	}
	return cum / float64(s.n)
}

// fracBelow reports how much of a bucket's count lies at or below x,
// taking the count as uniformly spread over [lo, hi).
func fracBelow(count, lo, hi, x float64) float64 {
	switch {
	case x < lo:
		return 0
	case x >= hi:
		return count
	default:
		return count * (x - lo) / (hi - lo)
	}
}
