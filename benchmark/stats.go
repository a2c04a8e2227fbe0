package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is not modified; an empty slice gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quiet is how a timing metric is read from a run's segments. The
// segments do identical work, and what interference is left in the
// ones that count (see result.segments) mostly adds time, so a low
// quantile across them estimates the undisturbed cost. The lower
// quartile: not the minimum or a decile, so that the luckiest segments
// — a tick's CPU time booked to its neighbour, a drain timer that
// happened to fire early, a stall that batched three bursts into one
// wake-up — do not set the number. spread is the inter-quartile
// distance across the segments as a share of their median, printed
// beside the value so that a disturbed run is visible.
func quiet(xs []float64) (value, spread float64) {
	if m := median(xs); m != 0 {
		spread = (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
	}
	return quantile(xs, 0.25), spread
}

// percentileU32 returns the p-quantile (nearest rank) of sorted.
func percentileU32(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
