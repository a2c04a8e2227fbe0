// Package marzullo implements Marzullo's interval-intersection
// algorithm (Marzullo & Owicki, 1983), the classic building block of
// clock-selection in NTP-style synchronization.
//
// Given per-clock confidence intervals t_i ± e_i, the algorithm finds
// the interval covered by the largest number of clocks. Clocks whose
// intervals contain that intersection are "true-chimers"; the rest are
// "false-tickers". The paper's Section V proposes exactly this to stop
// a compromised fast clock from dragging honest Triad nodes: a peer
// timestamp is only trusted if it is consistent with a majority clique
// of clocks.
package marzullo

import (
	"cmp"
	"slices"
)

// Interval is one clock's confidence interval [Lo, Hi] (inclusive), in
// nanoseconds of reference time.
type Interval struct {
	Lo, Hi int64
}

// Valid reports whether the interval is non-empty.
func (iv Interval) Valid() bool { return iv.Lo <= iv.Hi }

// Contains reports whether t lies in the interval.
func (iv Interval) Contains(t int64) bool { return iv.Lo <= t && t <= iv.Hi }

// Overlaps reports whether two intervals share at least one point.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// Midpoint returns the interval's midpoint (the consensus timestamp a
// caller typically adopts), rounded toward Lo.
func (iv Interval) Midpoint() int64 {
	// Average without overflow: the width Hi-Lo can exceed MaxInt64
	// (e.g. Lo near MinInt64, Hi near MaxInt64), but it always fits in
	// a uint64, and adding half of it back to Lo wraps modulo 2^64
	// straight to the right two's-complement answer.
	return int64(uint64(iv.Lo) + (uint64(iv.Hi)-uint64(iv.Lo))/2)
}

// edge is an interval's opening (delta +1) at Lo or its closing (delta
// -1) after Hi.
type edge struct {
	at    int64
	delta int
}

// compareEdges orders edges by instant, opens before closes at the same
// instant: intervals are closed, so touching endpoints count as
// overlap. Edges it calls equal are equal, so the sort's result is one.
func compareEdges(a, b edge) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return b.delta - a.delta
}

// stackEdges is how many edges Intersect sorts without a heap buffer:
// the intervals of 32 clocks.
const stackEdges = 64

// Intersect finds the interval covered by the maximum number of input
// intervals and that count. Invalid (empty) intervals are ignored. With
// no valid inputs it returns count 0. Up to 32 intervals it allocates
// nothing.
//
// Ties are resolved toward the earliest such interval, matching the
// original algorithm's sweep order.
func Intersect(intervals []Interval) (Interval, int) {
	var buf [stackEdges]edge
	edges := buf[:0]
	if 2*len(intervals) > stackEdges {
		edges = make([]edge, 0, 2*len(intervals))
	}
	for _, iv := range intervals {
		if !iv.Valid() {
			continue
		}
		edges = append(edges, edge{at: iv.Lo, delta: +1}, edge{at: iv.Hi, delta: -1})
	}
	if len(edges) == 0 {
		return Interval{}, 0
	}
	slices.SortFunc(edges, compareEdges)
	best, bestCount := Interval{}, 0
	count := 0
	for i, e := range edges {
		count += e.delta
		if count > bestCount {
			bestCount = count
			best.Lo = e.at
			// The region of this coverage extends to the next edge.
			if i+1 < len(edges) {
				best.Hi = edges[i+1].at
			} else {
				best.Hi = e.at
			}
		}
	}
	return best, bestCount
}

// TrueChimers returns the indices of the intervals consistent with the
// best intersection (those that overlap it). With no valid inputs it
// returns nil.
func TrueChimers(intervals []Interval) []int {
	best, count := Intersect(intervals)
	if count == 0 {
		return nil
	}
	var out []int
	for i, iv := range intervals {
		if iv.Valid() && iv.Overlaps(best) {
			out = append(out, i)
		}
	}
	return out
}

// MajorityAgrees reports whether the best intersection is supported by
// a strict majority of the n clocks submitted (the honest-majority
// assumption of Section V).
func MajorityAgrees(intervals []Interval, n int) (Interval, bool) {
	best, count := Intersect(intervals)
	return best, count*2 > n
}
