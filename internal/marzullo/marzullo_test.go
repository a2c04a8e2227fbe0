package marzullo

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 10, Hi: 20}
	if !iv.Valid() || !iv.Contains(10) || !iv.Contains(20) || iv.Contains(21) {
		t.Error("Interval basics broken")
	}
	if iv.Midpoint() != 15 {
		t.Errorf("Midpoint = %d", iv.Midpoint())
	}
	if (Interval{Lo: 5, Hi: 4}).Valid() {
		t.Error("inverted interval should be invalid")
	}
	if !iv.Overlaps(Interval{Lo: 20, Hi: 30}) {
		t.Error("touching endpoints should overlap (closed intervals)")
	}
	if iv.Overlaps(Interval{Lo: 21, Hi: 30}) {
		t.Error("disjoint intervals should not overlap")
	}
}

func TestMidpointNoOverflow(t *testing.T) {
	iv := Interval{Lo: 1<<62 + 2, Hi: 1<<62 + 10}
	if got := iv.Midpoint(); got != 1<<62+6 {
		t.Errorf("Midpoint = %d", got)
	}
}

func TestIntersectAllOverlap(t *testing.T) {
	ivs := []Interval{{0, 10}, {5, 15}, {8, 20}}
	best, count := Intersect(ivs)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if best.Lo != 8 || best.Hi != 10 {
		t.Errorf("best = %+v, want [8,10]", best)
	}
}

func TestIntersectMajorityExcludesOutlier(t *testing.T) {
	// Three honest clocks agree around 100; a compromised fast clock
	// claims ~500. The intersection covers only the honest three.
	ivs := []Interval{{95, 105}, {98, 108}, {93, 103}, {495, 505}}
	best, count := Intersect(ivs)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if best.Lo < 93 || best.Hi > 108 {
		t.Errorf("best = %+v, want inside the honest cluster", best)
	}
	chimers := TrueChimers(ivs)
	if len(chimers) != 3 || chimers[0] != 0 || chimers[1] != 1 || chimers[2] != 2 {
		t.Errorf("chimers = %v, want [0 1 2]", chimers)
	}
}

func TestIntersectDisjoint(t *testing.T) {
	ivs := []Interval{{0, 1}, {10, 11}, {20, 21}}
	_, count := Intersect(ivs)
	if count != 1 {
		t.Errorf("count = %d, want 1 (all disjoint)", count)
	}
}

func TestIntersectIgnoresInvalid(t *testing.T) {
	ivs := []Interval{{10, 5}, {0, 10}, {5, 15}}
	best, count := Intersect(ivs)
	if count != 2 || best.Lo != 5 || best.Hi != 10 {
		t.Errorf("best/count = %+v/%d", best, count)
	}
}

func TestIntersectEmpty(t *testing.T) {
	if _, count := Intersect(nil); count != 0 {
		t.Error("empty input should give count 0")
	}
	if got := TrueChimers(nil); got != nil {
		t.Errorf("TrueChimers(nil) = %v", got)
	}
	if _, count := Intersect([]Interval{{5, 4}}); count != 0 {
		t.Error("only-invalid input should give count 0")
	}
}

func TestIntersectTouchingEndpoints(t *testing.T) {
	ivs := []Interval{{0, 10}, {10, 20}}
	best, count := Intersect(ivs)
	if count != 2 || best.Lo != 10 || best.Hi != 10 {
		t.Errorf("touching intervals: best/count = %+v/%d, want [10,10]/2", best, count)
	}
}

func TestMajorityAgrees(t *testing.T) {
	honest := []Interval{{95, 105}, {98, 108}, {93, 103}}
	if _, ok := MajorityAgrees(honest, 3); !ok {
		t.Error("3/3 agreement should be a majority")
	}
	split := []Interval{{0, 1}, {100, 101}}
	if _, ok := MajorityAgrees(split, 2); ok {
		t.Error("1-of-2 should not be a strict majority")
	}
	// Count from a subset of a larger cluster.
	if _, ok := MajorityAgrees(honest, 7); !ok == false {
		t.Error("3 of 7 is not a strict majority")
	}
}

func TestIntersectProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := int64(rng.IntN(1000))
			ivs[i] = Interval{Lo: lo, Hi: lo + int64(rng.IntN(100))}
		}
		best, count := Intersect(ivs)
		if count < 1 || count > n {
			return false
		}
		// Verify the claimed coverage by brute force at the midpoint.
		mid := best.Midpoint()
		covering := 0
		for _, iv := range ivs {
			if iv.Contains(mid) {
				covering++
			}
		}
		if covering != count {
			return false
		}
		// No single point is covered by more than count intervals.
		for p := int64(0); p <= 1100; p++ {
			c := 0
			for _, iv := range ivs {
				if iv.Contains(p) {
					c++
				}
			}
			if c > count {
				return false
			}
		}
		// Every reported true-chimer overlaps the best interval.
		for _, i := range TrueChimers(ivs) {
			if !ivs[i].Overlaps(best) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// intersectSortSlice is Intersect as it was written with sort.Slice,
// the reference its allocation-free sort must match.
func intersectSortSlice(intervals []Interval) (Interval, int) {
	var edges []edge
	for _, iv := range intervals {
		if iv.Valid() {
			edges = append(edges, edge{at: iv.Lo, delta: +1}, edge{at: iv.Hi, delta: -1})
		}
	}
	if len(edges) == 0 {
		return Interval{}, 0
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta > edges[j].delta
	})
	best, bestCount, count := Interval{}, 0, 0
	for i, e := range edges {
		count += e.delta
		if count > bestCount {
			bestCount, best.Lo, best.Hi = count, e.at, e.at
			if i+1 < len(edges) {
				best.Hi = edges[i+1].at
			}
		}
	}
	return best, bestCount
}

// TestIntersectMatchesSortSlice: on random intervals over a narrow range
// — many shared and touching endpoints, some invalid intervals, and
// inputs past the stack buffer — Intersect returns what the sort.Slice
// version returned.
func TestIntersectMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 5000; trial++ {
		ivs := make([]Interval, rng.IntN(3*stackEdges/2))
		for i := range ivs {
			lo := int64(rng.IntN(20))
			ivs[i] = Interval{Lo: lo, Hi: lo + int64(rng.IntN(8)) - 1}
		}
		gotIv, gotN := Intersect(ivs)
		wantIv, wantN := intersectSortSlice(ivs)
		if gotIv != wantIv || gotN != wantN {
			t.Fatalf("%v: Intersect gives %+v/%d, the sort.Slice version %+v/%d", ivs, gotIv, gotN, wantIv, wantN)
		}
	}
}

// TestIntersectZeroAlloc: up to stackEdges/2 intervals, Intersect sorts
// on the stack.
func TestIntersectZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	ivs := make([]Interval, stackEdges/2)
	for i := range ivs {
		lo := int64(rng.IntN(1000))
		ivs[i] = Interval{Lo: lo, Hi: lo + int64(rng.IntN(200))}
	}
	if allocs := testing.AllocsPerRun(100, func() { Intersect(ivs) }); allocs != 0 {
		t.Errorf("Intersect of %d intervals allocates %.1f objects, want 0", len(ivs), allocs)
	}
}

func BenchmarkIntersect(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	ivs := make([]Interval, 16)
	for i := range ivs {
		lo := int64(rng.IntN(1000))
		ivs[i] = Interval{Lo: lo, Hi: lo + int64(rng.IntN(200))}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Intersect(ivs)
	}
}
