package engine

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"triadtime/internal/marzullo"
	"triadtime/internal/simnet"
	"triadtime/internal/wire"
)

// bruteQuorumDecide is the O(n²) oracle for the quorum decision: the
// maximum number of valid intervals sharing a point is found by
// scanning every interval's Lo endpoint, and the agreement rule is
// applied to that count directly.
func bruteQuorumDecide(intervals []marzullo.Interval, total, minAgree int) (int, bool) {
	best := 0
	for _, cand := range intervals {
		if !cand.Valid() {
			continue
		}
		n := 0
		for _, iv := range intervals {
			if iv.Valid() && iv.Lo <= cand.Lo && cand.Lo <= iv.Hi {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	if minAgree > 0 {
		return best, best >= minAgree
	}
	return best, best*2 > total
}

// TestQuorumDecideMatchesOracle drives QuorumDecide with randomized
// authority-interval sets — clustered readings with outliers, like
// real quorum rounds — and checks count and verdict against the
// brute-force oracle under both agreement rules.
func TestQuorumDecideMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 5000; trial++ {
		total := 1 + rng.IntN(7)
		responded := rng.IntN(total + 1)
		intervals := make([]marzullo.Interval, responded)
		for i := range intervals {
			// Cluster most readings near a common reference; make some
			// liars (big offsets) and occasionally an inverted interval.
			center := int64(rng.IntN(20)) - 10
			if rng.IntN(4) == 0 {
				center += int64(rng.IntN(2000)) - 1000
			}
			half := int64(rng.IntN(15))
			intervals[i] = marzullo.Interval{Lo: center - half, Hi: center + half}
			if rng.IntN(16) == 0 {
				intervals[i].Lo, intervals[i].Hi = intervals[i].Hi+1, intervals[i].Lo
			}
		}
		minAgree := 0
		if rng.IntN(2) == 0 {
			minAgree = 1 + rng.IntN(total)
		}

		best, count, ok := QuorumDecide(intervals, total, minAgree)
		wantCount, wantOK := bruteQuorumDecide(intervals, total, minAgree)
		if count != wantCount || ok != wantOK {
			t.Fatalf("QuorumDecide(%v, total=%d, minAgree=%d) = (count %d, ok %v), oracle (count %d, ok %v)",
				intervals, total, minAgree, count, ok, wantCount, wantOK)
		}
		if ok && count > 0 {
			// The adopted midpoint must be covered by `count` intervals:
			// the consensus time really is vouched for by the quorum.
			mid := best.Midpoint()
			covered := 0
			for _, iv := range intervals {
				if iv.Valid() && iv.Contains(mid) {
					covered++
				}
			}
			if covered < count {
				t.Fatalf("midpoint %d of %v covered by %d intervals, want >= %d", mid, best, covered, count)
			}
		}
	}
}

// TestQuorumDecideNoResponses: an empty round never agrees, under
// either rule.
func TestQuorumDecideNoResponses(t *testing.T) {
	if _, count, ok := QuorumDecide(nil, 5, 0); ok || count != 0 {
		t.Errorf("majority rule agreed on no intervals (count %d)", count)
	}
	if _, count, ok := QuorumDecide(nil, 5, 1); ok || count != 0 {
		t.Errorf("minAgree rule agreed on no intervals (count %d)", count)
	}
}

// TestQuorumDecideMinAgreeOverride: MinAgree=1 accepts a single
// responder that the majority rule would reject — the 2-authority
// availability trade-off.
func TestQuorumDecideMinAgreeOverride(t *testing.T) {
	one := []marzullo.Interval{{Lo: 90, Hi: 110}}
	if _, _, ok := QuorumDecide(one, 2, 0); ok {
		t.Error("1 of 2 must not be a strict majority")
	}
	if _, _, ok := QuorumDecide(one, 2, 1); !ok {
		t.Error("MinAgree=1 must accept a single responder")
	}
}

// TestQuorumConfigDefaults pins the documented defaults and the
// agreement thresholds derived from them.
func TestQuorumConfigDefaults(t *testing.T) {
	cfg := QuorumConfig{}.withDefaults()
	if cfg.ErrBudget != 10*time.Millisecond || cfg.CalibWindow != 2*time.Second ||
		cfg.MinCalibWindow != 250*time.Millisecond {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	shared, err := Config{Key: make([]byte, wire.KeySize), Addr: 1, Authority: 100}.withDefaults()
	if err != nil || shared.TATimeout != 250*time.Millisecond || shared.QuorumRecheck != 10*time.Second {
		t.Errorf("unexpected shared defaults: %+v (err %v)", shared, err)
	}
	needed := func(n, minAgree int) int {
		e := &Engine{cfg: Config{Authorities: make([]simnet.Addr, n), QuorumMinAgree: minAgree}}
		return e.quorumNeeded()
	}
	for _, c := range []struct{ n, want int }{{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}} {
		if got := needed(c.n, 0); got != c.want {
			t.Errorf("needed(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if got := needed(2, 1); got != 1 {
		t.Errorf("needed(2) with MinAgree=1 = %d, want 1", got)
	}
	// A window floor above the window collapses to the window.
	clamped := QuorumConfig{CalibWindow: time.Second, MinCalibWindow: 5 * time.Second}.withDefaults()
	if clamped.MinCalibWindow != time.Second {
		t.Errorf("MinCalibWindow not clamped: %v", clamped.MinCalibWindow)
	}
}

// TestStateServing pins which states serve timestamps.
func TestStateServing(t *testing.T) {
	serving := map[State]bool{
		StateInit: false, StateFullCalib: false, StateRefCalib: false,
		StateTainted: false, StateOK: true, StateDegraded: true,
	}
	for s, want := range serving {
		if got := s.Serving(); got != want {
			t.Errorf("%v.Serving() = %v, want %v", s, got, want)
		}
	}
	if StateDegraded.String() != "Degraded" {
		t.Errorf("StateDegraded.String() = %q", StateDegraded.String())
	}
}

// TestQuorumDecidePermutationInvariant: shuffling responses cannot
// change the verdict (quick.Check over random permutations).
func TestQuorumDecidePermutationInvariant(t *testing.T) {
	prop := func(raw []int8, seed uint64) bool {
		intervals := make([]marzullo.Interval, len(raw))
		for i, v := range raw {
			intervals[i] = marzullo.Interval{Lo: int64(v), Hi: int64(v) + 10}
		}
		total := len(intervals)
		_, count, ok := QuorumDecide(intervals, total, 0)
		rng := rand.New(rand.NewPCG(seed, 1))
		rng.Shuffle(len(intervals), func(i, j int) {
			intervals[i], intervals[j] = intervals[j], intervals[i]
		})
		_, count2, ok2 := QuorumDecide(intervals, total, 0)
		return count == count2 && ok == ok2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
