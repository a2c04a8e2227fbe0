package monotonic

import (
	"math"
	"sync"
	"testing"
)

func TestRaiseIsAMax(t *testing.T) {
	var m Value[int64]
	if m.Load() != 0 {
		t.Fatalf("zero value reads %d", m.Load())
	}
	steps := []struct {
		v     int64
		moved bool
		want  int64
	}{
		{5, true, 5},
		{3, false, 5}, // lower: no-op
		{5, false, 5}, // equal: no-op
		{-1, false, 5},
		{math.MaxInt64, true, math.MaxInt64},
		{math.MinInt64, false, math.MaxInt64},
	}
	for _, s := range steps {
		if moved := m.Raise(s.v); moved != s.moved || m.Load() != s.want {
			t.Fatalf("Raise(%d) = %v, value %d; want %v, %d", s.v, moved, m.Load(), s.moved, s.want)
		}
	}
}

func TestNextStrictlyIncreases(t *testing.T) {
	var m Value[uint64]
	for want := uint64(1); want <= 1000; want++ {
		if got := m.Next(); got != want || m.Load() != want {
			t.Fatalf("Next = %d (Load %d), want %d", got, m.Load(), want)
		}
	}
	m.Raise(1 << 40)
	if got := m.Next(); got != 1<<40+1 {
		t.Fatalf("Next after Raise = %d, want %d", got, uint64(1<<40+1))
	}
}

func TestIncrementsRefuseToWrap(t *testing.T) {
	var u Value[uint64]
	u.Raise(math.MaxUint64)
	var i Value[int64]
	i.Raise(math.MaxInt64)
	var a Atomic
	a.Advance(math.MaxInt64)
	for name, inc := range map[string]func(){
		"Value[uint64].Next": func() { u.Next() },
		"Value[int64].Next":  func() { i.Next() },
		"Atomic.Advance":     func() { a.Advance(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past the maximum did not panic", name)
				}
			}()
			inc()
		}()
	}
}

func TestAdvance(t *testing.T) {
	var a Atomic
	steps := []struct{ reading, want int64 }{
		{100, 100}, // above: taken as is
		{100, 101}, // equal: one above
		{50, 102},  // behind: one above the last
		{-7, 103},
		{1000, 1000},
	}
	for _, s := range steps {
		if got := a.Advance(s.reading); got != s.want || a.Load() != s.want {
			t.Fatalf("Advance(%d) = %d (Load %d), want %d", s.reading, got, a.Load(), s.want)
		}
	}
}

// TestAdvanceConcurrent races Advance from several goroutines, all
// reading the same stale clock: every result must be unique, and each
// goroutine's results strictly increasing. Run it under -race too.
func TestAdvanceConcurrent(t *testing.T) {
	const workers, per = 4, 5000
	var a Atomic
	results := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int64, per)
			for i := range out {
				out[i] = a.Advance(int64(i / 100)) // mostly behind the clamp
			}
			results[w] = out
		}()
	}
	wg.Wait()
	seen := make(map[int64]bool, workers*per)
	for w, out := range results {
		for i, v := range out {
			if i > 0 && v <= out[i-1] {
				t.Fatalf("worker %d: result %d = %d after %d", w, i, v, out[i-1])
			}
			if seen[v] {
				t.Fatalf("value %d handed out twice", v)
			}
			seen[v] = true
		}
	}
	if got := a.Load(); got != workers*per {
		t.Fatalf("Load = %d after %d advances from a clock behind the clamp, want %d", got, workers*per, workers*per)
	}
}
