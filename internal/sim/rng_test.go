package sim

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should (overwhelmingly) differ")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	g := NewRNG(7)
	f1 := g.Fork(1)
	f2 := g.Fork(2)
	equal := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() == f2.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Errorf("forked streams coincide on %d/100 draws", equal)
	}
}

func TestRNGGaussianMoments(t *testing.T) {
	g := NewRNG(1)
	const n = 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := g.Gaussian(10, 2)
		sum += x
		sq += x * x
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("mean = %v, want ~10", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Errorf("stddev = %v, want ~2", std)
	}
}

func TestRNGExponentialMean(t *testing.T) {
	g := NewRNG(2)
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		d := g.Exponential(time.Second)
		if d < 0 {
			t.Fatal("exponential sample must be non-negative")
		}
		sum += d
	}
	mean := float64(sum) / n
	if math.Abs(mean-float64(time.Second)) > 0.05*float64(time.Second) {
		t.Errorf("mean = %v, want ~1s", time.Duration(mean))
	}
	if g.Exponential(0) != 0 || g.Exponential(-time.Second) != 0 {
		t.Error("non-positive mean should yield 0")
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if g.LogNormal(0, 1) <= 0 {
			t.Fatal("lognormal sample must be positive")
		}
	}
}

func TestChoiceUniform(t *testing.T) {
	g := NewRNG(4)
	// The Triad-like AEX gap values.
	opts := []time.Duration{10 * time.Millisecond, 532 * time.Millisecond, 1590 * time.Millisecond}
	counts := map[time.Duration]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[Choice(g, opts)]++
	}
	for _, o := range opts {
		frac := float64(counts[o]) / n
		if math.Abs(frac-1.0/3) > 0.02 {
			t.Errorf("P(%v) = %v, want ~1/3", o, frac)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	g := NewRNG(5)
	base := 100 * time.Microsecond
	for i := 0; i < 1000; i++ {
		d := g.Jitter(base, 0.2)
		if d < 80*time.Microsecond || d > 120*time.Microsecond {
			t.Fatalf("Jitter out of bounds: %v", d)
		}
	}
	if got := g.Jitter(base, 0); got != base {
		t.Errorf("zero spread should return base, got %v", got)
	}
}

func TestRNGFloat64AndIntNRanges(t *testing.T) {
	g := NewRNG(6)
	for i := 0; i < 1000; i++ {
		if f := g.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if n := g.IntN(10); n < 0 || n >= 10 {
			t.Fatalf("IntN out of range: %v", n)
		}
	}
	var w float64
	for i := 0; i < 10000; i++ {
		w += g.NormFloat64()
	}
	if math.Abs(w/10000) > 0.05 {
		t.Errorf("NormFloat64 mean = %v, want ~0", w/10000)
	}
}

// TestRNGRewindReplays: the draws after a Mark come again, in order and
// of whatever kind, after a Rewind to it.
func TestRNGRewindReplays(t *testing.T) {
	g := NewRNG(9)
	g.Gaussian(0, 1)
	m := g.Mark()
	want := []float64{g.Gaussian(0, 1), g.Float64(), g.Gaussian(0, 1)}
	g.Rewind(m)
	got := []float64{g.Gaussian(0, 1), g.Float64(), g.Gaussian(0, 1)}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d after the rewind is %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRNGMatchesMathRandV2: every kind of draw is bit for bit the one a
// rand.New(rand.NewPCG(...)) on the same seeds gives — over 10^7 normal
// draws across four seeds, with the other kinds interleaved, Forks, and
// a Mark and Rewind around draws the ziggurat's slow branch takes.
func TestRNGMatchesMathRandV2(t *testing.T) {
	const perSeed = 2_500_000
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, seed := range []uint64{1, 7, 42, 1<<63 + 5} {
		g := NewRNG(seed)
		src := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
		ref := rand.New(src)
		slow := 0
		for i := 0; i < perSeed; i++ {
			// Whether the next normal draw leaves the fast branch: its
			// first output misses the table.
			peek := *src
			u := peek.Uint64()
			j, k := int32(u), u>>32&0x7f
			if j < 0 {
				j = -j
			}
			if uint32(j) >= kn[k] {
				slow++
				m := g.Mark()
				a := g.NormFloat64()
				g.Rewind(m)
				if b := g.NormFloat64(); !same(a, b) {
					t.Fatalf("seed %d draw %d: %v after a Rewind, %v before", seed, i, b, a)
				}
				g.Rewind(m)
			}
			if got, want := g.NormFloat64(), ref.NormFloat64(); !same(got, want) {
				t.Fatalf("seed %d: normal draw %d is %v, math/rand/v2 draws %v", seed, i, got, want)
			}
			if i%64 != 0 {
				continue
			}
			if got, want := g.Float64(), ref.Float64(); !same(got, want) {
				t.Fatalf("seed %d: Float64 %v, want %v", seed, got, want)
			}
			if got, want := g.Gaussian(3, 2), 3+2*ref.NormFloat64(); !same(got, want) {
				t.Fatalf("seed %d: Gaussian %v, want %v", seed, got, want)
			}
			if got, want := g.Exponential(time.Second), time.Duration(-math.Log(1-ref.Float64())*float64(time.Second)); got != want {
				t.Fatalf("seed %d: Exponential %v, want %v", seed, got, want)
			}
			if got, want := g.LogNormal(0, 1), math.Exp(ref.NormFloat64()); !same(got, want) {
				t.Fatalf("seed %d: LogNormal %v, want %v", seed, got, want)
			}
			if got, want := g.IntN(1000), ref.IntN(1000); got != want {
				t.Fatalf("seed %d: IntN %v, want %v", seed, got, want)
			}
			if got, want := g.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 %v, want %v", seed, got, want)
			}
			if i%4096 == 0 {
				f := g.Fork(uint64(i))
				fr := rand.New(rand.NewPCG(ref.Uint64()^uint64(i), ref.Uint64()+uint64(i)))
				if got, want := f.NormFloat64(), fr.NormFloat64(); !same(got, want) {
					t.Fatalf("seed %d: a Fork's first draw %v, want %v", seed, got, want)
				}
			}
		}
		if slow == 0 {
			t.Errorf("seed %d: no draw took the slow branch", seed)
		}
	}
}

// TestLCGJumpsMatchSteps: a jump of k steps lands where k steps do, a
// step back undoes a step, and a state's output is what the step to it
// returns.
func TestLCGJumpsMatchSteps(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 1000; i++ {
		s := pcg{g.Uint64(), g.Uint64()}
		p := s
		if got, want := s.jump(&jumps[1]).output(), p.Uint64(); got != want {
			t.Fatalf("the output after a step from %v is %#x, Uint64 returns %#x", s, got, want)
		}
		p = s
		for k := range jumps {
			if got := s.jump(&jumps[k]); got != p {
				t.Fatalf("a %d-step jump from %v lands at %v, %d steps at %v", k, s, got, k, p)
			}
			p.Uint64()
		}
		p = s
		p.Uint64()
		if got := p.jump(&stepBack); got != s {
			t.Fatalf("a step back from %v lands at %v, want %v", p, got, s)
		}
	}
}

// TestFastNormalsWithinMaxFastNormal: every value NormFloat64's fast
// branch can return is at most MaxFastNormal in magnitude. A fast draw
// is float64(j)·wn[i] for |j| < kn[i]; float64(j) is exact and the
// product by a positive wn[i] rounds monotonically, so the magnitude
// grows with |j| and each strip's largest is at |j| = kn[i]-1. The
// check runs over every strip, both signs, and the last 4096 values of
// |j| below each strip's bound, where it checks the monotony too.
func TestFastNormalsWithinMaxFastNormal(t *testing.T) {
	attained := false
	for i := range kn {
		if kn[i] == 0 {
			if fastNormal(uint64(i) << 32) {
				t.Fatalf("strip %d has no fast draws, but fastNormal takes j = 0", i)
			}
			continue
		}
		prev := math.Inf(-1)
		for a := int64(kn[i]) - 4096; a < int64(kn[i]); a++ {
			if a < 0 {
				continue
			}
			for _, j := range []int64{a, -a} {
				u := uint64(i)<<32 | uint64(uint32(int32(j)))
				if !fastNormal(u) {
					t.Fatalf("strip %d, j = %d: not taken by the fast branch", i, j)
				}
				x := math.Abs(float64(int32(j)) * float64(wn[i]))
				if x > MaxFastNormal {
					t.Fatalf("strip %d, j = %d: |x| = %v exceeds MaxFastNormal %v", i, j, x, MaxFastNormal)
				}
				attained = attained || x == MaxFastNormal
			}
			x := float64(a) * float64(wn[i])
			if x < prev {
				t.Fatalf("strip %d: |x| falls from %v to %v at |j| = %d", i, prev, x, a)
			}
			prev = x
		}
		for _, j := range []int64{int64(kn[i]), -int64(kn[i])} {
			if fastNormal(uint64(i)<<32 | uint64(uint32(int32(j)))) {
				t.Fatalf("strip %d, j = %d: at the bound, taken by the fast branch", i, j)
			}
		}
	}
	if !attained {
		t.Errorf("no fast draw reaches MaxFastNormal %v: it is not the maximum", MaxFastNormal)
	}
}

// windowLayouts are the draw layouts of a monitoring window: an INC
// normal, an outlier roll's Uint64 or not, a memory normal or not.
var windowLayouts = []struct{ roll, second bool }{{false, false}, {true, false}, {false, true}, {true, true}}

// slowDraws counts the normals drawn in the ziggurat's slow branch, by
// where it went: the base strip's tail or another strip's wedge.
type slowDraws struct{ wedge, tail int }

// checkSkipFastWindows passes n windows of a layout on one generator
// by SkipFastWindows, drawing itself each window it stops before, and
// on a copy draw by draw, and requires the same windows passed, normals
// within MaxFastNormal in the windows skipped and a slow one in each
// window it stopped before, and the same state after every skip.
func checkSkipFastWindows(t *testing.T, seed1, seed2 uint64, n int, roll, second bool, slow *slowDraws) {
	t.Helper()
	g, ref := newPCG(seed1, seed2), newPCG(seed1, seed2)
	// draw draws one window on ref and reports whether a normal in it
	// took the slow branch.
	draw := func() (slowNormal bool) {
		normal := func() {
			peek := ref.pcg
			u := peek.Uint64()
			if x := ref.NormFloat64(); fastNormal(u) {
				if math.Abs(x) > MaxFastNormal {
					t.Fatalf("a fast-branch draw %v exceeds MaxFastNormal %v", x, MaxFastNormal)
				}
				return
			}
			slowNormal = true
			if u>>32&0x7f == 0 {
				slow.tail++
			} else {
				slow.wedge++
			}
		}
		normal()
		if roll {
			ref.Uint64()
		}
		if second {
			normal()
		}
		return slowNormal
	}
	for w := 0; w < n; {
		k := g.SkipFastWindows(n-w, roll, second)
		for i := 0; i < k; i++ {
			if draw() {
				t.Fatalf("seeds %d, %d, layout roll=%v second=%v: window %d has a slow-branch normal, but was skipped", seed1, seed2, roll, second, w+i)
			}
		}
		if w += k; g.pcg != ref.pcg {
			t.Fatalf("seeds %d, %d, layout roll=%v second=%v: after %d windows the skip is at %v, serial draws at %v", seed1, seed2, roll, second, w, g.pcg, ref.pcg)
		}
		if w == n {
			return
		}
		if !draw() {
			t.Fatalf("seeds %d, %d, layout roll=%v second=%v: the skip stopped before window %d, whose normals are fast", seed1, seed2, roll, second, w)
		}
		g.NormFloat64()
		if roll {
			g.Uint64()
		}
		if second {
			g.NormFloat64()
		}
		w++
	}
}

// TestSkipFastWindowsMatchesSerial runs checkSkipFastWindows over every
// window layout and 200 seeds, 64 to 2047 windows each: enough normals
// that slow-branch draws of both kinds, wedge and tail, stop the skip.
func TestSkipFastWindowsMatchesSerial(t *testing.T) {
	var slow slowDraws
	for _, l := range windowLayouts {
		for seed := uint64(1); seed <= 200; seed++ {
			checkSkipFastWindows(t, seed, seed*0x9e3779b97f4a7c15, 64+int(seed*977%1984), l.roll, l.second, &slow)
		}
	}
	t.Logf("%d wedge and %d tail draws", slow.wedge, slow.tail)
	if slow.wedge == 0 || slow.tail == 0 {
		t.Errorf("%d wedge and %d tail draws: the seeds reach both kinds of slow draw", slow.wedge, slow.tail)
	}
}

// FuzzSkipFastWindows is checkSkipFastWindows on any seeds, window
// count and layout.
func FuzzSkipFastWindows(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint16(64), uint8(3))
	f.Add(uint64(7), uint64(0), uint16(1000), uint8(1))
	f.Fuzz(func(t *testing.T, seed1, seed2 uint64, n uint16, layout uint8) {
		var slow slowDraws
		l := windowLayouts[layout%4]
		checkSkipFastWindows(t, seed1, seed2, int(n%4096), l.roll, l.second, &slow)
	})
}
