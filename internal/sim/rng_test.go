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

// TestRNGMatchesMathRandV2: every kind of draw is bit for bit the one a
// rand.New(rand.NewPCG(...)) on the same seeds gives — over 10^7 normal
// draws across four seeds, with the other kinds interleaved and Forks,
// some of them draws the ziggurat's slow branch takes.
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
