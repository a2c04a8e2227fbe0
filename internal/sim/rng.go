package sim

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"time"
)

// RNG is the simulation's deterministic randomness source. All stochastic
// models (network jitter, AEX gaps, INC noise) draw from RNGs forked off
// one experiment seed, so a run is reproducible bit-for-bit.
//
// It owns its generator, a PCG-DXSM with math/rand/v2's constants and
// output, and is also the rand.Source behind r: every draw is the one a
// rand.New(rand.NewPCG(...)) would give, and the hot ones (Uint64,
// Float64 and NormFloat64, whose ziggurat runs here) step the state
// inline instead of through an interface call. An RNG must not be
// copied: the copy's r would still draw from the original's state.
type RNG struct {
	_   noCopy
	pcg pcg
	r   *rand.Rand // draws from &pcg
}

// noCopy makes go vet's copylocks check report any copy of a struct
// that holds it.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// pcg is math/rand/v2's PCG: a 128-bit LCG state and the DXSM output
// function.
type pcg struct{ hi, lo uint64 }

// The LCG's multiplier and increment, math/rand/v2's.
const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
	incHi = 6364136223846793005
	incLo = 1442695040888963407
)

// cheapMul is DXSM's multiplier.
const cheapMul = 0xda942042e4dd58b5

// Uint64 steps the state and returns its DXSM output, as
// rand.PCG.Uint64.
func (p *pcg) Uint64() uint64 {
	hi, lo := bits.Mul64(p.lo, mulLo)
	hi += p.hi*mulLo + p.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	p.lo, p.hi = lo, hi

	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= lo | 1
	return hi
}

// newPCG returns a generator on a PCG state seeded with seed1, seed2.
func newPCG(seed1, seed2 uint64) *RNG {
	g := &RNG{pcg: pcg{seed1, seed2}}
	g.r = rand.New(&g.pcg)
	return g
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG {
	return newPCG(seed, seed^0x9e3779b97f4a7c15)
}

// Fork derives an independent generator from this one, labelled by id so
// that adding a consumer does not perturb the streams of existing ones.
func (g *RNG) Fork(id uint64) *RNG {
	return newPCG(g.Uint64()^id, g.Uint64()+id)
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 {
	return float64(g.pcg.Uint64()<<11>>11) / (1 << 53)
}

// IntN returns a uniform sample in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit sample.
func (g *RNG) Uint64() uint64 { return g.pcg.Uint64() }

// NormFloat64 returns a standard-normal sample, rand.Rand.NormFloat64's:
// the same ziggurat over the same draws. Its fast branch, taken by
// about 97 % of draws, is one step and a table compare; the slow branch
// (normSlow) goes on from the step the fast one took.
func (g *RNG) NormFloat64() float64 {
	u := g.pcg.Uint64()
	if fastNormal(u) {
		return float64(int32(u)) * float64(wn[u>>32&0x7f])
	}
	return g.normSlow(u)
}

// fastNormal reports whether the ziggurat takes output u in its fast
// branch: |j| under the strip's kn, for j its low 32 bits and the strip
// i the next 7.
func fastNormal(u uint64) bool {
	j := int32(u)
	a := uint32(j)
	if j < 0 {
		a = uint32(-j)
	}
	return a < kn[u>>32&0x7f]
}

// normSlow is the rest of rand.Rand.NormFloat64's loop after a first
// output u the fast branch did not take: the tail past rn for the base
// strip, the wedge test for the others, and a fresh output each time
// the wedge test rejects.
func (g *RNG) normSlow(u uint64) float64 {
	for {
		j := int32(u)
		i := u >> 32 & 0x7f
		x := float64(j) * float64(wn[i])
		if fastNormal(u) {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(g.Float64()) * (1.0 / rn)
				y := -math.Log(g.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(g.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		u = g.pcg.Uint64()
	}
}

// Gaussian returns a normal sample with the given mean and stddev.
func (g *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*g.NormFloat64()
}

// Exponential returns an exponential sample with the given mean.
func (g *RNG) Exponential(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(-math.Log(1-g.Float64()) * float64(mean))
}

// LogNormal returns exp(N(mu, sigma)), the long-tailed distribution used
// for network-delay jitter.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Gaussian(mu, sigma))
}

// Choice returns a uniformly random element of xs. It panics on an empty
// slice, which is always a caller bug.
func Choice[T any](g *RNG, xs []T) T {
	return xs[g.IntN(len(xs))]
}

// Jitter returns base scaled by a uniform factor in [1-spread, 1+spread].
func (g *RNG) Jitter(base time.Duration, spread float64) time.Duration {
	f := 1 + spread*(2*g.Float64()-1)
	return time.Duration(f * float64(base))
}
