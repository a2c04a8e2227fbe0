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
// Float64, NormFloat64's fast branch) take one inlined step instead of
// an interface call. An RNG must not be copied: the copy's r would
// still draw from the original's state.
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

// Uint64 steps the state and returns its output, as rand.PCG.Uint64.
func (p *pcg) Uint64() uint64 {
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	hi, lo := bits.Mul64(p.lo, mulLo)
	hi += p.hi*mulLo + p.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	p.lo, p.hi = lo, hi

	const cheapMul = 0xda942042e4dd58b5
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

// RNGMark is a position in an RNG's stream.
type RNGMark struct{ pcg pcg }

// Mark reports the stream's position: the draws after it are the ones
// a Rewind to it replays.
func (g *RNG) Mark() RNGMark { return RNGMark{g.pcg} }

// Rewind moves the stream back to m, a Mark of this generator: the
// draws made since are made again, as if they had not been.
func (g *RNG) Rewind(m RNGMark) { g.pcg = m.pcg }

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 {
	return float64(g.pcg.Uint64()<<11>>11) / (1 << 53)
}

// IntN returns a uniform sample in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit sample.
func (g *RNG) Uint64() uint64 { return g.pcg.Uint64() }

// NormFloat64 returns a standard-normal sample, rand.Rand.NormFloat64's.
// Its ziggurat's fast branch, taken by over 99 % of draws, is one step
// and a table compare; any other draw restores the state and lets r
// take it from the start.
func (g *RNG) NormFloat64() float64 {
	s := g.pcg
	u := g.pcg.Uint64()
	j := int32(u)
	i := u >> 32 & 0x7f
	a := uint32(j)
	if j < 0 {
		a = uint32(-j)
	}
	if a < kn[i] {
		return float64(j) * float64(wn[i])
	}
	g.pcg = s
	return g.r.NormFloat64()
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
