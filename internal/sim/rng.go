package sim

import (
	"math"
	"math/rand/v2"
	"time"
)

// RNG is the simulation's deterministic randomness source. All stochastic
// models (network jitter, AEX gaps, INC noise) draw from RNGs forked off
// one experiment seed, so a run is reproducible bit-for-bit.
type RNG struct {
	r   *rand.Rand
	src *rand.PCG // r's whole state
}

// newPCG returns a generator on a PCG source seeded with seed1, seed2.
func newPCG(seed1, seed2 uint64) *RNG {
	src := rand.NewPCG(seed1, seed2)
	return &RNG{r: rand.New(src), src: src}
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG {
	return newPCG(seed, seed^0x9e3779b97f4a7c15)
}

// Fork derives an independent generator from this one, labelled by id so
// that adding a consumer does not perturb the streams of existing ones.
func (g *RNG) Fork(id uint64) *RNG {
	return newPCG(g.r.Uint64()^id, g.r.Uint64()+id)
}

// RNGMark is a position in an RNG's stream.
type RNGMark struct{ pcg rand.PCG }

// Mark reports the stream's position: the draws after it are the ones
// a Rewind to it replays.
func (g *RNG) Mark() RNGMark { return RNGMark{*g.src} }

// Rewind moves the stream back to m, a Mark of this generator: the
// draws made since are made again, as if they had not been.
func (g *RNG) Rewind(m RNGMark) { *g.src = m.pcg }

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform sample in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit sample.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// NormFloat64 returns a standard-normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Gaussian returns a normal sample with the given mean and stddev.
func (g *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Exponential returns an exponential sample with the given mean.
func (g *RNG) Exponential(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(-math.Log(1-g.r.Float64()) * float64(mean))
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
	f := 1 + spread*(2*g.r.Float64()-1)
	return time.Duration(f * float64(base))
}
