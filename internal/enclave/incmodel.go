package enclave

import (
	"triadtime/internal/sim"
	"triadtime/internal/simtime"
)

// INCModel generates the measurement noise of the INC-counting
// monitoring loop. The paper's 10k-measurement experiment (§IV-A.1)
// shows three regimes: a large negative first-run outlier (cold caches
// and branch predictors: 621448 vs the 632182 mean), a rare moderate
// outlier (630012), and an extremely tight steady state (σ = 2.9 INC,
// total range 10 INC).
type INCModel struct {
	// NoiseSigma is the steady-state standard deviation, in INC.
	NoiseSigma float64
	// WarmupOffset is added to the very first measurement of a core.
	WarmupOffset float64
	// OutlierProb is the per-measurement probability of a moderate
	// outlier; OutlierOffset is its magnitude.
	OutlierProb   float64
	OutlierOffset float64
}

// PaperINCModel reproduces the §IV-A.1 measurement statistics.
func PaperINCModel() INCModel {
	return INCModel{
		NoiseSigma:    2.9,
		WarmupOffset:  -10734, // 621448 - 632182
		OutlierProb:   1e-4,
		OutlierOffset: -2170, // 630012 - 632182
	}
}

// draw takes one measurement's noise from rng: the Gaussian term, and
// the offset — the warm-up one for the core's first measurement, else
// an outlier's with probability OutlierProb, else none.
func (m INCModel) draw(first bool, rng *sim.RNG) (noise, offset float64) {
	noise = rng.Gaussian(0, m.NoiseSigma)
	if first {
		offset = m.WarmupOffset
	} else if m.OutlierProb > 0 && rng.Float64() < m.OutlierProb {
		offset = m.OutlierOffset
	}
	return noise, offset
}

// count is the measured INC count of a measurement with the given ideal
// count and drawn noise.
func (m INCModel) count(ideal, noise, offset float64) float64 {
	v := ideal + noise
	v += offset
	if v < 0 {
		v = 0
	}
	return v
}

// IdealINC returns the noise-free INC count for a measurement over
// ticks guest-TSC ticks, given the core and the *apparent* guest tick
// rate. When the hypervisor scales the guest TSC, the guest accumulates
// ticks faster or slower relative to real instruction execution, which
// shifts the INC count — this is what makes the monitoring loop a
// tamper detector.
func IdealINC(core simtime.Core, ticks float64, guestHz float64) float64 {
	cycles := core.CyclesPerINC
	if cycles <= 0 {
		cycles = 1
	}
	// Reference seconds the measurement takes: ticks / guestHz.
	// INC executed: seconds * coreHz / cyclesPerINC.
	return ticks / guestHz * core.FreqHz / cycles
}

// MemModel is the memory-access monitoring counterpart of INCModel:
// accesses that miss all caches are paced by the memory subsystem, so
// their rate is independent of the core's DVFS frequency — but noisier
// than INC counting (row-buffer and contention effects).
type MemModel struct {
	// AccessesPerSec is the uncontended memory-access rate.
	AccessesPerSec float64
	// NoiseFrac is the per-measurement relative noise (1 sigma).
	NoiseFrac float64
}

// PaperMemModel is a DDR-class access rate with ~1% measurement noise,
// matching the "less accurate but frequency-independent" framing.
func PaperMemModel() MemModel {
	return MemModel{AccessesPerSec: 1.2e8, NoiseFrac: 0.01}
}

// IdealMem returns the noise-free access count over ticks guest ticks.
// Like INC counting it shifts when the guest TSC is scaled — but NOT
// when only the core frequency changes.
func (m MemModel) IdealMem(ticks float64, guestHz float64) float64 {
	return ticks / guestHz * m.AccessesPerSec
}

// draw takes one measurement's relative noise from rng.
func (m MemModel) draw(rng *sim.RNG) float64 {
	return rng.Gaussian(0, m.NoiseFrac)
}

// count is the measured access count of a measurement with the given
// ideal count and drawn noise.
func (m MemModel) count(ideal, noise float64) float64 {
	v := ideal * (1 + noise)
	if v < 0 {
		v = 0
	}
	return v
}
