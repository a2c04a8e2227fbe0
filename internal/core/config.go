package core

import (
	"errors"
	"time"

	"triadtime/internal/engine"
)

// RegressionKind selects the calibration regression estimator.
type RegressionKind int

// Estimators.
const (
	// RegressionOLS is ordinary least squares, the original protocol's
	// estimator (vulnerable to the F+/F- delay attacks).
	RegressionOLS RegressionKind = iota + 1
	// RegressionTheilSen is the robust median-of-slopes estimator used
	// by the hardened protocol variant.
	RegressionTheilSen
)

// Config parameterizes a Triad node: the configuration every variant
// shares plus the original protocol's own knobs.
type Config struct {
	engine.Config

	// QuorumErrBudget is the base half-width of each authority's
	// confidence interval on multi-authority nodes (default 10ms).
	QuorumErrBudget time.Duration

	// CalibSleeps are the sleep durations requested from the TA during
	// speed calibration. Default: {0, 1s}, as in the paper's
	// implementation ("regression over roundtrips of messages with
	// 0s-sleep and 1s-sleep").
	CalibSleeps []time.Duration
	// CalibSamplesPerSleep is how many uninterrupted samples to collect
	// per sleep value before regressing. Default: 4.
	CalibSamplesPerSleep int
	// Regression selects the slope estimator. Default: RegressionOLS.
	Regression RegressionKind

	// EnableMemMonitor additionally runs the frequency-independent
	// memory-access monitor, closing the TSC-scaling-masked-by-DVFS
	// attack (§IV-A.1's RQ A.1 answer).
	EnableMemMonitor bool
	// MemTolerance is the memory monitor's relative deviation flag
	// threshold. Default: 0.08, well above its ~1% measurement noise
	// and far below any discrete DVFS step ratio.
	MemTolerance float64
}

// DefaultCalibSamplesPerSleep is used when the Config field is zero.
const DefaultCalibSamplesPerSleep = 4

// DefaultCalibSleeps returns the paper's calibration sleeps: an
// immediate response and a 1s-sleep response.
func DefaultCalibSleeps() []time.Duration {
	return []time.Duration{0, time.Second}
}

// withDefaults returns a copy of the config with the core-specific
// zero fields defaulted and validated; the embedded shared Config is
// defaulted and validated by the engine.
func (c Config) withDefaults() (Config, error) {
	if len(c.CalibSleeps) == 0 {
		c.CalibSleeps = DefaultCalibSleeps()
	}
	if len(c.CalibSleeps) < 2 {
		return c, errors.New("core: calibration needs at least two sleep values for a regression")
	}
	if c.CalibSamplesPerSleep <= 0 {
		c.CalibSamplesPerSleep = DefaultCalibSamplesPerSleep
	}
	if c.Regression == 0 {
		c.Regression = RegressionOLS
	}
	return c, nil
}
