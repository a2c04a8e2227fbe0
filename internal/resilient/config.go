// Package resilient implements the hardened Triad variant sketched in
// the paper's Section V discussion. It differs from the original
// protocol (internal/core) in four ways, each closing one vulnerability
// demonstrated in Section IV:
//
//  1. Windowed, sleep-free rate calibration. Instead of regressing TSC
//     increments on requested TA sleeps (the surface the F+/F- timing
//     side channel attacks), the node takes two immediate-response TA
//     exchanges separated by a long TSC window and divides elapsed
//     ticks by elapsed TA time. Every exchange's roundtrip is bounded:
//     a response slower than RTTBound is discarded, so an attacker can
//     skew the rate by at most 2*RTTBound/window — O(100ppm) for
//     multi-second windows instead of the paper's 10%.
//
//  2. Round-trip bounding of reference calibration, with the same
//     effect on offset manipulation: delaying a TA response beyond the
//     bound turns the attack into visible unavailability, not silent
//     clock error.
//
//  3. True-chimer peer untainting (Marzullo). A tainted node gathers
//     all peer timestamps, forms consistency intervals, and adopts the
//     midpoint of the majority intersection — never the maximum. A
//     single fast compromised clock is disjoint from the honest
//     majority and gets ignored; without a majority the node falls
//     back to the Time Authority. This severs the F- propagation of
//     Figure 6.
//
//  4. An in-TCB refresh deadline. The original protocol refreshes only
//     on attacker-controlled AEXs; the hardened node additionally
//     self-checks on a deadline counted in its own TSC ticks, so a
//     miscalibrated clock cannot run unchecked arbitrarily long in a
//     low-AEX environment (the amplifier behind Figure 4).
//
// This package is a policy bundle on internal/engine and nothing else.
// The engine owns the clock state, the state machine, datagram
// dispatch, AEX epochs, every exchange, rate monitoring, counters, the
// configuration shared by all variants (engine.Config, embedded in this
// package's Config) and the node handle NewNode returns (*engine.Node);
// resilient contributes the windowed calibration policy, the
// probe/deadline recovery policy, the Marzullo true-chimer peer
// filter, the chimer-gossip hook, and the knobs only they read.
package resilient

import (
	"time"

	"triadtime/internal/engine"
)

// Config parameterizes a hardened node: the configuration every
// variant shares plus the Section V knobs.
type Config struct {
	engine.Config

	// CalibWindow is the target TSC window between the two calibration
	// exchanges, expressed as wall time via the boot hint. Longer
	// windows dilute attacker-induced delay. An AEX inside the window
	// aborts it; the node halves the window down to MinCalibWindow and
	// retries, so calibration completes even under Triad-like AEX
	// storms. Default: 8s.
	CalibWindow time.Duration
	// MinCalibWindow floors the adaptive halving. Default: 500ms.
	MinCalibWindow time.Duration
	// RTTBound rejects any TA exchange whose roundtrip exceeds it.
	// Default: 5ms.
	RTTBound time.Duration

	// ErrBudget is the half-width of the consistency interval assigned
	// to each clock reading when intersecting (own drift since last
	// sync + peer drift + network). Default: 50ms.
	ErrBudget time.Duration
	// Deadline is the in-TCB self-check period, counted in guest TSC
	// ticks via the boot hint. Default: 2s. DisableDeadline turns it
	// off.
	Deadline time.Duration
	// DisableDeadline turns off the in-TCB refresh deadline (ablation).
	DisableDeadline bool
	// DisableChimerFilter makes peer untainting behave like the
	// original protocol (adopt-if-higher, first response) — for
	// ablation benchmarks.
	DisableChimerFilter bool
	// EnableGossip turns on true-chimer report gossip (§V): peers
	// accredited by a majority of published views can untaint a node
	// single-handedly, reducing Time Authority reliance. Node
	// identities must be <= 64 for the report bitmask.
	EnableGossip bool

	// DisableMemMonitor turns off the frequency-independent memory
	// monitor, which the hardened node runs by default (ablation).
	DisableMemMonitor bool
}

// Defaults for zero Config fields.
const (
	DefaultCalibWindow    = 8 * time.Second
	DefaultMinCalibWindow = 500 * time.Millisecond
	DefaultRTTBound       = 5 * time.Millisecond
	DefaultErrBudget      = 50 * time.Millisecond
	DefaultDeadline       = 2 * time.Second
)

// withDefaults returns a copy of the config with the
// resilient-specific zero fields defaulted; the embedded shared Config
// is defaulted and validated by the engine.
func (c Config) withDefaults() Config {
	if c.CalibWindow <= 0 {
		c.CalibWindow = DefaultCalibWindow
	}
	if c.MinCalibWindow <= 0 {
		c.MinCalibWindow = DefaultMinCalibWindow
	}
	if c.MinCalibWindow > c.CalibWindow {
		c.MinCalibWindow = c.CalibWindow
	}
	if c.RTTBound <= 0 {
		c.RTTBound = DefaultRTTBound
	}
	if c.ErrBudget <= 0 {
		c.ErrBudget = DefaultErrBudget
	}
	if c.Deadline <= 0 {
		c.Deadline = DefaultDeadline
	}
	return c
}
