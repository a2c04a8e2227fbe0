// Package core implements the Triad protocol node — the paper's primary
// contribution. A node keeps a trusted notion of time inside a TEE by
// combining:
//
//   - an in-enclave clock derived from the TimeStamp Counter:
//     now = reference + (TSC - referenceTSC) / F_calib;
//   - calibration of F_calib against the Time Authority via linear
//     regression over requested-sleep roundtrips bounded by uninterrupted
//     execution (no AEX between send and receive);
//   - tainting on every Asynchronous Enclave Exit, followed by untainting
//     from a peer's timestamp (adopting it if higher than local time,
//     otherwise bumping the local timestamp by the smallest increment) or,
//     failing that, a reference calibration with the Time Authority;
//   - continuous INC-instruction-rate monitoring of the TSC to detect
//     hypervisor rate/offset manipulation, which triggers full
//     recalibration.
//
// This package is a policy bundle on internal/engine and nothing else.
// The engine owns the clock state, the state machine, datagram
// dispatch, AEX epochs, every exchange, rate monitoring, counters, the
// configuration shared by all variants (engine.Config, embedded in this
// package's Config) and the node handle NewNode returns (*engine.Node);
// core contributes the original protocol's calibration policy
// (sleep-roundtrip regression), recovery policy (first-responding
// peer, then the Time Authority), the engine's accept-all AdoptIfAhead
// peer filter, and the knobs only they read. The node runs identically
// on the discrete-event simulation and on the live UDP runtime.
package core

import "triadtime/internal/engine"

// State is a Triad node's protocol state, shared with every engine
// variant. It matches the states plotted in the paper's Figure 3b
// timing diagram.
type State = engine.State

// Node states, re-exported from the engine.
const (
	StateInit      = engine.StateInit
	StateFullCalib = engine.StateFullCalib
	StateRefCalib  = engine.StateRefCalib
	StateTainted   = engine.StateTainted
	StateOK        = engine.StateOK
	StateDegraded  = engine.StateDegraded
)

// Events are optional observation hooks, shared with every engine
// variant. They fire synchronously from within platform callbacks;
// handlers must not block and must not call back into the node. Nil
// members are skipped.
type Events = engine.Events
