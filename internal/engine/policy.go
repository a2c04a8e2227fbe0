package engine

import "triadtime/internal/wire"

// The engine calls out to small policy interfaces at exactly the
// decision points where its protocol lines diverge: the original
// protocol (internal/core), the Section V hardened variant
// (internal/resilient) and the NTP-style discipline the paper
// recommends (internal/ntpdisc). A protocol line is an assembly of
// these policies over one engine; everything else — clock state, state
// machine, datagram dispatch, every request/response exchange
// (sequence numbers, deadlines, AEX-epoch stamping, RTT midpoint,
// response routing: Round for the Time Authority, Gather for the
// peers), rate monitoring, tick-budget conversion, counters — is
// engine-owned and identical across lines. A policy never sees a
// response datagram: it begins an exchange with Engine.BeginRound or
// Engine.GatherPeers and gets the outcome in the close handler it
// passed.

// CalibrationPolicy drives full (rate + reference) calibration with
// the Time Authority. The original protocol regresses TSC increments
// over requested-sleep roundtrips; the hardened variant takes two
// RTT-bounded exchanges across a long window; the NTP discipline polls
// and installs a filtered rate and anchor after every answer.
type CalibrationPolicy interface {
	// Start begins (or restarts) a full calibration. The engine has
	// already set StateFullCalib; the policy must cancel its own stale
	// exchanges and any engine gather (Engine.CancelGather) first.
	Start(e *Engine)
	// OnAEX notifies the policy that an AEX fired while calibrating:
	// any in-flight measurement window was severed (an open Round
	// reports Severed from now on).
	OnAEX(e *Engine)
}

// RecoveryPolicy drives taint recovery and any steady-state
// self-checking. The original protocol recovers via first-responding
// peer then reference calibration; the hardened variant gathers all
// peers, filters, probes, and runs an in-TCB refresh deadline.
type RecoveryPolicy interface {
	// OnStart runs once when the node starts (after calibration and
	// monitoring are launched) — the hardened variant arms its refresh
	// deadline here.
	OnStart(e *Engine)
	// OnTaint runs when an AEX fires in StateOK. The policy must move
	// the engine to StateTainted and begin recovery (typically
	// Engine.BeginPeerGather).
	OnTaint(e *Engine)
	// StartRefCalib re-acquires the time reference from the Time
	// Authority; the engine calls it when peer recovery yields nothing.
	StartRefCalib(e *Engine)
	// Cancel aborts all recovery machinery in flight (gather included,
	// via Engine.CancelGather) — called when escalating to a full
	// calibration after a monitor discrepancy.
	Cancel(e *Engine)
}

// PeerFilter decides what to do with gathered peer timestamps.
type PeerFilter interface {
	// Immediate reports whether the first gathered response should
	// close the gather window at once (the original protocol's
	// first-response-wins) instead of waiting out PeerTimeout.
	Immediate() bool
	// Decide applies the gathered samples (len >= 1) while the engine
	// is StateTainted: adopt a reference via
	// Engine.AdoptPeerReference, or fall back to
	// RecoveryPolicy.StartRefCalib.
	Decide(e *Engine, samples []PeerSample)
}

// GossipHook receives chimer-report datagrams from authenticated
// peers. Variants without gossip leave it nil and the engine drops the
// reports.
type GossipHook interface {
	OnChimerReport(e *Engine, from uint32, msg wire.Message)
}

// Policies is a protocol variant: its behaviour at the engine's decision
// points plus the settings a variant fixes itself — options whose
// polarity or default differs between variants and so cannot sit in
// the shared Config. A new variant is a Policies value and a Config
// embedding the engine's.
type Policies struct {
	Calibration CalibrationPolicy
	Recovery    RecoveryPolicy
	Filter      PeerFilter
	// Gossip is optional; nil drops chimer reports.
	Gossip GossipHook

	// MemMonitor additionally runs the frequency-independent
	// memory-access monitor, closing the TSC-scaling-masked-by-DVFS
	// attack; MemTolerance is its relative deviation threshold (0 uses
	// the monitor's default). Opt-in on the original protocol, on by
	// default on the hardened one.
	MemMonitor   bool
	MemTolerance float64

	// Quorum tunes multi-authority operation, which New assembles
	// around Calibration and Recovery when Config.Authorities has two
	// or more entries.
	Quorum QuorumConfig
}

// AdoptIfAhead is the original Triad peer policy (paper §III-B): the
// first responding peer decides; its timestamp is adopted if higher
// than the local clock, otherwise the local timestamp is kept and
// bumped by the smallest increment. This "fastest clock wins" rule is
// exactly what lets a compromised fast node drag honest peers forward
// (paper §III-D, Figure 6). The hardened variant reuses it as its
// chimer-filter ablation.
type AdoptIfAhead struct{}

// Immediate reports first-response-wins.
func (AdoptIfAhead) Immediate() bool { return true }

// Decide applies the adopt-if-higher rule to the first sample.
func (AdoptIfAhead) Decide(e *Engine, samples []PeerSample) {
	r := samples[0]
	local := e.ClockNow()
	var jump int64
	adopted := local + 1
	if r.TS > local {
		jump = r.TS - local
		adopted = r.TS
	}
	e.AdoptPeerReference(r.From, adopted, e.Platform().ReadTSC(), jump)
}
