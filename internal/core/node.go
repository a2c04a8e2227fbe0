package core

import (
	"fmt"

	"triadtime/internal/enclave"
	"triadtime/internal/engine"
	"triadtime/internal/simnet"
)

// ErrUnavailable is returned by TrustedNow while the node cannot serve
// trusted timestamps (tainted or calibrating). It is the engine's
// sentinel, shared by every protocol variant.
var ErrUnavailable = engine.ErrUnavailable

// Node is one Triad protocol participant running inside a TEE: the
// shared protocol engine assembled with the original protocol's
// policies.
//
// A Node is event-driven: after Start, all work happens in callbacks the
// Platform dispatches (datagram deliveries, AEX notifications, timer and
// INC-measurement completions). Platforms serialize callbacks, so Node
// has no internal locking; callers of TrustedNow must call from the same
// dispatch context (in the simulation: from scheduler events; live: via
// the transport's Do).
type Node struct {
	eng *engine.Engine
	pol *policy
}

// NewNode creates a Triad node on the given platform. The node installs
// itself as the platform's AEX and message handler. Call Start to begin
// the protocol.
func NewNode(platform enclave.Platform, cfg Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pol := &policy{cfg: cfg}
	pols := engine.Policies{
		Calibration: pol,
		Recovery:    pol,
		Filter:      engine.AdoptIfAhead{},
	}
	if len(cfg.Authorities) >= 2 {
		// Multi-authority deployment: quorum calibration replaces the
		// sleep-regression policy, and the authority side of recovery
		// runs quorum reference rounds (peer untainting is unchanged).
		q := engine.NewQuorumCalibration(engine.QuorumConfig{
			TATimeout:       cfg.TATimeout,
			ErrBudget:       cfg.QuorumErrBudget,
			RecheckInterval: cfg.QuorumRecheck,
			MinAgree:        cfg.QuorumMinAgree,
		})
		pols.Calibration = q
		pols.Recovery = engine.QuorumRecovery{RecoveryPolicy: pol, Quorum: q}
	}
	eng, err := engine.New(platform, engine.Config{
		Key:              cfg.Key,
		Addr:             cfg.Addr,
		Peers:            cfg.Peers,
		Authority:        cfg.Authority,
		Authorities:      cfg.Authorities,
		PeerTimeout:      cfg.PeerTimeout,
		MonitorTicks:     cfg.MonitorTicks,
		MonitorTolerance: cfg.MonitorTolerance,
		DisableMonitor:   cfg.DisableMonitor,
		EnableMemMonitor: cfg.EnableMemMonitor,
		MemTolerance:     cfg.MemTolerance,
		FreqChangeEvents: true,
		Events:           cfg.Events,
	}, pols)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Node{eng: eng, pol: pol}, nil
}

// Start launches the protocol: the node enters full calibration with the
// Time Authority and, unless disabled, starts TSC monitoring. Starting a
// started node is a no-op.
func (n *Node) Start() { n.eng.Start() }

// Addr reports the node's network address.
func (n *Node) Addr() simnet.Addr { return n.eng.Addr() }

// State reports the node's protocol state.
func (n *Node) State() State { return n.eng.State() }

// FCalib reports the calibrated TSC rate in ticks per reference second,
// or 0 before the first calibration completes.
func (n *Node) FCalib() float64 { return n.eng.FCalib() }

// TAReferences reports how many time references the node has adopted
// from the Time Authority (Figure 2b's metric).
func (n *Node) TAReferences() int { return n.eng.Counters().TAReferences }

// PeerUntaints reports how many times a peer's timestamp untainted this
// node.
func (n *Node) PeerUntaints() int { return n.eng.Counters().PeerUntaints }

// ServedCount reports how many trusted timestamps have been served.
func (n *Node) ServedCount() uint64 { return n.eng.Counters().Served }

// Counters returns a snapshot of the engine's protocol counters (the
// hardening-only fields stay zero on original nodes).
func (n *Node) Counters() engine.Counters { return n.eng.CounterSnapshot() }

// TimeJumps returns the forward jumps (ns) taken when adopting peer
// timestamps; the 50–70ms jumps of Figure 3a and ~35ms jumps of
// Figure 6a show up here. The slice is a copy.
func (n *Node) TimeJumps() []int64 { return n.eng.TimeJumps() }

// TrustedNow serves one trusted timestamp (nanoseconds on the Time
// Authority's timeline). It fails with ErrUnavailable while the node is
// tainted or calibrating. Served timestamps are strictly monotonic.
func (n *Node) TrustedNow() (int64, error) { return n.eng.TrustedNow() }

// ClockReading reports the node's internal clock without availability
// checking or monotonic bumping. Instrumentation only (the experiment
// harness samples drift with it); applications must use TrustedNow.
func (n *Node) ClockReading() (int64, bool) { return n.eng.ClockReading() }
