package resilient

import (
	"fmt"

	"triadtime/internal/core"
	"triadtime/internal/enclave"
	"triadtime/internal/engine"
	"triadtime/internal/simnet"
)

// Node is a hardened Triad participant (see the package comment for how
// it departs from internal/core's original protocol): the shared
// protocol engine assembled with the Section V policies. Like the
// original, it is event-driven and runs unmodified on the simulation
// and the live runtime.
type Node struct {
	eng *engine.Engine
	pol *policy
}

// NewNode creates a hardened node on the platform; call Start to begin.
func NewNode(platform enclave.Platform, cfg Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.DeadlineTicks == 0 {
		cfg.DeadlineTicks = uint64(DefaultDeadline.Seconds() * platform.BootTSCHz())
	}
	pol := &policy{cfg: cfg}
	var filter engine.PeerFilter = marzulloFilter{pol}
	if cfg.DisableChimerFilter {
		// Original-protocol ablation: first response decides,
		// adopt-if-higher.
		filter = engine.AdoptIfAhead{}
	}
	var gossip engine.GossipHook
	if cfg.EnableGossip {
		gossip = gossipHook{pol}
	}
	pols := engine.Policies{
		Calibration: pol,
		Recovery:    pol,
		Filter:      filter,
		Gossip:      gossip,
	}
	if len(cfg.Authorities) >= 2 {
		// Multi-authority deployment: quorum calibration replaces the
		// windowed single-TA calibration, reusing the hardened window
		// and error-budget tuning; probes, deadlines, and Marzullo peer
		// untainting stay the inner policy's.
		q := engine.NewQuorumCalibration(engine.QuorumConfig{
			TATimeout:       cfg.TATimeout,
			ErrBudget:       cfg.ErrBudget,
			CalibWindow:     cfg.CalibWindow,
			MinCalibWindow:  cfg.MinCalibWindow,
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
		EnableMemMonitor: !cfg.DisableMemMonitor,
		Events:           cfg.Events,
	}, pols)
	if err != nil {
		return nil, fmt.Errorf("resilient: %w", err)
	}
	return &Node{eng: eng, pol: pol}, nil
}

// Start launches the protocol. Idempotent.
func (n *Node) Start() { n.eng.Start() }

// Addr reports the node's network address.
func (n *Node) Addr() simnet.Addr { return n.eng.Addr() }

// State reports the protocol state.
func (n *Node) State() core.State { return n.eng.State() }

// FCalib reports the calibrated tick rate (0 before calibration).
func (n *Node) FCalib() float64 { return n.eng.FCalib() }

// TAReferences counts adopted Time Authority references.
func (n *Node) TAReferences() int { return n.eng.Counters().TAReferences }

// PeerUntaints counts recoveries via peer consensus.
func (n *Node) PeerUntaints() int { return n.eng.Counters().PeerUntaints }

// RejectedPeerSamples counts peer timestamps the chimer filter refused.
func (n *Node) RejectedPeerSamples() int { return n.eng.Counters().RejectedPeers }

// RTTRejections counts TA exchanges discarded by the roundtrip bound.
func (n *Node) RTTRejections() int { return n.eng.Counters().RTTRejections }

// Probes counts in-TCB deadline self-checks; ProbeFailures counts those
// that found the local clock inconsistent.
func (n *Node) Probes() int        { return n.eng.Counters().Probes }
func (n *Node) ProbeFailures() int { return n.eng.Counters().ProbeFailures }

// ServedCount reports how many trusted timestamps have been served.
func (n *Node) ServedCount() uint64 { return n.eng.Counters().Served }

// Counters returns a snapshot of the engine's protocol counters.
func (n *Node) Counters() engine.Counters { return n.eng.CounterSnapshot() }

// GossipStats reports (reportsSent, reportsReceived, untaintsViaGossip).
func (n *Node) GossipStats() (sent, received, adoptions int) {
	c := n.eng.Counters()
	return c.GossipSent, c.GossipReceived, c.GossipAdoptions
}

// TrustedNow serves one trusted timestamp; ErrUnavailable while the
// node cannot vouch for its clock.
func (n *Node) TrustedNow() (int64, error) { return n.eng.TrustedNow() }

// ClockReading is instrumentation-only (drift sampling), as in core.
func (n *Node) ClockReading() (int64, bool) { return n.eng.ClockReading() }
