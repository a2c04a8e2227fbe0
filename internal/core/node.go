package core

import (
	"fmt"

	"triadtime/internal/enclave"
	"triadtime/internal/engine"
)

// ErrUnavailable is returned by TrustedNow while the node cannot serve
// trusted timestamps (tainted or calibrating). It is the engine's
// sentinel, shared by every protocol variant.
var ErrUnavailable = engine.ErrUnavailable

// NewNode creates a Triad node on the given platform: the shared
// protocol engine running the original protocol's policies. The node
// installs itself as the platform's AEX and message handler. Call
// Start to begin the protocol.
func NewNode(platform enclave.Platform, cfg Config) (*engine.Node, error) {
	eng, _, err := assemble(platform, cfg)
	if err != nil {
		return nil, err
	}
	return eng.Node(), nil
}

// assemble builds the engine and the policy it runs; tests keep both to
// inject faults.
func assemble(platform enclave.Platform, cfg Config) (*engine.Engine, *policy, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	pol := &policy{cfg: cfg}
	eng, err := engine.New(platform, cfg.Config, engine.Policies{
		Calibration:      pol,
		Recovery:         pol,
		Filter:           engine.AdoptIfAhead{},
		MemMonitor:       cfg.EnableMemMonitor,
		MemTolerance:     cfg.MemTolerance,
		FreqChangeEvents: true,
		// Multi-authority nodes keep the quorum's own window.
		Quorum: engine.QuorumConfig{ErrBudget: cfg.QuorumErrBudget},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return eng, pol, nil
}
