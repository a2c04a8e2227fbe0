package resilient

import (
	"fmt"

	"triadtime/internal/enclave"
	"triadtime/internal/engine"
)

// NewNode creates a hardened node on the platform (see the package
// comment for how it departs from internal/core's original protocol):
// the shared protocol engine running the Section V policies. Call
// Start to begin.
func NewNode(platform enclave.Platform, cfg Config) (*engine.Node, error) {
	eng, _, err := assemble(platform, cfg)
	if err != nil {
		return nil, err
	}
	return eng.Node(), nil
}

// assemble builds the engine and the policy it runs; tests keep both to
// inject faults and read the gossip view.
func assemble(platform enclave.Platform, cfg Config) (*engine.Engine, *policy, error) {
	cfg = cfg.withDefaults()
	if cfg.DeadlineTicks == 0 {
		cfg.DeadlineTicks = uint64(DefaultDeadline.Seconds() * platform.BootTSCHz())
	}
	pol := &policy{cfg: cfg}
	pols := engine.Policies{
		Calibration: pol,
		Recovery:    pol,
		Filter:      marzulloFilter{pol},
		MemMonitor:  !cfg.DisableMemMonitor,
		// Multi-authority nodes reuse the hardened window and
		// error-budget tuning.
		Quorum: engine.QuorumConfig{
			ErrBudget:      cfg.ErrBudget,
			CalibWindow:    cfg.CalibWindow,
			MinCalibWindow: cfg.MinCalibWindow,
		},
	}
	if cfg.DisableChimerFilter {
		// Original-protocol ablation: first response decides,
		// adopt-if-higher.
		pols.Filter = engine.AdoptIfAhead{}
	}
	if cfg.EnableGossip {
		pols.Gossip = gossipHook{pol}
	}
	eng, err := engine.New(platform, cfg.Config, pols)
	if err != nil {
		return nil, nil, fmt.Errorf("resilient: %w", err)
	}
	return eng, pol, nil
}
