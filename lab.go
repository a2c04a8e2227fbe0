package triadtime

import (
	"time"

	"triadtime/internal/attack"
	"triadtime/internal/experiment"
	"triadtime/internal/resilient"
	"triadtime/internal/simnet"
)

// Lab is the deterministic simulation laboratory: a cluster of Triad
// nodes, a Time Authority, interrupt environments and optional
// attackers, all driven by a discrete-event scheduler. Hours of
// protocol time simulate in milliseconds, reproducibly per seed.
//
// Lab wraps internal/experiment.Cluster; the full instrumentation
// (drift series, state timelines, counters) is available through the
// embedded field for analysis code.
type Lab struct {
	*experiment.Cluster
}

// LabConfig configures a simulation laboratory.
type LabConfig struct {
	// Seed drives all randomness. Same seed, same run.
	Seed uint64
	// Nodes is the cluster size (default 3, as in the paper).
	Nodes int
	// Hardened builds Section V resilient nodes instead of original
	// Triad nodes.
	Hardened bool
	// Gossip additionally enables true-chimer report gossip on
	// hardened nodes (§V's "publish their list of true-chimers").
	Gossip bool
	// LossProb degrades every network link with this packet-loss
	// probability (0 = the default reliable LAN model).
	LossProb float64
}

// AttackMode re-exports the calibration delay attack modes.
type AttackMode = attack.Mode

// Attack modes (paper §III-C).
const (
	// FPlus slows the victim's perceived clock (F_calib inflated).
	FPlus = attack.ModeFPlus
	// FMinus quickens the victim's perceived clock; the variant that
	// propagates to honest peers (paper Figure 6).
	FMinus = attack.ModeFMinus
)

// NewLab builds a simulation laboratory.
func NewLab(cfg LabConfig) (*Lab, error) {
	ec := experiment.ClusterConfig{Seed: cfg.Seed, Nodes: cfg.Nodes}
	if cfg.Hardened || cfg.Gossip {
		ec.Protocol = experiment.Hardened(func(rc *resilient.Config) { rc.EnableGossip = cfg.Gossip })
	}
	if cfg.LossProb > 0 {
		link := simnet.DefaultLink()
		link.LossProb = cfg.LossProb
		ec.Link = &link
	}
	cluster, err := experiment.NewCluster(ec)
	if err != nil {
		return nil, err
	}
	return &Lab{Cluster: cluster}, nil
}

// UseTriadLikeAEXs puts node i under the paper's simulated interrupt
// distribution (inter-AEX gaps of 10ms/532ms/1.59s, each w.p. 1/3).
func (l *Lab) UseTriadLikeAEXs(i int) { l.SetEnv(i, experiment.EnvTriadLike) }

// UseIsolatedCore puts node i in the low-AEX environment (only
// residual machine-wide OS interrupts, every ~5.4 minutes).
func (l *Lab) UseIsolatedCore(i int) { l.SetEnv(i, experiment.EnvNone) }

// AttackCalibration attaches an F+/F- delay attacker against node i's
// Time Authority traffic (paper §III-C). Attach before Start.
func (l *Lab) AttackCalibration(i int, mode AttackMode) {
	experiment.DelayAttack(i, mode).Do(l.Cluster)
}

// TrustedNow serves a trusted timestamp from node i at the current
// simulated instant.
func (l *Lab) TrustedNow(i int) (Timestamp, error) {
	ts, err := l.Nodes[i].TrustedNow()
	if err != nil {
		return Timestamp{}, err
	}
	return Timestamp{Nanos: ts}, nil
}

// ReferenceNow reports the simulation's current reference time as
// nanoseconds since the simulated epoch — what an honest observer
// compares trusted timestamps against.
func (l *Lab) ReferenceNow() int64 { return int64(l.Sched.Now()) }

// NodeClock exposes node i as a raw-nanosecond trusted clock, the form
// the application toolkits (tsa, lease) consume.
func (l *Lab) NodeClock(i int) interface{ TrustedNow() (int64, error) } {
	return l.Nodes[i]
}

// Run advances the simulation by d of simulated time.
func (l *Lab) Run(d time.Duration) { l.RunFor(d) }
