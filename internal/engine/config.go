package engine

import (
	"errors"
	"fmt"
	"time"

	"triadtime/internal/simnet"
	"triadtime/internal/wire"
)

// Config is the configuration every protocol variant shares: the
// fields that mean the same thing, with the same default, whichever
// policies run on the engine. It is declared, documented and defaulted
// here only; a variant's Config embeds it and adds its own knobs
// (calibration sleeps, windows, RTT bounds, deadlines), which reach
// the engine through policy behaviour and the Policies bundle.
type Config struct {
	// Key is the cluster's 32-byte pre-shared AES-256 key.
	Key []byte
	// Addr is this node's network address and wire sender identity.
	Addr simnet.Addr
	// Peers are the other Triad nodes in the cluster, in broadcast
	// order.
	Peers []simnet.Addr
	// Authority is the Time Authority's address.
	Authority simnet.Addr
	// Authorities lists every Time Authority this node trusts, in a
	// fixed order. Empty defaults to {Authority}: the single-authority
	// protocol. With two or more entries the node abandons the
	// single-TA trust assumption: the variant's own calibration is
	// replaced by QuorumCalibration, which fans every exchange out to
	// all authorities and adopts a reference only when a quorum's
	// Marzullo intervals agree (peer untainting, probes and deadlines
	// stay the variant's). Authority may then be left zero and
	// defaults to Authorities[0].
	Authorities []simnet.Addr
	// QuorumMinAgree overrides the quorum's strict-majority agreement
	// rule with an absolute count (e.g. 1 for a 2-authority deployment
	// that must survive one authority loss, trading Byzantine
	// protection for availability). 0 keeps the majority rule.
	QuorumMinAgree int
	// QuorumRecheck is the steady-state quorum revalidation period:
	// while serving, a multi-authority node re-runs a reference round
	// and degrades to holdover, instead of going dark, if the quorum
	// is gone. Default: 10s.
	QuorumRecheck time.Duration

	// PeerTimeout bounds how long a tainted node waits for peer
	// timestamps before falling back to the Time Authority.
	// Default: 20ms.
	PeerTimeout time.Duration
	// TATimeout bounds the wait for a Time Authority response beyond
	// any requested sleep; a quorum round closes when every authority
	// answered or it passes. Default: 250ms.
	TATimeout time.Duration

	// MonitorTicks is the guest-TSC window of one INC monitoring
	// measurement. Default: 15e6 ticks (~5ms), the paper's window.
	MonitorTicks uint64
	// MonitorTolerance is the relative INC deviation from the baseline
	// that is flagged as a TSC discrepancy. Default: 0.005 (0.5%) —
	// generous against the σ≈2.9/632182 ≈ 5ppm measurement noise while
	// far below any useful attack scaling.
	MonitorTolerance float64
	// DisableMonitor turns off rate monitoring entirely (some
	// experiments isolate calibration behaviour).
	DisableMonitor bool

	// Events are optional observation hooks.
	Events Events
}

// Defaults used when Config fields are zero.
const (
	DefaultPeerTimeout      = 20 * time.Millisecond
	DefaultTATimeout        = 250 * time.Millisecond
	DefaultQuorumRecheck    = 10 * time.Second
	DefaultMonitorTicks     = 15_000_000
	DefaultMonitorTolerance = 0.005
)

// withDefaults returns a copy of the config with zero fields defaulted
// and validates the result. Errors carry no package prefix so the
// variant packages can wrap them under their own name.
func (c Config) withDefaults() (Config, error) {
	if len(c.Key) != wire.KeySize {
		return c, fmt.Errorf("key must be %d bytes, got %d", wire.KeySize, len(c.Key))
	}
	if len(c.Authorities) > 0 && c.Authority == 0 {
		c.Authority = c.Authorities[0]
	}
	if c.Authority == c.Addr {
		return c, errors.New("node address equals authority address")
	}
	if len(c.Authorities) == 0 {
		c.Authorities = []simnet.Addr{c.Authority}
	}
	for i, a := range c.Authorities {
		if a == c.Addr {
			return c, errors.New("node address listed as an authority")
		}
		for _, b := range c.Authorities[:i] {
			if a == b {
				return c, fmt.Errorf("authority %d listed twice", a)
			}
		}
	}
	for _, p := range c.Peers {
		if p == c.Addr {
			return c, errors.New("node lists itself as a peer")
		}
	}
	if c.QuorumRecheck <= 0 {
		c.QuorumRecheck = DefaultQuorumRecheck
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = DefaultPeerTimeout
	}
	if c.TATimeout <= 0 {
		c.TATimeout = DefaultTATimeout
	}
	if c.MonitorTicks == 0 {
		c.MonitorTicks = DefaultMonitorTicks
	}
	if c.MonitorTolerance <= 0 {
		c.MonitorTolerance = DefaultMonitorTolerance
	}
	return c, nil
}
