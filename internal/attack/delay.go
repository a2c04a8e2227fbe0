// Package attack implements the paper's attacks on Triad.
//
// The F+ and F- attacks (paper §III-C) target the calibration protocol
// from the network: the attacker controls the compromised machine's OS,
// so it can delay datagrams between its local TEE and the Time
// Authority. Messages are encrypted, so the attacker cannot read the
// requested sleep s — but it can measure how long the TA held each
// response and classify requests as "high-s" or "low-s" from timing
// alone:
//
//   - F+ delays high-s responses, steepening the regression so the node
//     overestimates its TSC rate (F_calib > F_TSC) and its perceived
//     clock runs slow;
//   - F- delays low-s responses, flattening the regression
//     (F_calib < F_TSC) so the perceived clock runs fast — the variant
//     that propagates to honest peers.
package attack

import (
	"time"

	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
)

// Mode selects which calibration samples a delay attack skews.
type Mode int

// Attack modes.
const (
	// ModeFPlus delays high-sleep responses: F_calib inflated, clock
	// slowed (paper Figures 4 and 5).
	ModeFPlus Mode = iota + 1
	// ModeFMinus delays low-sleep responses: F_calib deflated, clock
	// quickened, drift propagates to peers (paper Figure 6).
	ModeFMinus
)

// String names the mode as in the paper.
func (m Mode) String() string {
	switch m {
	case ModeFPlus:
		return "F+"
	case ModeFMinus:
		return "F-"
	default:
		return "Mode(?)"
	}
}

// DelayConfig parameterizes a calibration delay attack.
type DelayConfig struct {
	// Victim is the compromised node whose TA traffic the attacker
	// controls.
	Victim simnet.Addr
	// Authority is the Time Authority's address.
	Authority simnet.Addr
	// Mode selects F+ or F-.
	Mode Mode
	// Extra is the delay added to targeted responses. The paper uses
	// 100ms. Default: 100ms.
	Extra time.Duration
	// Threshold splits "low-s" from "high-s" by observed TA hold time.
	// With the paper's 0s/1s calibration sleeps, anything around 500ms
	// works. Default: 500ms.
	Threshold time.Duration
}

// Classifier is the attack's timing side channel, shared by Delay and
// the live proxy (cmd/triad-attack). It matches each authority response
// to the victim's oldest outstanding request and takes the gap as the
// authority's hold time (the attacker's LAN round trip is negligible
// against the 0s/1s split). Instants are nanoseconds on any one
// monotonic clock.
type Classifier struct {
	Mode      Mode  // F+ targets high holds, F- low ones
	Threshold int64 // nanoseconds; a hold at or above it is high

	// Request send times, oldest first: depth one but for retries.
	outstanding []int64
}

// Request records a victim-to-authority request sent at the instant.
func (c *Classifier) Request(at int64) { c.outstanding = append(c.outstanding, at) }

// Response reports whether the mode targets an authority-to-victim
// response arriving at the instant. One with no observed request (the
// attacker attached mid-exchange) counts as a zero hold.
func (c *Classifier) Response(at int64) bool {
	var hold int64
	if len(c.outstanding) > 0 {
		hold = at - c.outstanding[0]
		c.outstanding = c.outstanding[1:]
	}
	high := hold >= c.Threshold
	return high != (c.Mode == ModeFMinus)
}

// Delay is the attacking middlebox. It watches the victim's TA traffic,
// classifies each response by its hold time (the only side channel the
// encryption leaves open), and delays the responses its mode targets.
type Delay struct {
	cfg DelayConfig
	cls Classifier

	delayed int
	passed  int
}

var _ simnet.Middlebox = (*Delay)(nil)

// NewDelay creates the attack middlebox. Attach it to the network with
// AttachMiddlebox.
func NewDelay(cfg DelayConfig) *Delay {
	if cfg.Extra == 0 {
		cfg.Extra = 100 * time.Millisecond
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 500 * time.Millisecond
	}
	return &Delay{cfg: cfg, cls: Classifier{Mode: cfg.Mode, Threshold: int64(cfg.Threshold)}}
}

// Delayed reports how many responses the attack has delayed.
func (d *Delay) Delayed() int { return d.delayed }

// Passed reports how many victim-TA responses passed undelayed.
func (d *Delay) Passed() int { return d.passed }

// Process implements simnet.Middlebox.
func (d *Delay) Process(now simtime.Instant, pkt simnet.Packet) simnet.Verdict {
	switch {
	case pkt.From == d.cfg.Victim && pkt.To == d.cfg.Authority:
		d.cls.Request(int64(now))
	case pkt.From == d.cfg.Authority && pkt.To == d.cfg.Victim:
		if d.cls.Response(int64(now)) {
			d.delayed++
			return simnet.Verdict{ExtraDelay: d.cfg.Extra}
		}
		d.passed++
	}
	return simnet.Verdict{}
}
