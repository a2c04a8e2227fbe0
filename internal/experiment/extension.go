package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"triadtime/internal/attack"
	"triadtime/internal/core"
	"triadtime/internal/experiment/runner"
	"triadtime/internal/resilient"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
)

// Variant selects a protocol build for the Section V extension and
// ablation experiments.
type Variant int

// Protocol variants under ablation.
const (
	// VariantOriginal is the paper's Triad implementation
	// (internal/core), fully vulnerable.
	VariantOriginal Variant = iota + 1
	// VariantHardened is the full Section V hardening: windowed
	// calibration, RTT bounds, chimer filtering, in-TCB deadline.
	VariantHardened
	// VariantNoChimer disables the true-chimer peer filter only.
	VariantNoChimer
	// VariantNoDeadline disables the in-TCB refresh deadline only.
	VariantNoDeadline
)

// String names the variant for result tables.
func (v Variant) String() string {
	switch v {
	case VariantOriginal:
		return "original"
	case VariantHardened:
		return "hardened"
	case VariantNoChimer:
		return "hardened-no-chimer"
	case VariantNoDeadline:
		return "hardened-no-deadline"
	default:
		return "variant(?)"
	}
}

// protocol is the variant's protocol line (nil: the paper's).
func (v Variant) protocol() Protocol {
	if v == VariantOriginal {
		return nil
	}
	return Hardened(func(rc *resilient.Config) {
		rc.DisableChimerFilter = v == VariantNoChimer
		rc.DisableDeadline = v == VariantNoDeadline
	})
}

// ExtensionResult summarizes one variant's behaviour under attack.
type ExtensionResult struct {
	Variant Variant
	Mode    attack.Mode
	// HonestMaxDrift is the worst |drift| (seconds) either honest node
	// showed while serving.
	HonestMaxDrift float64
	// HonestInfected reports whether any honest node skipped more than
	// one second into the future (the paper's propagation outcome).
	HonestInfected bool
	// CompromisedFCalibPPM is how far the compromised node's calibrated
	// rate landed from the true rate, in ppm (0 if never calibrated).
	CompromisedFCalibPPM float64
	// CompromisedAvailability is the compromised node's serving
	// availability (hardening may trade it for safety).
	CompromisedAvailability float64
	// HonestAvailability is the worst availability among honest nodes.
	HonestAvailability float64
}

// Summary renders one comparison row.
func (r ExtensionResult) Summary() string {
	infected := "honest nodes SAFE"
	if r.HonestInfected {
		infected = "honest nodes INFECTED"
	}
	return fmt.Sprintf(
		"%-22s under %s: honest max drift %8.3fms (%s), honest avail %.2f%%, compromised F_calib off %7.0fppm, compromised avail %.2f%%",
		r.Variant, r.Mode, r.HonestMaxDrift*1e3, infected,
		r.HonestAvailability*100, r.CompromisedFCalibPPM, r.CompromisedAvailability*100)
}

// RunExtensionVariant runs the Figure 6 propagation scenario on the
// given protocol variant and summarizes the outcome.
func RunExtensionVariant(seed uint64, v Variant, mode attack.Mode, duration time.Duration) (*ExtensionResult, error) {
	c, err := Run(propagation(seed, v.protocol(), mode, duration))
	if err != nil {
		return nil, err
	}

	res := &ExtensionResult{Variant: v, Mode: mode, HonestAvailability: 1}
	for i := 0; i < 2; i++ {
		for _, p := range c.Drift[i].Available() {
			a := math.Abs(p.DriftSeconds)
			res.HonestMaxDrift = math.Max(res.HonestMaxDrift, a)
			if p.DriftSeconds > 1 {
				res.HonestInfected = true
			}
		}
		res.HonestAvailability = math.Min(res.HonestAvailability, c.Availability(i))
	}
	if f := c.FinalFCalib(2); f != 0 {
		res.CompromisedFCalibPPM = (f - simtime.NominalTSCHz) / simtime.NominalTSCHz * 1e6
	}
	res.CompromisedAvailability = c.Availability(2)
	return res, nil
}

// RunExtensionComparison runs the F- propagation scenario across all
// protocol variants — the headline Section V result: the hardened
// protocol keeps honest nodes safe where the original gets infected.
// Cancelling ctx abandons unstarted variants and returns its error.
func RunExtensionComparison(ctx context.Context, seed uint64, duration time.Duration) ([]*ExtensionResult, error) {
	variants := []Variant{VariantOriginal, VariantHardened, VariantNoChimer, VariantNoDeadline}
	tasks := make([]runner.Task[*ExtensionResult], len(variants))
	for i, v := range variants {
		v := v
		tasks[i] = runner.Task[*ExtensionResult]{
			Name: fmt.Sprintf("variant %s", v),
			Run: func(context.Context) (*ExtensionResult, error) {
				// Variants share the seed on purpose (like-for-like
				// comparison); each variant is its own simulation, so the
				// repeated sender identities share no nonce space.
				r, err := RunExtensionVariant(seed, v, attack.ModeFMinus, duration)
				if err != nil {
					return nil, fmt.Errorf("variant %s: %w", v, err)
				}
				return r, nil
			},
		}
	}
	return runner.Run(ctx, runner.Config{}, tasks).Values()
}

// DualMonitorRow reports one monitoring configuration's behaviour under
// the DVFS-masked TSC-scaling attack of §IV-A.1 (RQ A.1).
type DualMonitorRow struct {
	Mechanism string
	// Detected reports whether the manipulation triggered a
	// recalibration.
	Detected bool
	// FinalClockRate is the node's perceived seconds per reference
	// second at the end of the run (1.0 = honest).
	FinalClockRate float64
}

// Summary renders the row.
func (r DualMonitorRow) Summary() string {
	return fmt.Sprintf("%-22s detected=%-5v final clock rate %.4f", r.Mechanism, r.Detected, r.FinalClockRate)
}

// RunDualMonitorAblation runs the masking attack — guest TSC scaled to
// 0.8x with the monitoring core simultaneously dropped from 3500MHz to
// the discrete 2800MHz DVFS point — against an INC-only node and a
// dual-monitor (INC + memory) node.
func RunDualMonitorAblation(seed uint64) ([]DualMonitorRow, error) {
	run := func(enableMem bool) (DualMonitorRow, error) {
		c, err := Run(Scenario{
			ClusterConfig: ClusterConfig{
				Seed:  seed,
				Nodes: 1,
				// The masking attacker owns the OS: it suppresses
				// interrupts so nothing but the monitors can notice
				// anything (and TA re-anchor jumps do not pollute the rate
				// probe).
				DisableMachineAEX: true,
				Protocol:          Original(func(cfg *core.Config) { cfg.EnableMemMonitor = enableMem }),
			},
			Duration: 30 * time.Second,
		})
		if err != nil {
			return DualMonitorRow{}, err
		}
		// The cluster builder wired Calibrated; detection shows up as a
		// second calibration after the attack engages.
		calibsBefore := len(c.FCalibs[0])
		c.Platforms[0].TSC().SetScale(0.8, c.Sched.Now())
		c.Platforms[0].SetCoreFreqHz(2800e6)
		c.RunFor(60 * time.Second)
		detected := len(c.FCalibs[0]) > calibsBefore

		start, _ := c.Nodes[0].ClockReading()
		startRef := c.Sched.Now()
		c.RunFor(10 * time.Second)
		end, _ := c.Nodes[0].ClockReading()
		rate := float64(end-start) / float64(c.Sched.Now().Sub(startRef))
		name := "INC-only monitor"
		if enableMem {
			name = "INC + memory monitor"
		}
		return DualMonitorRow{Mechanism: name, Detected: detected, FinalClockRate: rate}, nil
	}
	incOnly, err := run(false)
	if err != nil {
		return nil, err
	}
	dual, err := run(true)
	if err != nil {
		return nil, err
	}
	return []DualMonitorRow{incOnly, dual}, nil
}

// GossipRow compares Time Authority reliance with and without §V's
// true-chimer gossip, under lossy conditions where taints often gather
// only a minority of peer answers.
type GossipRow struct {
	Gossip bool
	// TARefsPerNode is the mean TA reference count per node.
	TARefsPerNode float64
	// PeerUntaintsPerNode is the mean peer-recovery count per node.
	PeerUntaintsPerNode float64
	// MinAvailability is the worst node availability.
	MinAvailability float64
}

// Summary renders the row.
func (r GossipRow) Summary() string {
	return fmt.Sprintf("gossip=%-5v TA refs/node %6.1f  peer untaints/node %6.1f  min availability %6.2f%%",
		r.Gossip, r.TARefsPerNode, r.PeerUntaintsPerNode, r.MinAvailability*100)
}

// RunGossipComparison runs a lossy 5-node hardened cluster with and
// without chimer gossip: accredited peers standing in for same-moment
// majorities cut TA reliance (§V: "a majority clique of true-chimers
// may be used to maintain clock consistency and rely less often on
// the TA").
func RunGossipComparison(seed uint64, duration time.Duration) ([]GossipRow, error) {
	rows := make([]GossipRow, 0, 2)
	for _, gossip := range []bool{false, true} {
		link := simnet.DefaultLink()
		link.LossProb = 0.35 // partial answers dominate recovery rounds
		c, err := Run(Scenario{
			ClusterConfig: ClusterConfig{
				Seed:     seed,
				Nodes:    5,
				Link:     &link,
				Protocol: Hardened(func(rc *resilient.Config) { rc.EnableGossip = gossip }),
			},
			Env:      []Env{EnvTriadLike},
			Duration: duration,
		})
		if err != nil {
			return nil, err
		}

		row := GossipRow{Gossip: gossip, MinAvailability: 1}
		for i, n := range c.Nodes {
			cnt := n.Counters()
			row.TARefsPerNode += float64(cnt.TAReferences)
			row.PeerUntaintsPerNode += float64(cnt.PeerUntaints)
			row.MinAvailability = math.Min(row.MinAvailability, c.Availability(i))
		}
		row.TARefsPerNode /= float64(len(c.Nodes))
		row.PeerUntaintsPerNode /= float64(len(c.Nodes))
		rows = append(rows, row)
	}
	return rows, nil
}
