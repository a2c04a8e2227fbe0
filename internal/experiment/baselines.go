package experiment

import (
	"fmt"
	"math"
	"time"

	"triadtime/internal/authority"
	"triadtime/internal/core"
	"triadtime/internal/enclave"
	"triadtime/internal/engine"
	"triadtime/internal/ntpdisc"
	"triadtime/internal/resilient"
	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
	"triadtime/internal/t3e"
)

// DriftQualityRow compares one synchronization mechanism's steady-state
// clock quality (the §IV-A.2 / §V discussion: Triad's short-window
// calibration yields ~110ppm effective drift, an order of magnitude
// above NTP's 15ppm standard).
type DriftQualityRow struct {
	Mechanism string
	// ResidualPPM is the steady-state drift rate magnitude.
	ResidualPPM float64
	// WorstOffset is the largest |clock - reference| observed while
	// the mechanism was serving, over the measurement window.
	WorstOffset time.Duration
}

// Summary renders the row.
func (r DriftQualityRow) Summary() string {
	return fmt.Sprintf("%-28s residual drift %8.2fppm   worst offset %v",
		r.Mechanism, r.ResidualPPM, r.WorstOffset.Round(time.Microsecond))
}

// RunDriftQuality compares, on one network against one Time Authority:
// the original Triad node (regression over ≤1s windows), the hardened
// node (8s windowed calibration) and an NTP-style discipline (adaptive
// 16s+ polls, clock filter, frequency discipline). No attacks; the
// question is pure synchronization quality, as in the paper's NTP
// comparison.
func RunDriftQuality(seed uint64, duration time.Duration) ([]DriftQualityRow, error) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	network := simnet.New(sched, rng.Fork(1), simnet.DefaultLink())
	if _, err := authority.NewSimBinding(sched, network, ClusterKey(), TAAddr); err != nil {
		return nil, err
	}

	// Every contender gets the same crystal error: +100ppm relative to
	// the boot-time hint, a realistic oscillator tolerance.
	const crystalPPM = 100.0
	trueHz := simtime.NominalTSCHz * (1 + crystalPPM*1e-6)
	newPlatform := func(addr simnet.Addr, fork uint64) *enclave.SimPlatform {
		return enclave.NewSimPlatform(sched, rng.Fork(fork), network, enclave.SimConfig{
			Addr:      addr,
			TSC:       simtime.NewTSC(trueHz, uint64(addr)*5e9),
			BootTSCHz: simtime.NominalTSCHz,
		})
	}

	triadNode, err := core.NewNode(newPlatform(1, 10), core.Config{
		Config:               engine.Config{Key: ClusterKey(), Addr: 1, Authority: TAAddr},
		CalibSamplesPerSleep: 2,
	})
	if err != nil {
		return nil, err
	}
	hardenedNode, err := resilient.NewNode(newPlatform(2, 11), resilient.Config{
		Config: engine.Config{Key: ClusterKey(), Addr: 2, Authority: TAAddr},
	})
	if err != nil {
		return nil, err
	}
	ntpNode, err := ntpdisc.NewNode(newPlatform(3, 12), engine.Config{Key: ClusterKey(), Addr: 3, Authority: TAAddr})
	if err != nil {
		return nil, err
	}
	triadNode.Start()
	hardenedNode.Start()
	ntpNode.Start()

	// Sample all three clocks once per simulated second after a
	// settling period.
	settle := duration / 4
	type probe struct {
		read  func() (int64, bool)
		worst time.Duration
		// For the drift-rate fit.
		ts, off []float64
	}
	probes := []*probe{
		{read: triadNode.ClockReading},
		{read: hardenedNode.ClockReading},
		{read: ntpNode.ClockReading},
	}
	var tick func()
	tick = func() {
		now := sched.Now()
		if now.Sub(simtime.Epoch) >= settle {
			for _, p := range probes {
				reading, ok := p.read()
				if !ok {
					continue
				}
				off := time.Duration(reading - int64(now))
				if off < 0 {
					off = -off
				}
				if off > p.worst {
					p.worst = off
				}
				p.ts = append(p.ts, now.Seconds())
				p.off = append(p.off, time.Duration(reading-int64(now)).Seconds())
			}
		}
		sched.After(simtime.FromDuration(time.Second), tick)
	}
	sched.After(simtime.FromDuration(time.Second), tick)
	sched.RunUntil(simtime.FromDuration(duration))

	names := []string{
		"Triad (<=1s regression)",
		"hardened (8s window)",
		"NTP discipline (16s+ polls)",
	}
	rows := make([]DriftQualityRow, 0, len(probes))
	for i, p := range probes {
		rows = append(rows, DriftQualityRow{
			Mechanism:   names[i],
			ResidualPPM: math.Abs(slopePPM(p.ts, p.off)),
			WorstOffset: p.worst,
		})
	}
	return rows, nil
}

// slopePPM least-squares fits offset(t) and returns the slope in ppm.
func slopePPM(ts, off []float64) float64 {
	n := float64(len(ts))
	if n < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range ts {
		sx += ts[i]
		sy += off[i]
		sxx += ts[i] * ts[i]
		sxy += ts[i] * off[i]
	}
	den := sxx - sx*sx/n
	if den == 0 {
		return math.NaN()
	}
	return (sxy - sx*sy/n) / den * 1e6
}

// T3ERow is one cell of the T3E trade-off sweep (§II-A): a use quota
// against an attacker-controlled TPM response delay.
type T3ERow struct {
	Quota      int
	TPMDelay   time.Duration
	Throughput float64 // fraction of requests served
	// WorstStaleness is the maximum age of a served timestamp.
	WorstStaleness time.Duration
}

// Summary renders the row.
func (r T3ERow) Summary() string {
	return fmt.Sprintf("quota %5d  tpm_delay %8v  throughput %6.1f%%  worst staleness %v",
		r.Quota, r.TPMDelay, r.Throughput*100, r.WorstStaleness.Round(time.Millisecond))
}

// RunT3ETradeoff sweeps T3E's use quota against TPM delay attacks,
// mapping the paper's §II-A criticism: small quotas stall honest
// workloads, large quotas hand the attacker staleness room — and
// either way the number is workload-dependent.
func RunT3ETradeoff(seed uint64, requests int, interval time.Duration) ([]T3ERow, error) {
	quotas := []int{1, 10, 100, 1000}
	delays := []time.Duration{0, 100 * time.Millisecond, time.Second}
	rows := make([]T3ERow, 0, len(quotas)*len(delays))
	for _, quota := range quotas {
		for _, delay := range delays {
			sched := sim.NewScheduler()
			rng := sim.NewRNG(seed)
			tpm := t3e.NewTPM(sched, rng.Fork(1), 5*time.Millisecond)
			node, err := t3e.NewNode(sched, tpm, t3e.Config{UseQuota: quota})
			if err != nil {
				return nil, err
			}
			// Let the first TPM reading land, then engage the attack.
			sched.RunUntil(simtime.FromDuration(50 * time.Millisecond))
			tpm.ExtraDelay = delay

			served := 0
			worst := time.Duration(0)
			reqRNG := rng.Fork(2)
			for i := 0; i < requests; i++ {
				sched.RunUntil(sched.Now().Add(reqRNG.Jitter(interval, 0.5)))
				ts, err := node.TrustedNow()
				if err != nil {
					continue
				}
				served++
				if s := time.Duration(int64(sched.Now()) - ts); s > worst {
					worst = s
				}
			}
			rows = append(rows, T3ERow{
				Quota:          quota,
				TPMDelay:       delay,
				Throughput:     float64(served) / float64(requests),
				WorstStaleness: worst,
			})
		}
	}
	return rows, nil
}

// T3EDriftRow captures the TPM root-of-trust weakness: an owner
// configuring the spec's full ±32.5% drift envelope skews T3E's served
// time proportionally, with nothing to detect it against — unlike
// Triad, whose reference is the remote Time Authority.
type T3EDriftRow struct {
	TPMRateFrac float64
	// ServedDriftFrac is served-time drift relative to real time.
	ServedDriftFrac float64
}

// Summary renders the row.
func (r T3EDriftRow) Summary() string {
	return fmt.Sprintf("tpm_rate %+6.1f%%  served drift %+6.1f%%", r.TPMRateFrac*100, r.ServedDriftFrac*100)
}

// RunT3EOwnerDrift measures served-time drift under TPM owner rate
// configuration.
func RunT3EOwnerDrift(seed uint64) ([]T3EDriftRow, error) {
	fracs := []float64{-t3e.MaxTPMDriftFrac, 0, t3e.MaxTPMDriftFrac}
	rows := make([]T3EDriftRow, 0, len(fracs))
	for _, frac := range fracs {
		sched := sim.NewScheduler()
		rng := sim.NewRNG(seed)
		tpm := t3e.NewTPM(sched, rng.Fork(1), 5*time.Millisecond)
		tpm.RateFrac = frac
		node, err := t3e.NewNode(sched, tpm, t3e.Config{UseQuota: 1 << 20})
		if err != nil {
			return nil, err
		}
		sched.RunUntil(simtime.FromDuration(100 * time.Second))
		ts, err := node.TrustedNow()
		if err != nil {
			return nil, fmt.Errorf("t3e drift run: %w", err)
		}
		rows = append(rows, T3EDriftRow{
			TPMRateFrac:     frac,
			ServedDriftFrac: float64(ts-int64(sched.Now())) / float64(sched.Now()),
		})
	}
	return rows, nil
}
