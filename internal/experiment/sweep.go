package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"triadtime/internal/attack"
	"triadtime/internal/experiment/runner"
	"triadtime/internal/simtime"
	"triadtime/internal/stats"
)

// SweepResult aggregates the fault-free scenario's headline quantities
// across independent seeds — the reproduction's error bars.
type SweepResult struct {
	Seeds int
	// Availability statistics across all nodes and seeds.
	Availability stats.Summary
	// FCalibErrPPM is |F_calib − F_TSC| in ppm across all nodes/seeds.
	FCalibErrPPM stats.Summary
	// SegmentDriftPPM is the between-resets drift rate across nodes.
	SegmentDriftPPM stats.Summary
}

// Summary renders the table.
func (r *SweepResult) Summary() string {
	return fmt.Sprintf(
		"seed sweep (n=%d runs):\n"+
			"  availability      mean %7.3f%%  min %7.3f%%\n"+
			"  F_calib error     mean %7.1fppm  max %7.1fppm\n"+
			"  drift rate        mean %7.1fppm  max %7.1fppm",
		r.Seeds,
		r.Availability.Mean*100, r.Availability.Min*100,
		r.FCalibErrPPM.Mean, r.FCalibErrPPM.Max,
		r.SegmentDriftPPM.Mean, r.SegmentDriftPPM.Max)
}

// RunSeedSweep repeats the Figure 2 scenario across seeds and
// aggregates: the paper's qualitative claims should hold for every
// seed, not one lucky draw. The seeds are independent simulations, so
// they fan across the runner's worker pool; aggregation happens in
// seed order afterwards, keeping the result bit-identical to a serial
// sweep at any worker count. Cancelling ctx abandons unstarted seeds
// and returns its error.
func RunSeedSweep(ctx context.Context, baseSeed uint64, seeds int, duration time.Duration) (*SweepResult, error) {
	if seeds <= 0 {
		seeds = 5
	}
	tasks := make([]runner.Task[*FigureResult], seeds)
	for s, seed := range runner.Seeds(baseSeed, seeds) {
		seed := seed
		tasks[s] = runner.Task[*FigureResult]{
			Name: fmt.Sprintf("fig2 seed %d", seed),
			Run: func(context.Context) (*FigureResult, error) {
				res, err := RunFig2(seed, duration)
				if err != nil {
					return nil, fmt.Errorf("seed %d: %w", seed, err)
				}
				return res, nil
			},
		}
	}
	results, err := runner.Run(ctx, runner.Config{}, tasks).Values()
	if err != nil {
		return nil, err
	}
	var avail, ferr, drift stats.Welford
	for _, res := range results {
		for i := range res.FCalib {
			avail.Add(res.Availability[i])
			ferr.Add(math.Abs(res.FCalib[i]-simtime.NominalTSCHz) / simtime.NominalTSCHz * 1e6)
			if ppm, ok := res.SegmentDriftPPM(i); ok {
				drift.Add(ppm)
			}
		}
	}
	return &SweepResult{
		Seeds:           seeds,
		Availability:    avail.Snapshot(),
		FCalibErrPPM:    ferr.Snapshot(),
		SegmentDriftPPM: drift.Snapshot(),
	}, nil
}

// AttackLatencyRow contrasts client-visible service under the F-
// attack for both protocol variants: the original keeps "serving"
// (corrupted time, high availability), the hardened one turns the
// attack into visible unavailability on the compromised node while
// honest nodes keep serving honestly.
type AttackLatencyRow struct {
	Variant Variant
	// HonestFirstTry is the honest nodes' immediate-success fraction.
	HonestFirstTry float64
	// CompromisedFirstTry is the compromised node's.
	CompromisedFirstTry float64
}

// Summary renders the row.
func (r AttackLatencyRow) Summary() string {
	return fmt.Sprintf("%-10s honest first-try %6.2f%%  compromised first-try %6.2f%%",
		r.Variant, r.HonestFirstTry*100, r.CompromisedFirstTry*100)
}

// RunAttackLatency measures request success rates under the Figure 6
// F- scenario for the original and hardened protocols. The two variant
// runs are independent simulations and execute on the worker pool.
// Cancelling ctx abandons unstarted variants and returns its error.
func RunAttackLatency(ctx context.Context, seed uint64, duration time.Duration) ([]AttackLatencyRow, error) {
	variants := []Variant{VariantOriginal, VariantHardened}
	tasks := make([]runner.Task[AttackLatencyRow], len(variants))
	for i, v := range variants {
		v := v
		tasks[i] = runner.Task[AttackLatencyRow]{
			Name: fmt.Sprintf("attack latency %s", v),
			Run: func(context.Context) (AttackLatencyRow, error) {
				// Both variants reuse the seed for a like-for-like
				// comparison; the clusters are separate simulations.
				sc := propagation(seed, v.protocol(), attack.ModeFMinus, duration)
				honest := probeCounts{}
				compromised := probeCounts{}
				var c *Cluster
				var poll func()
				poll = func() {
					for i, n := range c.Nodes {
						_, err := n.TrustedNow()
						tgt := &honest
						if i == 2 {
							tgt = &compromised
						}
						tgt.total++
						if err == nil {
							tgt.ok++
						}
					}
					c.Sched.After(simtime.FromDuration(100*time.Millisecond), poll)
				}
				sc.Steps = append(sc.Steps, Step{At: 30 * time.Second, Do: func(cl *Cluster) { c = cl; poll() }})
				if _, err := Run(sc); err != nil {
					return AttackLatencyRow{}, err
				}
				return AttackLatencyRow{
					Variant:             v,
					HonestFirstTry:      honest.frac(),
					CompromisedFirstTry: compromised.frac(),
				}, nil
			},
		}
	}
	return runner.Run(ctx, runner.Config{}, tasks).Values()
}

type probeCounts struct {
	ok, total int
}

func (p probeCounts) frac() float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.ok) / float64(p.total)
}
