package experiment

import (
	"context"
	"fmt"
	"time"

	"triadtime/internal/core"
	"triadtime/internal/experiment/runner"
	"triadtime/internal/stats"
)

// CalibTimeRow reports the time-to-first-service distribution for one
// protocol under one interrupt environment: how long a freshly started
// node needs before TrustedNow works. Calibration requires
// uninterrupted measurement windows, so AEX pressure stretches it —
// differently for the original (needs 1s-sleep roundtrips) and the
// hardened protocol (adaptive windows).
type CalibTimeRow struct {
	Protocol string
	Env      string
	// P50 and P95 of time-to-first-OK across trials.
	P50, P95 time.Duration
	Trials   int
}

// Summary renders the row.
func (r CalibTimeRow) Summary() string {
	return fmt.Sprintf("%-9s %-11s p50 %8v   p95 %8v   (n=%d)",
		r.Protocol, r.Env, r.P50.Round(time.Millisecond), r.P95.Round(time.Millisecond), r.Trials)
}

// RunCalibrationTime measures startup time across seeds for both
// protocols in both interrupt environments. Every (protocol, env,
// trial) combination is an independent single-node simulation; the
// whole grid fans across the runner's worker pool, with samples
// regrouped in trial order so quantiles match a serial run exactly.
// Cancelling ctx abandons unstarted trials and returns its error.
func RunCalibrationTime(ctx context.Context, baseSeed uint64, trials int) ([]CalibTimeRow, error) {
	if trials <= 0 {
		trials = 10
	}
	type combo struct {
		variant Variant
		env     Env
	}
	combos := []combo{
		{VariantOriginal, EnvNone}, {VariantOriginal, EnvTriadLike},
		{VariantHardened, EnvNone}, {VariantHardened, EnvTriadLike},
	}
	var tasks []runner.Task[float64]
	for _, cb := range combos {
		for trial := 0; trial < trials; trial++ {
			cb, seed := cb, baseSeed+uint64(trial)
			tasks = append(tasks, runner.Task[float64]{
				Name: fmt.Sprintf("calib %s env=%d seed=%d", cb.variant, cb.env, seed),
				Run: func(context.Context) (float64, error) {
					d, err := timeToFirstOK(seed, cb.variant.protocol(), cb.env)
					if err != nil {
						return 0, err
					}
					return d.Seconds(), nil
				},
			})
		}
	}
	samplesByTask, err := runner.Run(ctx, runner.Config{}, tasks).Values()
	if err != nil {
		return nil, err
	}

	var rows []CalibTimeRow
	for ci, cb := range combos {
		samples := samplesByTask[ci*trials : (ci+1)*trials]
		cdf := stats.NewCDF(samples)
		envName := "low-AEX"
		if cb.env == EnvTriadLike {
			envName = "Triad-like"
		}
		rows = append(rows, CalibTimeRow{
			Protocol: cb.variant.String(),
			Env:      envName,
			P50:      time.Duration(cdf.Quantile(0.5) * float64(time.Second)),
			P95:      time.Duration(cdf.Quantile(0.95) * float64(time.Second)),
			Trials:   trials,
		})
	}
	return rows, nil
}

// timeToFirstOK runs a single node until it first reaches StateOK.
func timeToFirstOK(seed uint64, protocol Protocol, env Env) (time.Duration, error) {
	var firstOK time.Duration = -1
	c, err := Run(Scenario{
		ClusterConfig: ClusterConfig{Seed: seed, Nodes: 1, Protocol: protocol},
		Env:           []Env{env},
	})
	if err != nil {
		return 0, err
	}
	deadline := 10 * time.Minute
	step := 50 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < deadline; elapsed += step {
		c.RunFor(step)
		if c.Nodes[0].State() == core.StateOK {
			firstOK = elapsed + step
			break
		}
	}
	if firstOK < 0 {
		return 0, fmt.Errorf("seed %d: node never calibrated within %v", seed, deadline)
	}
	return firstOK, nil
}
