package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"triadtime/internal/experiment/runner"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
)

// LossRow reports cluster health under one packet-loss rate.
type LossRow struct {
	LossProb float64
	// Calibrated reports whether all nodes completed calibration.
	Calibrated bool
	// MinAvailability is the worst node's serving availability.
	MinAvailability float64
	// WorstDriftPPM is the worst |F_calib error| across nodes.
	WorstDriftPPM float64
}

// Summary renders the row.
func (r LossRow) Summary() string {
	return fmt.Sprintf("loss %4.1f%%  calibrated=%-5v  min availability %7.3f%%  worst F_calib err %6.1fppm",
		r.LossProb*100, r.Calibrated, r.MinAvailability*100, r.WorstDriftPPM)
}

// RunLossResilience sweeps UDP loss rates over the fault-free
// Triad-like scenario: the protocol's request/timeout/retry machinery
// must keep the cluster calibrated and available as the network
// degrades (loss only costs retries, never correctness). Cancelling
// ctx abandons unstarted loss points and returns its error.
func RunLossResilience(ctx context.Context, seed uint64, duration time.Duration, lossProbs []float64) ([]LossRow, error) {
	if len(lossProbs) == 0 {
		lossProbs = []float64{0, 0.01, 0.05, 0.20}
	}
	tasks := make([]runner.Task[LossRow], len(lossProbs))
	for t, loss := range lossProbs {
		loss := loss
		tasks[t] = runner.Task[LossRow]{
			Name: fmt.Sprintf("loss %.0f%%", loss*100),
			Run: func(context.Context) (LossRow, error) {
				link := simnet.DefaultLink()
				link.LossProb = loss
				// Streaming: the row reduces to final calibrated rates and
				// timeline availability, so no sample series is retained.
				c, err := Run(Scenario{
					ClusterConfig: ClusterConfig{Seed: seed, Link: &link, Streaming: true},
					Env:           []Env{EnvTriadLike},
					Duration:      duration,
				})
				if err != nil {
					return LossRow{}, err
				}

				row := LossRow{LossProb: loss, Calibrated: true, MinAvailability: 1}
				for i := range c.Nodes {
					f := c.FinalFCalib(i)
					if f == 0 {
						row.Calibrated = false
						continue
					}
					ppm := math.Abs(f-simtime.NominalTSCHz) / simtime.NominalTSCHz * 1e6
					row.WorstDriftPPM = math.Max(row.WorstDriftPPM, ppm)
					row.MinAvailability = math.Min(row.MinAvailability, c.Availability(i))
				}
				c.ReleaseProbes()
				return row, nil
			},
		}
	}
	return runner.Run(ctx, runner.Config{}, tasks).Values()
}

// OutageResult reports cluster behaviour across a Time Authority
// outage window.
type OutageResult struct {
	OutageStart, OutageEnd time.Duration
	// AvailabilityDuring is the worst node availability measured over
	// the outage window only.
	AvailabilityDuring float64
	// Recovered reports whether every node was serving again after the
	// authority returned.
	Recovered bool
}

// Summary renders the result.
func (r OutageResult) Summary() string {
	return fmt.Sprintf("TA outage %v..%v: worst availability during %6.2f%%, recovered=%v",
		r.OutageStart, r.OutageEnd, r.AvailabilityDuring*100, r.Recovered)
}

// RunTAOutage kills the Time Authority for [start, end) of a
// Triad-like run. While the TA is dark, nodes can still untaint from
// peers; only simultaneous machine-wide taints leave them stuck in
// RefCalib retries until the authority returns.
func RunTAOutage(seed uint64, duration, start, end time.Duration) (*OutageResult, error) {
	c, err := Run(Scenario{
		ClusterConfig: ClusterConfig{Seed: seed},
		Env:           []Env{EnvTriadLike},
		Steps:         []Step{blackhole([]simnet.Addr{TAAddr}, start, end)},
		Duration:      duration,
	})
	if err != nil {
		return nil, err
	}

	res := &OutageResult{OutageStart: start, OutageEnd: end, AvailabilityDuring: 1, Recovered: true}
	for i := range c.Nodes {
		avail := c.Timelines[i].Availability(simtime.FromDuration(start), simtime.FromDuration(end))
		res.AvailabilityDuring = math.Min(res.AvailabilityDuring, avail)
		// Recovery: available again over the final stretch.
		tail := c.Timelines[i].Availability(simtime.FromDuration(duration-30*time.Second), simtime.FromDuration(duration))
		if tail < 0.5 {
			res.Recovered = false
		}
	}
	return res, nil
}
