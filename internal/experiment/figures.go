package experiment

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"triadtime/internal/attack"
	"triadtime/internal/core"
	"triadtime/internal/experiment/runner"
	"triadtime/internal/metrics"
	"triadtime/internal/stats"
)

// longRunMonitorTicks enlarges the INC monitoring window for multi-hour
// simulations so event counts stay tractable (the detector's relative
// precision only improves with a longer window).
const longRunMonitorTicks = 150_000_000 // ~52ms at 2.9GHz

// FigureResult carries everything a drift/state figure needs.
type FigureResult struct {
	Name     string
	Duration time.Duration

	Drift     []*metrics.DriftSeries
	TACounts  []*metrics.CountSeries
	AEXCounts []*metrics.CountSeries
	Timelines []*metrics.StateTimeline

	// FCalib is each node's final calibrated rate (Hz).
	FCalib []float64
	// Availability is each node's serving availability over the run.
	Availability []float64
	// Counters are each node's final protocol counters, including the
	// hardening tallies (peer rejections, RTT rejections, probes) that
	// stay zero on original-protocol runs.
	Counters []metrics.CounterSnapshot
}

// DriftRate estimates node i's drift rate (s/s) over [fromSec, toSec].
func (r *FigureResult) DriftRate(i int, fromSec, toSec float64) (float64, bool) {
	return r.Drift[i].DriftRatePerSecond(fromSec, toSec)
}

// SegmentDriftPPM estimates node i's characteristic drift rate between
// clock resets (TA re-anchors and peer-untaint jumps): the median of
// consecutive-sample drift slopes. The median discards the reset
// samples as outliers, leaving the steady free-running rate — the
// quantity the paper's "~110ppm" drift rates describe, which a
// whole-run fit would wash out to ~0 against the sawtooth.
func (r *FigureResult) SegmentDriftPPM(i int) (float64, bool) {
	var scratch []float64
	return r.segmentDriftPPM(i, &scratch)
}

// segmentDriftPPM is SegmentDriftPPM working in the caller's scratch
// slice, which it leaves (grown if it had to be) for the next call.
func (r *FigureResult) segmentDriftPPM(i int, scratch *[]float64) (float64, bool) {
	rates := (*scratch)[:0]
	var prev *metrics.DriftPoint // the latest sample taken while serving
	pts := r.Drift[i].Points
	for j := range pts {
		p := &pts[j]
		if !p.State.Serving() {
			continue
		}
		if prev != nil {
			dt := p.RefSeconds - prev.RefSeconds
			// A longer gap is unavailability, not a free-running stretch.
			if dt > 0 && dt <= 5 {
				rates = append(rates, math.Abs(p.DriftSeconds-prev.DriftSeconds)/dt*1e6)
			}
		}
		prev = p
	}
	*scratch = rates
	if len(rates) == 0 {
		return 0, false
	}
	return stats.MedianInPlace(rates), true
}

// Summary renders the shape-level numbers a reader compares against the
// paper: calibrated rates, drift rates, availability.
func (r *FigureResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s simulated)\n", r.Name, r.Duration)
	var scratch []float64
	for i := range r.Drift {
		rateStr := "n/a"
		if ppm, ok := r.segmentDriftPPM(i, &scratch); ok {
			rateStr = fmt.Sprintf("%.0fppm", ppm)
		}
		fmt.Fprintf(&b, "  node%d: F_calib=%s drift_rate(between resets)=%s availability=%.3f%% TA_refs=%d AEXs=%d\n",
			i+1, stats.FormatHz(r.FCalib[i]), rateStr,
			r.Availability[i]*100, r.TACounts[i].Final(), r.AEXCounts[i].Final())
	}
	return b.String()
}

// RunFigure runs a drift/state figure's scenario and snapshots the
// cluster's instrumentation under the scenario's name.
func RunFigure(sc Scenario) (*FigureResult, error) {
	c, err := Run(sc)
	if err != nil {
		return nil, err
	}
	res := &FigureResult{
		Name:      sc.Name,
		Duration:  sc.Duration,
		Drift:     c.Drift,
		TACounts:  c.TACounts,
		AEXCounts: c.AEXCounts,
		Timelines: c.Timelines,
		Counters:  c.CounterSnapshots(),
	}
	for i := range c.Nodes {
		res.FCalib = append(res.FCalib, c.FinalFCalib(i))
		res.Availability = append(res.Availability, c.Availability(i))
	}
	return res, nil
}

// Table renders a tabular figure: its header line, then one indented
// line per row's Summary.
func Table[T interface{ Summary() string }](header string, rows []T) string {
	var b strings.Builder
	b.WriteString(header + "\n")
	for _, r := range rows {
		b.WriteString("  " + r.Summary() + "\n")
	}
	return b.String()
}

// CDFResult carries an inter-AEX delay distribution (Figure 1).
type CDFResult struct {
	Name   string
	Gaps   []time.Duration
	Points []stats.Point // CDF curve, x in seconds
}

// Quantile reports the q-quantile of the gap distribution, in seconds.
func (r *CDFResult) Quantile(q float64) float64 {
	xs := make([]float64, len(r.Gaps))
	for i, g := range r.Gaps {
		xs[i] = g.Seconds()
	}
	return stats.NewCDF(xs).Quantile(q)
}

// Summary renders headline quantiles of the distribution.
func (r *CDFResult) Summary() string {
	return fmt.Sprintf("%s: n=%d p10=%.3fs p50=%.3fs p90=%.3fs max=%.1fs",
		r.Name, len(r.Gaps), r.Quantile(0.10), r.Quantile(0.50), r.Quantile(0.90), r.Quantile(1))
}

// RunFig1a measures the inter-AEX delay CDF of the "Triad-like"
// simulated interrupt distribution, injected on top of the residual
// machine environment (paper Figure 1a).
func RunFig1a(seed uint64, duration time.Duration) (*CDFResult, error) {
	return runAEXCDF("Fig1a Triad-like inter-AEX CDF", seed, duration, EnvTriadLike)
}

// RunFig1b measures the inter-AEX delay CDF of an isolated monitoring
// core: only residual machine-wide OS interrupts (paper Figure 1b).
func RunFig1b(seed uint64, duration time.Duration) (*CDFResult, error) {
	return runAEXCDF("Fig1b isolated-core inter-AEX CDF", seed, duration, EnvNone)
}

func runAEXCDF(name string, seed uint64, duration time.Duration, env Env) (*CDFResult, error) {
	c, err := Run(Scenario{
		ClusterConfig: ClusterConfig{Seed: seed, Nodes: 1, RecordAEXGaps: true, MonitorTicks: longRunMonitorTicks},
		Env:           []Env{env},
		Duration:      duration,
	})
	if err != nil {
		return nil, err
	}
	gaps := c.Platforms[0].AEXGaps()
	xs := make([]float64, len(gaps))
	for i, g := range gaps {
		xs[i] = g.Seconds()
	}
	return &CDFResult{Name: name, Gaps: gaps, Points: stats.NewCDF(xs).Points()}, nil
}

// INCResult carries the §IV-A.1 INC-monitoring statistics.
type INCResult struct {
	Raw stats.Summary // all measurements
	// Clean excludes outliers (the paper removed the warm-up run and
	// one other), leaving the tight steady-state distribution.
	Clean    stats.Summary
	Outliers []float64
}

// Summary renders the table the paper reports in §IV-A.1.
func (r *INCResult) Summary() string {
	return fmt.Sprintf(
		"INC per 15e6 TSC ticks: raw mean=%.0f stddev=%.1f | outliers removed (%d): mean=%.0f stddev=%.1f range=%.0f",
		r.Raw.Mean, r.Raw.Stddev, len(r.Outliers), r.Clean.Mean, r.Clean.Stddev, r.Clean.Max-r.Clean.Min)
}

// RunINCTable reproduces the 10k-measurement INC-counting experiment:
// count monitoring-loop iterations until the TSC advances by 15e6
// ticks, at fixed core frequency (§IV-A.1).
func RunINCTable(seed uint64, n int) (*INCResult, error) {
	c, err := Run(Scenario{ClusterConfig: ClusterConfig{
		Seed:              seed,
		Nodes:             1,
		DisableMachineAEX: true,
		Protocol: Original(func(cfg *core.Config) {
			cfg.DisableMonitor = true // the experiment measures INC directly
		}),
	}})
	if err != nil {
		return nil, err
	}
	counts := c.Platforms[0].MeasureINC(15_000_000, n)

	res := &INCResult{Raw: stats.Summarize(counts)}
	med := stats.Median(counts)
	clean := make([]float64, 0, len(counts))
	for _, x := range counts {
		if math.Abs(x-med) > 50 { // far beyond the σ≈2.9 steady state
			res.Outliers = append(res.Outliers, x)
			continue
		}
		clean = append(clean, x)
	}
	sort.Float64s(res.Outliers)
	res.Clean = stats.Summarize(clean)
	return res, nil
}

// fig2 is RunFig2's scenario, which the trace tests record.
func fig2(seed uint64, duration time.Duration) Scenario {
	return Scenario{
		ClusterConfig: ClusterConfig{Seed: seed},
		Name:          "Fig2 fault-free, Triad-like AEXs",
		Env:           []Env{EnvTriadLike},
		Duration:      duration,
	}
}

// RunFig2 reproduces the fault-free 30-minute run under Triad-like AEXs
// (Figures 2a drift and 2b TA references, plus the ≥98% availability
// row of §IV-A.2).
func RunFig2(seed uint64, duration time.Duration) (*FigureResult, error) {
	return RunFigure(fig2(seed, duration))
}

// RunFig3 reproduces the fault-free long run in the low-AEX isolated
// core environment (Figures 3a drift and 3b state timeline, plus the
// 99.9% availability row).
func RunFig3(seed uint64, duration time.Duration) (*FigureResult, error) {
	return RunFigure(Scenario{
		ClusterConfig: ClusterConfig{Seed: seed, MonitorTicks: longRunMonitorTicks},
		Name:          "Fig3 fault-free, low-AEX environment",
		Duration:      duration,
	})
}

// RunFig4 reproduces the F+ attack with the compromised Node 3 in the
// low-AEX environment while Nodes 1-2 experience Triad-like AEXs
// (Figure 4: Node 3 drifts at ≈ -91ms/s).
func RunFig4(seed uint64, duration time.Duration) (*FigureResult, error) {
	return RunFigure(Scenario{
		ClusterConfig: ClusterConfig{Seed: seed, MonitorTicks: longRunMonitorTicks},
		Name:          "Fig4 F+ attack on Node 3 (low-AEX)",
		// The attacker isolates its own monitoring core.
		Env:      []Env{EnvTriadLike, EnvTriadLike, EnvNone},
		Steps:    []Step{DelayAttack(2, attack.ModeFPlus)},
		Duration: duration,
	})
}

// RunFig5 reproduces the F+ attack with all nodes under Triad-like
// AEXs (Figure 5: Node 3 oscillates between its peers' drift and
// ≈ -150ms).
func RunFig5(seed uint64, duration time.Duration) (*FigureResult, error) {
	return RunFigure(Scenario{
		ClusterConfig: ClusterConfig{Seed: seed},
		Name:          "Fig5 F+ attack on Node 3 (all Triad-like)",
		Env:           []Env{EnvTriadLike},
		Steps:         []Step{DelayAttack(2, attack.ModeFPlus)},
		Duration:      duration,
	})
}

// FMinusSwitch is when Nodes 1-2 switch from the low-AEX to the
// Triad-like environment in the Figure 6 scenario (the dashed red line
// at t = 104s).
const FMinusSwitch = 104 * time.Second

// propagation is the Figure 6 rig: Node 3 (Triad-like AEXs) under the
// delay attack in mode, Nodes 1-2 in the low-AEX environment until they
// switch to Triad-like AEXs at FMinusSwitch, all running protocol.
func propagation(seed uint64, protocol Protocol, mode attack.Mode, duration time.Duration) Scenario {
	return Scenario{
		ClusterConfig: ClusterConfig{
			Seed:        seed,
			SampleEvery: 250 * time.Millisecond, // jumps are short-lived
			Protocol:    protocol,
		},
		Env: []Env{EnvNone, EnvNone, EnvTriadLike},
		Steps: []Step{
			DelayAttack(2, mode),
			{At: FMinusSwitch, Do: func(c *Cluster) {
				c.SetEnv(0, EnvTriadLike)
				c.SetEnv(1, EnvTriadLike)
			}},
		},
		Duration: duration,
	}
}

// Fig6 is the F- attack and its propagation: Node 3 (fast clock,
// Triad-like AEXs) infects Nodes 1-2 once they start experiencing AEXs
// at t=104s and ask peers for timestamps (Figures 6a drift and 6b AEX
// counts).
func Fig6(seed uint64, duration time.Duration) Scenario {
	sc := propagation(seed, nil, attack.ModeFMinus, duration)
	sc.Name = "Fig6 F- attack on Node 3 with propagation"
	return sc
}

// RunFig6 runs Fig6 and snapshots its series.
func RunFig6(seed uint64, duration time.Duration) (*FigureResult, error) {
	return RunFigure(Fig6(seed, duration))
}

// AvailabilityRow is one row of the §IV-A.2 availability table.
type AvailabilityRow struct {
	Scenario     string
	Duration     time.Duration
	Availability []float64
	// Counters are each node's final protocol counters for the run,
	// rendered under the availability line so hardened-variant rows
	// show their rejection/probe tallies next to the metric they
	// protect.
	Counters []metrics.CounterSnapshot
}

// Summary renders the row, with one counter line per node beneath it.
func (r AvailabilityRow) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s):", r.Scenario, r.Duration)
	for i, a := range r.Availability {
		fmt.Fprintf(&b, " node%d=%.3f%%", i+1, a*100)
	}
	for _, s := range r.Counters {
		fmt.Fprintf(&b, "\n    %s", s.Summary())
	}
	return b.String()
}

// RunHardenedAvailability runs the hardened (§V) variant through the
// fault-free Triad-like scenario so its availability — and the
// rejection/probe counters behind it — land beside the original
// protocol's rows.
func RunHardenedAvailability(seed uint64, duration time.Duration) (*FigureResult, error) {
	return RunFigure(Scenario{
		ClusterConfig: ClusterConfig{Seed: seed, Protocol: Hardened(nil)},
		Name:          "Hardened fault-free, Triad-like AEXs",
		Env:           []Env{EnvTriadLike},
		Duration:      duration,
	})
}

// runAvailabilityRow runs one availability scenario in streaming mode:
// the row reduces to timeline availability and final counters, neither
// of which needs retained sample series, so even the 8-hour low-AEX
// run costs fixed instrumentation memory. Sampling performs the same
// node reads either way, so the numbers are identical to the retained
// figure runs the table used to share.
func runAvailabilityRow(sc Scenario) (AvailabilityRow, error) {
	sc.Streaming = true
	c, err := Run(sc)
	if err != nil {
		return AvailabilityRow{}, err
	}
	row := AvailabilityRow{Scenario: sc.Name, Duration: sc.Duration, Counters: c.CounterSnapshots()}
	for i := range c.Nodes {
		row.Availability = append(row.Availability, c.Availability(i))
	}
	c.ReleaseProbes()
	return row, nil
}

// RunAvailabilityTable reproduces §IV-A.2's availability numbers — the
// 30-minute Triad-like run (≥98% including initial calibration) and a
// long low-AEX run (up to 99.9%) — plus a hardened-variant row whose
// counters show the §V machinery (RTT rejections, probes) at work.
// Cancelling ctx abandons unstarted rows and returns its error.
func RunAvailabilityTable(ctx context.Context, seed uint64, shortRun, longRun time.Duration) ([]AvailabilityRow, error) {
	scenarios := []Scenario{
		{ClusterConfig: ClusterConfig{Seed: seed}, Name: "Triad-like AEXs", Env: []Env{EnvTriadLike}, Duration: shortRun},
		{ClusterConfig: ClusterConfig{Seed: seed + 1, MonitorTicks: longRunMonitorTicks}, Name: "low-AEX environment", Duration: longRun},
		{ClusterConfig: ClusterConfig{Seed: seed + 2, Protocol: Hardened(nil)}, Name: "hardened (§V), Triad-like AEXs", Env: []Env{EnvTriadLike}, Duration: shortRun},
	}
	tasks := make([]runner.Task[AvailabilityRow], len(scenarios))
	for i, sc := range scenarios {
		tasks[i] = runner.Task[AvailabilityRow]{
			Name: "availability " + sc.Name,
			Run:  func(context.Context) (AvailabilityRow, error) { return runAvailabilityRow(sc) },
		}
	}
	return runner.Run(ctx, runner.Config{}, tasks).Values()
}
