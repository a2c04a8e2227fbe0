package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"triadtime/internal/authority"
	"triadtime/internal/experiment/runner"
	"triadtime/internal/metrics"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
	"triadtime/internal/trace"
)

// This file holds the multi-authority quorum fault scenarios: lying
// minorities (fixed-offset and drifting clocks), delaying authorities,
// staggered and simultaneous authority outages, and split-brain
// partitions of the authority set. Every scenario has a single-TA
// baseline so the rows show what the quorum buys.

// CorrectDriftTolerance is the drift bound under which a served
// timestamp counts as correct: wide enough for calibration noise and
// bounded holdover drift, far below the scenarios' injected lies
// (hundreds of ms).
const CorrectDriftTolerance = 50 * time.Millisecond

// QuorumRow reports one fault scenario.
type QuorumRow struct {
	Name        string
	Authorities int
	// RawAvailability is the worst node's state-based serving
	// availability (OK or Degraded) — what a client sees as uptime.
	RawAvailability float64
	// CorrectAvailability is the worst node's fraction of samples that
	// were both served and within CorrectDriftTolerance of reference
	// time. A node calibrated against a lying authority is available
	// but not correct; this is the paper-style security metric.
	CorrectAvailability float64
	// Cluster-wide counter sums.
	QuorumAccepts    int
	QuorumNoMajority int
	FalseTickers     int
	Holdovers        int
}

// Summary renders the row.
func (r QuorumRow) Summary() string {
	return fmt.Sprintf("%-26s TAs=%d  avail %7.3f%%  correct %7.3f%%  accepts=%d no_majority=%d false_tickers=%d holdovers=%d",
		r.Name, r.Authorities, r.RawAvailability*100, r.CorrectAvailability*100,
		r.QuorumAccepts, r.QuorumNoMajority, r.FalseTickers, r.Holdovers)
}

// addrFault is a middlebox dropping or delaying traffic of selected
// authority addresses while active. Address sets are tiny fixed
// arrays, keeping Process allocation-free on the hot path.
type addrFault struct {
	active bool
	drop   bool
	extra  time.Duration
	addrs  []simnet.Addr
}

func (f *addrFault) Process(_ simtime.Instant, p simnet.Packet) simnet.Verdict {
	if !f.active {
		return simnet.Verdict{}
	}
	hit := false
	for _, a := range f.addrs {
		if p.From == a || p.To == a {
			hit = true
			break
		}
	}
	if !hit {
		return simnet.Verdict{}
	}
	if f.drop {
		return simnet.Verdict{Drop: true}
	}
	return simnet.Verdict{ExtraDelay: f.extra}
}

// blackhole is the set-up step that drops an address set's traffic
// during [from, to).
func blackhole(addrs []simnet.Addr, from, to time.Duration) Step {
	return Step{Do: func(c *Cluster) {
		hole := &addrFault{drop: true, addrs: addrs}
		c.Net.AttachMiddlebox(hole)
		c.At(from, func() { hole.active = true })
		c.At(to, func() { hole.active = false })
	}}
}

// liars is the AuthorityClocks hook under which the authorities from
// index from on run lie(ref) and the others keep the reference clock.
func liars(from int, lie func(ref authority.Clock) authority.Clock) func(int, authority.Clock) authority.Clock {
	return func(i int, ref authority.Clock) authority.Clock {
		if i >= from {
			return lie(ref)
		}
		return nil
	}
}

// lieOffset is a clock lying by a fixed offset.
func lieOffset(offset time.Duration) func(authority.Clock) authority.Clock {
	return func(ref authority.Clock) authority.Clock {
		return func() int64 { return ref() + offset.Nanoseconds() }
	}
}

// lieDrift is a clock drifting from reference at ppb parts per billion
// (2e6 ppb = 2ms/s).
func lieDrift(ppb int64) func(authority.Clock) authority.Clock {
	return func(ref authority.Clock) authority.Clock {
		return func() int64 {
			t := ref()
			return t + t/1e9*ppb
		}
	}
}

// lieOffsetWindow is a clock lying by offset only during [from, to) of
// reference time — the split-brain partition that heals.
func lieOffsetWindow(offset, from, to time.Duration) func(authority.Clock) authority.Clock {
	return func(ref authority.Clock) authority.Clock {
		return func() int64 {
			t := ref()
			if t >= from.Nanoseconds() && t < to.Nanoseconds() {
				return t + offset.Nanoseconds()
			}
			return t
		}
	}
}

// lie is the lying authorities' fixed offset in the single-lie
// scenarios.
const lie = 300 * time.Millisecond

// quorumScenarios is the fault suite. TA addresses are TAAddr + i; the
// liar / victim choices are fixed so runs are reproducible.
func quorumScenarios() []Scenario {
	quorum := func(authorities int, clocks func(int, authority.Clock) authority.Clock) ClusterConfig {
		return ClusterConfig{Authorities: authorities, AuthorityClocks: clocks}
	}
	return []Scenario{
		{
			Name:          "baseline-1ta-outage",
			ClusterConfig: quorum(1, nil),
			Steps:         []Step{blackhole([]simnet.Addr{TAAddr}, 60*time.Second, 180*time.Second)},
		},
		{
			Name:          "quorum-3ta-1dark",
			ClusterConfig: quorum(3, nil),
			Steps:         []Step{blackhole([]simnet.Addr{TAAddr + 1}, 60*time.Second, 180*time.Second)},
		},
		{
			Name:          "quorum-5ta-2dark",
			ClusterConfig: quorum(5, nil),
			Steps:         []Step{blackhole([]simnet.Addr{TAAddr + 3, TAAddr + 4}, 60*time.Second, 180*time.Second)},
		},
		{Name: "baseline-1ta-lying", ClusterConfig: quorum(1, liars(0, lieOffset(lie)))},
		{Name: "quorum-3ta-lying-fixed", ClusterConfig: quorum(3, liars(2, lieOffset(lie)))},
		{Name: "quorum-3ta-lying-drift", ClusterConfig: quorum(3, liars(2, lieDrift(2_000_000)))}, // 2ms/s
		{
			Name:          "quorum-3ta-delaying",
			ClusterConfig: quorum(3, nil),
			Steps: []Step{{Do: func(c *Cluster) {
				c.Net.AttachMiddlebox(&addrFault{active: true, extra: 50 * time.Millisecond, addrs: []simnet.Addr{TAAddr + 2}})
			}}},
		},
		{
			// Two of four authorities jump +500ms during [60s, 180s): no
			// strict majority on either side, so rechecks degrade nodes to
			// holdover until the partition heals.
			//
			// It runs without any interrupt injection (no Triad-like storm,
			// no machine-wide residuals): a taint while every peer is in
			// Degraded holdover strands the node in RefCalib until the
			// partition heals (Degraded peers do not vouch, and neither side
			// of the split has a quorum), so an interrupt-free run is the one
			// that isolates holdover behaviour itself. Split behaviour under
			// interrupts is covered by quorum-5ta-split-3v2, where the honest
			// majority keeps recovery available.
			Name: "quorum-4ta-splitbrain-2v2",
			ClusterConfig: ClusterConfig{
				Authorities:       4,
				AuthorityClocks:   liars(2, lieOffsetWindow(500*time.Millisecond, 60*time.Second, 180*time.Second)),
				DisableMachineAEX: true,
			},
		},
		{Name: "quorum-5ta-split-3v2", ClusterConfig: quorum(5, liars(3, lieOffset(500*time.Millisecond)))},
		{
			Name:          "quorum-3ta-staggered-dark",
			ClusterConfig: quorum(3, nil),
			Steps: []Step{
				blackhole([]simnet.Addr{TAAddr + 1}, 60*time.Second, 120*time.Second),
				blackhole([]simnet.Addr{TAAddr + 2}, 120*time.Second, 180*time.Second),
			},
		},
	}
}

// runQuorumScenario executes one scenario for duration and reduces it
// to a row. rec, when non-nil, receives the run's protocol trace (the
// golden-trace seed-stability tests diff these byte-for-byte). Nodes
// run under Triad-like AEXs unless the scenario disables machine-wide
// interrupts too. The cluster runs in streaming mode:
// correct-availability is accumulated per sampling tick by the node
// probes (same condition the retained Drift/TACounts reduction applied
// — served, Serving state, within CorrectDriftTolerance — over the same
// tick denominator).
func runQuorumScenario(seed uint64, duration time.Duration, sc Scenario, rec *trace.Recorder) (QuorumRow, error) {
	sc.Seed, sc.MonitorTicks, sc.Trace, sc.Streaming, sc.Duration = seed, longRunMonitorTicks, rec, true, duration
	if !sc.DisableMachineAEX {
		sc.Env = []Env{EnvTriadLike}
	}
	c, err := Run(sc)
	if err != nil {
		return QuorumRow{}, err
	}

	row := QuorumRow{Name: sc.Name, Authorities: sc.Authorities, RawAvailability: 1, CorrectAvailability: 1}
	for i := range c.Nodes {
		row.RawAvailability = math.Min(row.RawAvailability, c.Availability(i))
		row.CorrectAvailability = math.Min(row.CorrectAvailability, c.Probes[i].CorrectAvailability())
		cnt := c.Nodes[i].Counters()
		row.QuorumAccepts += cnt.QuorumAccepts
		row.QuorumNoMajority += cnt.QuorumNoMajority
		row.FalseTickers += cnt.FalseTickers
		row.Holdovers += cnt.Holdovers
	}
	c.ReleaseProbes()
	return row, nil
}

// RunQuorumFaults runs the full multi-authority fault suite: authority
// outages (single, minority, staggered), lying minorities (fixed and
// drifting), a delaying authority, and split-brain partitions — each
// against the single-TA baselines. Rows are returned in scenario
// order. Cancelling ctx abandons unstarted scenarios and returns its
// error.
func RunQuorumFaults(ctx context.Context, seed uint64, duration time.Duration) ([]QuorumRow, error) {
	if duration == 0 {
		duration = 5 * time.Minute
	}
	scenarios := quorumScenarios()
	tasks := make([]runner.Task[QuorumRow], len(scenarios))
	for t, sc := range scenarios {
		sc := sc
		tasks[t] = runner.Task[QuorumRow]{
			Name: sc.Name,
			Run: func(context.Context) (QuorumRow, error) {
				return runQuorumScenario(seed, duration, sc, nil)
			},
		}
	}
	return runner.Run(ctx, runner.Config{}, tasks).Values()
}

// QuorumAttackFigure is the lying-authority attack figure: per-node
// drift series under a +300ms lying authority, for the single-TA
// baseline (the node follows the liar) and a 3-authority quorum (the
// liar is outvoted).
type QuorumAttackFigure struct {
	Baseline []*metrics.DriftSeries // 1 TA, lying
	Quorum   []*metrics.DriftSeries // 3 TAs, one lying
}

// RunQuorumAttackFigure produces the attack figure's drift series.
func RunQuorumAttackFigure(seed uint64, duration time.Duration) (*QuorumAttackFigure, error) {
	if duration == 0 {
		duration = 5 * time.Minute
	}
	run := func(authorities int) ([]*metrics.DriftSeries, error) {
		c, err := Run(Scenario{
			ClusterConfig: ClusterConfig{
				Seed:            seed,
				Authorities:     authorities,
				MonitorTicks:    longRunMonitorTicks,
				AuthorityClocks: liars(authorities-1, lieOffset(lie)),
			},
			Env:      []Env{EnvTriadLike},
			Duration: duration,
		})
		if err != nil {
			return nil, err
		}
		return c.Drift, nil
	}
	baseline, err := run(1)
	if err != nil {
		return nil, err
	}
	quorum, err := run(3)
	if err != nil {
		return nil, err
	}
	return &QuorumAttackFigure{Baseline: baseline, Quorum: quorum}, nil
}
