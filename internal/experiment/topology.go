package experiment

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"triadtime/internal/experiment/runner"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
)

// This file is the thousand-node topology driver: it builds
// region-structured clusters (per-region Time Authorities, an
// asymmetric inter-region WAN delay matrix, staggered churn, and a
// region-isolation partition window), fans independent partitions
// across the worker pool, and merges the partitions' streaming probes
// into one rollup. Memory stays fixed per node — each probe is ~8KB of
// sketch buckets — so the driver's footprint is bounded by
// workers × nodes-per-partition live probes, not by run length or
// total node count.

// TopologyConfig parameterizes a partitioned region-structured sweep.
// Total nodes = Partitions × Regions × NodesPerRegion; each partition
// is an independent deterministic simulation (its own scheduler, RNG
// and network), so partitions parallelize with no shared state and the
// merged result is identical at any worker count.
type TopologyConfig struct {
	// Seed drives partition p with Seed+p; same seed, same rollup.
	Seed uint64
	// Partitions is the number of independent cluster simulations.
	Partitions int
	// Regions is the number of regions per partition. Each region hosts
	// its own Time Authority (Authorities = Regions), so nodes run
	// quorum calibration across the WAN.
	Regions int
	// NodesPerRegion is the node count per region.
	NodesPerRegion int
	// Duration is the simulated time per partition.
	Duration time.Duration
	// Churn is the fraction of each partition's nodes that cycle
	// offline mid-run on the staggered deterministic schedule shared
	// with RunClusterScale.
	Churn float64
	// WANBase and WANStep shape the asymmetric inter-region delay
	// matrix: traffic from region i to region j rides a link with base
	// delay WANBase + (i·Regions+j)·WANStep, so no two directed region
	// pairs share a delay and every pair is asymmetric. Defaults: 20ms
	// base, 5ms step. Intra-region traffic keeps the LAN default link.
	WANBase time.Duration
	WANStep time.Duration
	// IsolateRegion is cut off from the rest of the partition during
	// [IsolateFrom, IsolateTo): all traffic crossing its boundary is
	// dropped, leaving its nodes with only their local authority — a
	// minority, so quorum calibration must ride the window out in
	// holdover. A zero-length window disables isolation.
	IsolateRegion int
	IsolateFrom   time.Duration
	IsolateTo     time.Duration
}

// DefaultScale1K is the scale1k figure's configuration: 20 partitions
// of 5 regions × 10 nodes = 1000 nodes, 10% churn, and a 60s isolation
// of region 0 in every partition.
func DefaultScale1K(seed uint64) TopologyConfig {
	return TopologyConfig{
		Seed:           seed,
		Partitions:     20,
		Regions:        5,
		NodesPerRegion: 10,
		Duration:       3 * time.Minute,
		Churn:          0.1,
		IsolateRegion:  0,
		IsolateFrom:    90 * time.Second,
		IsolateTo:      150 * time.Second,
	}
}

// withDefaults fills the WAN matrix defaults.
func (cfg TopologyConfig) withDefaults() TopologyConfig {
	if cfg.WANBase == 0 {
		cfg.WANBase = 20 * time.Millisecond
	}
	if cfg.WANStep == 0 {
		cfg.WANStep = 5 * time.Millisecond
	}
	return cfg
}

// nodes returns the per-partition node count.
func (cfg TopologyConfig) nodes() int { return cfg.Regions * cfg.NodesPerRegion }

// regionOf maps an address to its region: node addresses 1..N are laid
// out region-major, authority i lives in region i.
func (cfg *TopologyConfig) regionOf(a simnet.Addr) int {
	if a >= TAAddr {
		return int(a - TAAddr)
	}
	return (int(a) - 1) / cfg.NodesPerRegion
}

// linkFor is the partition's LinkPolicy: intra-region pairs fall
// through to the LAN default, inter-region pairs ride the asymmetric
// WAN matrix. Computing the link from region coordinates at send time
// keeps the topology O(regions) instead of O(n²) per-pair links.
//
//triad:hotpath
func (cfg *TopologyConfig) linkFor(from, to simnet.Addr) (simnet.Link, bool) {
	rf, rt := cfg.regionOf(from), cfg.regionOf(to)
	if rf == rt {
		return simnet.Link{}, false
	}
	return simnet.Link{
		Base:        cfg.WANBase + time.Duration(rf*cfg.Regions+rt)*cfg.WANStep,
		JitterSigma: 1.0,
		JitterScale: 200 * time.Microsecond,
	}, true
}

// regionIsolation is the partition-window middlebox: while active it
// drops every packet crossing the isolated region's boundary.
type regionIsolation struct {
	cfg    *TopologyConfig
	region int
	active bool
}

//triad:hotpath
func (m *regionIsolation) Process(_ simtime.Instant, pkt simnet.Packet) simnet.Verdict {
	if !m.active {
		return simnet.Verdict{}
	}
	crosses := (m.cfg.regionOf(pkt.From) == m.region) != (m.cfg.regionOf(pkt.To) == m.region)
	return simnet.Verdict{Drop: crosses}
}

// PartitionStats is one partition's reduction: a merged probe rollup
// over all its nodes plus the availability/calibration/quorum counters
// the summary reports.
type PartitionStats struct {
	Partition int
	// Rollup merges every node's streaming probe. It is a value copy,
	// not a pooled pointer: the pooled probes go back to the pool
	// before the partition returns.
	Rollup NodeProbe
	// MinAvailability is the worst per-node raw availability;
	// WorstCorrect the worst per-node correct-availability.
	MinAvailability float64
	WorstCorrect    float64
	// Calibrated counts nodes that completed at least one calibration.
	Calibrated int
	// Holdovers and NoMajority sum the partition's quorum counters; the
	// isolation window must show up here (isolated nodes see only 1 of
	// Regions authorities — no majority — and hold over).
	Holdovers  int
	NoMajority int
}

// TopologyResult is the merged outcome of a partitioned topology run.
type TopologyResult struct {
	Config     TopologyConfig
	Partitions []PartitionStats
	// Rollup merges every partition's rollup: the drift sketch and
	// moments over all Nodes nodes.
	Rollup NodeProbe
	// Nodes is the total node count across partitions.
	Nodes int
	// MinAvailability / WorstCorrect are the worst per-node values
	// anywhere in the topology; Calibrated, Holdovers and NoMajority
	// sum across partitions.
	MinAvailability float64
	WorstCorrect    float64
	Calibrated      int
	Holdovers       int
	NoMajority      int
}

// RunTopology executes every partition as an independent streaming
// cluster, fanned across the runner's worker pool, and merges the
// results. Cancelling ctx abandons unstarted partitions and returns
// its error.
func RunTopology(ctx context.Context, cfg TopologyConfig) (*TopologyResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Partitions <= 0 || cfg.Regions <= 0 || cfg.NodesPerRegion <= 0 {
		return nil, fmt.Errorf("topology: partitions, regions and nodes-per-region must be positive")
	}
	tasks := make([]runner.Task[PartitionStats], cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		p := p
		tasks[p] = runner.Task[PartitionStats]{
			Name: fmt.Sprintf("topology partition %d", p),
			Run: func(context.Context) (PartitionStats, error) {
				return runTopologyPartition(cfg, p)
			},
		}
	}
	parts, err := runner.Run(ctx, runner.Config{}, tasks).Values()
	if err != nil {
		return nil, err
	}
	res := &TopologyResult{
		Config:          cfg,
		Partitions:      parts,
		Nodes:           cfg.Partitions * cfg.nodes(),
		MinAvailability: 1,
		WorstCorrect:    1,
	}
	for i := range parts {
		st := &parts[i]
		res.Rollup.Merge(&st.Rollup)
		res.MinAvailability = math.Min(res.MinAvailability, st.MinAvailability)
		res.WorstCorrect = math.Min(res.WorstCorrect, st.WorstCorrect)
		res.Calibrated += st.Calibrated
		res.Holdovers += st.Holdovers
		res.NoMajority += st.NoMajority
	}
	return res, nil
}

// runTopologyPartition builds and runs one partition's cluster: a
// region-structured quorum cluster under Triad-like AEXs with WAN
// links, churn, and the isolation window, reduced through pooled
// streaming probes.
func runTopologyPartition(cfg TopologyConfig, part int) (PartitionStats, error) {
	n := cfg.nodes()
	steps := []Step{{Do: func(c *Cluster) { c.Net.SetLinkPolicy(cfg.linkFor) }}, churn(cfg.Churn, n)}
	if cfg.IsolateTo > cfg.IsolateFrom {
		steps = append(steps, Step{Do: func(c *Cluster) {
			iso := &regionIsolation{cfg: &cfg, region: cfg.IsolateRegion}
			c.Net.AttachMiddlebox(iso)
			c.At(cfg.IsolateFrom, func() { iso.active = true })
			c.At(cfg.IsolateTo, func() { iso.active = false })
		}})
	}
	c, err := Run(Scenario{
		ClusterConfig: ClusterConfig{
			Seed:         cfg.Seed + uint64(part),
			Nodes:        n,
			Authorities:  cfg.Regions,
			MonitorTicks: longRunMonitorTicks,
			Streaming:    true,
		},
		Env:      []Env{EnvTriadLike},
		Steps:    steps,
		Duration: cfg.Duration,
	})
	if err != nil {
		return PartitionStats{}, err
	}

	st := PartitionStats{Partition: part, MinAvailability: 1, WorstCorrect: 1}
	for i := range c.Nodes {
		p := c.Probes[i]
		st.Rollup.Merge(p)
		st.MinAvailability = math.Min(st.MinAvailability, c.Availability(i))
		st.WorstCorrect = math.Min(st.WorstCorrect, p.CorrectAvailability())
		if c.FinalFCalib(i) != 0 {
			st.Calibrated++
		}
		cnt := c.Nodes[i].Counters()
		st.Holdovers += cnt.Holdovers
		st.NoMajority += cnt.QuorumNoMajority
	}
	c.ReleaseProbes()
	return st, nil
}

// Summary renders the merged result.
func (r *TopologyResult) Summary() string {
	cfg := r.Config
	return fmt.Sprintf(
		"%d partitions x %d regions x %d nodes = %d nodes, %s simulated, churn %.0f%%\n"+
			"  worst availability %.2f%%  worst correct %.2f%%  calibrated %d/%d\n"+
			"  drift p50 %.3gms  p99 %.3gms  max %.3gms  (served %d/%d samples)\n"+
			"  holdovers %d  quorum no-majority %d\n",
		cfg.Partitions, cfg.Regions, cfg.NodesPerRegion, r.Nodes,
		cfg.Duration, cfg.Churn*100,
		r.MinAvailability*100, r.WorstCorrect*100, r.Calibrated, r.Nodes,
		r.Rollup.Drift.Quantile(0.50)*1e3, r.Rollup.Drift.Quantile(0.99)*1e3,
		r.Rollup.MaxAbsDrift*1e3, r.Rollup.Served, r.Rollup.Samples,
		r.Holdovers, r.NoMajority)
}

// WritePartitionsCSV emits one row per partition.
func (r *TopologyResult) WritePartitionsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "partition,nodes,samples,served,min_availability,worst_correct,calibrated,drift_p50_s,drift_p99_s,max_abs_drift_s,holdovers,quorum_no_majority"); err != nil {
		return err
	}
	for _, st := range r.Partitions {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%.6f,%.6f,%d,%.9f,%.9f,%.9f,%d,%d\n",
			st.Partition, r.Config.nodes(), st.Rollup.Samples, st.Rollup.Served,
			st.MinAvailability, st.WorstCorrect, st.Calibrated,
			st.Rollup.Drift.Quantile(0.50), st.Rollup.Drift.Quantile(0.99),
			st.Rollup.MaxAbsDrift, st.Holdovers, st.NoMajority); err != nil {
			return err
		}
	}
	return nil
}
