// Package experiment assembles the paper's evaluation scenarios: a
// simulated machine hosting three Triad nodes and a Time Authority,
// interrupt environments (Triad-like, isolated-core), attacks, and the
// instrumentation that regenerates every figure and table of the
// paper's Section IV.
package experiment

import (
	"fmt"
	"slices"
	"time"

	"triadtime/internal/aex"
	"triadtime/internal/attack"
	"triadtime/internal/authority"
	"triadtime/internal/core"
	"triadtime/internal/enclave"
	"triadtime/internal/engine"
	"triadtime/internal/metrics"
	"triadtime/internal/resilient"
	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
	"triadtime/internal/trace"
	"triadtime/internal/wire"
)

// TAAddr is the (first) Time Authority's address in all experiments;
// multi-authority clusters occupy TAAddr, TAAddr+1, ....
const TAAddr simnet.Addr = 100

// ClusterKey is the experiments' pre-shared AES-256 cluster key.
func ClusterKey() []byte {
	key := make([]byte, wire.KeySize)
	for i := range key {
		key[i] = byte(0xA5 ^ i)
	}
	return key
}

// Env selects a node's simulated-interrupt environment.
type Env int

// Interrupt environments.
const (
	// EnvNone: no per-node injected AEXs; only machine-wide residual OS
	// interrupts reach the monitoring core (plus rare sporadic ones).
	EnvNone Env = iota + 1
	// EnvTriadLike: the paper's simulated distribution — inter-AEX gaps
	// of 10ms/532ms/1.59s, each with probability 1/3 (Figure 1a).
	EnvTriadLike
)

// ClusterConfig parameterizes an experiment cluster.
type ClusterConfig struct {
	// Seed drives all randomness; same seed, same run.
	Seed uint64
	// Nodes is the cluster size. Default: 3, as in the paper.
	Nodes int
	// Link is the network model. Default: simnet.DefaultLink, which
	// reproduces the paper's effective calibration noise: O(100ppm)
	// drift rates arise purely from lognormal delay jitter over the ≤1s
	// regression windows (paper §IV-A.2 measures ~110ppm typical,
	// 210ppm worst).
	Link *simnet.Link
	// MachineWideAEX enables the residual OS interrupt process that
	// hits all monitoring cores simultaneously (the paper's Figure 1b
	// environment; on shared hardware these correlate node taints).
	// Default: true.
	DisableMachineAEX bool
	// SampleEvery is the drift/counter sampling period. Default: 1s.
	SampleEvery time.Duration
	// MonitorTicks overrides the nodes' INC monitoring window (long
	// experiments use a larger window to bound simulation event count).
	MonitorTicks uint64
	// Protocol builds every node. Default: Original(nil), the paper's
	// protocol.
	Protocol Protocol
	// RecordAEXGaps enables per-node inter-AEX gap recording.
	RecordAEXGaps bool
	// Trace, when set, receives every node's protocol events as
	// structured records (JSONL if the recorder has a sink).
	Trace *trace.Recorder
	// Authorities is the number of independent Time Authorities, at
	// addresses TAAddr..TAAddr+N-1. Default: 1 (the single-TA paper
	// setup). With two or more, nodes run quorum calibration.
	Authorities int
	// AuthorityClocks, when set, supplies authority i's clock given the
	// simulation's reference clock — the hook the fault scenarios use to
	// run lying (fixed-offset or drifting) authorities. Returning nil
	// keeps the honest reference clock.
	AuthorityClocks func(i int, ref authority.Clock) authority.Clock
	// Streaming replaces the retained per-node sample series (Drift,
	// TACounts, AEXCounts, FCalibs) with pooled fixed-memory probes —
	// the thousand-node mode. Timelines survive (state transitions are
	// few) so Availability still works; figures that plot full series
	// must leave it unset. Sampling reads the same node state either
	// way, so a streaming run's dynamics are byte-identical to a
	// retained run of the same seed.
	Streaming bool
}

// streamInfectTol is the streaming probes' signed-drift infection
// threshold in seconds: the scale sweep's detector. Their correctness
// tolerance is CorrectDriftTolerance.
const streamInfectTol = 1.0

// Protocol builds one node on its platform from the engine
// configuration the rig prepared for it (key, addresses, authorities,
// monitor window, instrumentation): the protocol line the node runs.
// ntpdisc.NewNode is one as it stands; Original and Hardened adapt the
// paper's and the §V line.
type Protocol func(enclave.Platform, engine.Config) (*engine.Node, error)

// Original is the paper's protocol (internal/core), adjusted by tweak
// when it is not nil. The paper's effective drift rates come from few,
// short measurements; two samples per sleep value matches its
// "repeated and independent short interactions".
func Original(tweak func(*core.Config)) Protocol {
	return func(p enclave.Platform, shared engine.Config) (*engine.Node, error) {
		cfg := core.Config{Config: shared, CalibSamplesPerSleep: 2}
		if tweak != nil {
			tweak(&cfg)
		}
		return core.NewNode(p, cfg)
	}
}

// Hardened is the Section V protocol (internal/resilient), adjusted by
// tweak (for ablations) when it is not nil.
func Hardened(tweak func(*resilient.Config)) Protocol {
	return func(p enclave.Platform, shared engine.Config) (*engine.Node, error) {
		cfg := resilient.Config{Config: shared}
		if tweak != nil {
			tweak(&cfg)
		}
		return resilient.NewNode(p, cfg)
	}
}

// Scenario is one experiment as data: the rig, each node's initial
// interrupt environment, the changes made to it during set-up or at
// given instants (attacks, environment switches, faults, workloads),
// and how long it runs. Run builds and runs it.
type Scenario struct {
	ClusterConfig
	// Name labels the run's results (FigureResult.Name).
	Name string
	// Env holds node i's initial interrupt environment at Env[i]; nodes
	// past its end take its last entry, so one entry covers the whole
	// cluster. Empty leaves every node with no per-node interrupts
	// (EnvNone).
	Env []Env
	// Steps are applied in order after the environments are installed.
	Steps []Step
	// Duration is how long Run runs the cluster. Zero only starts it.
	Duration time.Duration
}

// Step is one change to a scenario's rig. A step at zero runs during
// set-up, before the cluster starts; a later one runs at that reference
// time.
type Step struct {
	At time.Duration
	Do func(c *Cluster)
}

// DelayAttack is the set-up step that runs the paper's calibration
// delay attack (§III-C) in mode against node victim's Time Authority
// traffic.
func DelayAttack(victim int, mode attack.Mode) Step {
	return Step{Do: func(c *Cluster) {
		c.Net.AttachMiddlebox(attack.NewDelay(attack.DelayConfig{
			Victim:    c.Nodes[victim].Addr(),
			Authority: TAAddr,
			Mode:      mode,
		}))
	}}
}

// Run builds the scenario's cluster, installs its environments, applies
// or schedules its steps, starts it and runs it for the scenario's
// duration. The cluster is returned for its reducer to read out; it may
// be run further.
func Run(sc Scenario) (*Cluster, error) {
	c, err := NewCluster(sc.ClusterConfig)
	if err != nil {
		return nil, err
	}
	if len(sc.Env) > 0 {
		for i := range c.Nodes {
			c.SetEnv(i, sc.Env[min(i, len(sc.Env)-1)])
		}
	}
	for _, st := range sc.Steps {
		if st.At == 0 {
			st.Do(c)
			continue
		}
		c.At(st.At, func() { st.Do(c) })
	}
	c.Start()
	if sc.Duration > 0 {
		c.RunFor(sc.Duration)
	}
	return c, nil
}

// Cluster is a fully wired experiment: scheduler, network, Time
// Authority, nodes with instrumentation, and interrupt processes.
type Cluster struct {
	Sched *sim.Scheduler
	RNG   *sim.RNG
	Net   *simnet.Network
	// TA is the first (or only) Time Authority; TAs holds all of them
	// in address order for multi-authority clusters.
	TA        *authority.SimBinding
	TAs       []*authority.SimBinding
	Nodes     []*engine.Node
	Platforms []*enclave.SimPlatform

	// Per-node instrumentation. In streaming mode the series slices stay
	// nil and Probes carries the fixed-memory accumulators instead.
	Timelines []*metrics.StateTimeline
	Drift     []*metrics.DriftSeries
	TACounts  []*metrics.CountSeries
	AEXCounts []*metrics.CountSeries
	FCalibs   [][]float64  // every calibrated rate, per node (retained mode)
	Probes    []*NodeProbe // per-node streaming accumulators (streaming mode)

	machineAEX *aex.Injector
	sporadic   []*aex.Injector
	perNode    []*aex.Injector
	sampleEv   time.Duration
	sampleFn   func()
	streaming  bool
	lastFCalib []float64
	started    bool
}

// NewCluster builds the experiment rig. Nodes are addressed 1..N ("Node
// 1".."Node N" in the figures); the Time Authority is TAAddr.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 3
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = time.Second
	}
	link := simnet.DefaultLink()
	if cfg.Link != nil {
		link = *cfg.Link
	}
	if cfg.Authorities == 0 {
		cfg.Authorities = 1
	}
	if cfg.Protocol == nil {
		cfg.Protocol = Original(nil)
	}
	sched := sim.NewScheduler()
	rng := sim.NewRNG(cfg.Seed)
	network := simnet.New(sched, rng.Fork(1), link)
	c := &Cluster{
		Sched:     sched,
		RNG:       rng,
		Net:       network,
		sampleEv:  cfg.SampleEvery,
		streaming: cfg.Streaming,
	}
	// One sampling closure for the whole run: rebuilding it per tick
	// would allocate on every sample of a thousand-node sweep.
	c.sampleFn = func() {
		c.sampleOnce()
		c.scheduleSample()
	}
	// The extra authorities consume no RNG forks, so a single-authority
	// run stays byte-identical to the pre-quorum rig.
	refClock := authority.Clock(func() int64 { return int64(sched.Now()) })
	taAddrs := make([]simnet.Addr, cfg.Authorities)
	for i := range taAddrs {
		taAddrs[i] = TAAddr + simnet.Addr(i)
		clock := refClock
		if cfg.AuthorityClocks != nil {
			if ck := cfg.AuthorityClocks(i, refClock); ck != nil {
				clock = ck
			}
		}
		ta, err := authority.NewSimBindingClock(sched, network, ClusterKey(), taAddrs[i], clock)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		c.TAs = append(c.TAs, ta)
	}
	c.TA = c.TAs[0]
	if cfg.Trace != nil {
		cfg.Trace.SetNow(sched.Now)
	}

	addrs := make([]simnet.Addr, cfg.Nodes)
	for i := range addrs {
		addrs[i] = simnet.Addr(i + 1)
	}
	for i := 0; i < cfg.Nodes; i++ {
		tsc := simtime.NewTSC(simtime.NominalTSCHz, uint64(i+1)*7e9)
		platform := enclave.NewSimPlatform(sched, rng.Fork(uint64(100+i)), network, enclave.SimConfig{
			Addr:          addrs[i],
			TSC:           tsc,
			RecordAEXGaps: cfg.RecordAEXGaps,
		})
		var peers []simnet.Addr
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		idx := i
		timeline := &metrics.StateTimeline{}
		events := core.Events{
			StateChanged: func(_, s core.State) {
				timeline.Record(sched.Now(), s)
			},
			Calibrated: func(f float64) {
				c.lastFCalib[idx] = f
				if !c.streaming {
					c.FCalibs[idx] = append(c.FCalibs[idx], f)
				}
			},
		}
		if cfg.Trace != nil {
			hooks := cfg.Trace.ForNode(fmt.Sprintf("node%d", i+1))
			prevState, prevCalib := events.StateChanged, events.Calibrated
			events.StateChanged = func(old, s core.State) {
				prevState(old, s)
				hooks.StateChanged(old.String(), s.String())
			}
			events.Calibrated = func(f float64) {
				prevCalib(f)
				hooks.Calibrated(f)
			}
			events.TAReference = hooks.TAReference
			events.PeerUntaint = hooks.PeerUntaint
			events.Discrepancy = hooks.Discrepancy
		}
		shared := engine.Config{
			Key:          ClusterKey(),
			Addr:         addrs[i],
			Peers:        peers,
			Authority:    TAAddr,
			MonitorTicks: cfg.MonitorTicks,
			Events:       events,
		}
		if cfg.Authorities >= 2 {
			shared.Authorities = taAddrs
		}
		node, err := cfg.Protocol(platform, shared)
		if err != nil {
			return nil, fmt.Errorf("experiment: node %d: %w", i+1, err)
		}
		c.Nodes = append(c.Nodes, node)
		c.Platforms = append(c.Platforms, platform)
		c.Timelines = append(c.Timelines, timeline)
		if cfg.Streaming {
			c.Probes = append(c.Probes, AcquireProbe(CorrectDriftTolerance.Seconds(), streamInfectTol))
		} else {
			name := fmt.Sprintf("node%d", i+1)
			c.Drift = append(c.Drift, &metrics.DriftSeries{Node: name})
			c.TACounts = append(c.TACounts, &metrics.CountSeries{Node: name})
			c.AEXCounts = append(c.AEXCounts, &metrics.CountSeries{Node: name})
			c.FCalibs = append(c.FCalibs, nil)
		}
		c.lastFCalib = append(c.lastFCalib, 0)
		c.perNode = append(c.perNode, nil)
	}

	if !cfg.DisableMachineAEX {
		// Machine-wide residual OS interrupts: one process, all cores.
		c.machineAEX = aex.NewInjector(sched, aex.NewIsolatedCore(rng.Fork(50)))
		for _, p := range c.Platforms {
			c.machineAEX.Attach(p.FireAEX)
		}
		// Sporadic per-core OS activity: rare, uncorrelated (this is
		// what lets individual nodes taint alone in the low-AEX
		// environment and produce Figure 3a's peer-untaint jumps).
		for i, p := range c.Platforms {
			inj := aex.NewInjector(sched, aex.NewExponential(rng.Fork(uint64(60+i)), 15*time.Minute))
			inj.Attach(p.FireAEX)
			c.sporadic = append(c.sporadic, inj)
		}
	}
	return c, nil
}

// SetEnv installs node i's per-node interrupt environment, replacing
// any previous one. Callable before Start or mid-run (scheduled via
// At).
func (c *Cluster) SetEnv(i int, env Env) {
	if c.perNode[i] != nil {
		c.perNode[i].Stop()
		c.perNode[i] = nil
	}
	if env != EnvTriadLike {
		return
	}
	inj := aex.NewInjector(c.Sched, aex.NewTriadLike(c.RNG.Fork(uint64(200+i))))
	inj.Attach(c.Platforms[i].FireAEX)
	c.perNode[i] = inj
	if c.started {
		inj.Start()
	}
}

// At schedules fn at reference time t (convenience for scripting
// mid-run environment or attack changes).
func (c *Cluster) At(t time.Duration, fn func()) {
	c.Sched.At(simtime.FromDuration(t), fn)
}

// Start launches nodes, interrupt processes and the sampling loop.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	for _, n := range c.Nodes {
		n.Start()
	}
	if c.machineAEX != nil {
		c.machineAEX.Start()
	}
	for _, inj := range c.sporadic {
		inj.Start()
	}
	for _, inj := range c.perNode {
		if inj != nil {
			inj.Start()
		}
	}
	c.scheduleSample()
}

func (c *Cluster) scheduleSample() {
	c.Sched.After(simtime.FromDuration(c.sampleEv), c.sampleFn)
}

func (c *Cluster) sampleOnce() {
	now := c.Sched.Now()
	refSec := now.Seconds()
	if c.streaming {
		for i, n := range c.Nodes {
			reading, ok := n.ClockReading()
			var drift float64
			if ok {
				drift = float64(reading-int64(now)) / 1e9
			}
			c.Probes[i].Observe(refSec, drift, n.State(), ok)
		}
		return
	}
	for i, n := range c.Nodes {
		if reading, ok := n.ClockReading(); ok {
			c.Drift[i].Add(metrics.DriftPoint{
				RefSeconds:   refSec,
				DriftSeconds: float64(reading-int64(now)) / 1e9,
				State:        n.State(),
			})
		}
		c.TACounts[i].Add(metrics.CountPoint{RefSeconds: refSec, Count: n.TAReferences()})
		c.AEXCounts[i].Add(metrics.CountPoint{RefSeconds: refSec, Count: c.Platforms[i].AEXCount()})
	}
}

// RunFor advances the simulation by d. In retained mode it first makes
// room for the samples the run will take, d / SampleEvery per series, so
// that the series grow once per call and not by doubling along the way.
func (c *Cluster) RunFor(d time.Duration) {
	if n := int(d / c.sampleEv); n > 0 && !c.streaming {
		for i := range c.Nodes {
			c.Drift[i].Points = slices.Grow(c.Drift[i].Points, n)
			c.TACounts[i].Points = slices.Grow(c.TACounts[i].Points, n)
			c.AEXCounts[i].Points = slices.Grow(c.AEXCounts[i].Points, n)
		}
	}
	c.Sched.RunUntil(c.Sched.Now().Add(d))
}

// CounterSnapshots returns every node's current protocol counters —
// the uniform engine counter set, so hardened columns are zero on
// original-protocol clusters.
func (c *Cluster) CounterSnapshots() []metrics.CounterSnapshot {
	snaps := make([]metrics.CounterSnapshot, len(c.Nodes))
	for i, n := range c.Nodes {
		snaps[i] = metrics.CounterSnapshot{
			Node:     fmt.Sprintf("node%d", i+1),
			Counters: n.Counters(),
		}
	}
	return snaps
}

// Availability reports node i's serving availability over [0, now].
func (c *Cluster) Availability(i int) float64 {
	return c.Timelines[i].Availability(simtime.Epoch, c.Sched.Now())
}

// FinalFCalib reports node i's most recent calibrated rate (0 if never
// calibrated).
func (c *Cluster) FinalFCalib(i int) float64 {
	return c.lastFCalib[i]
}

// ReleaseProbes returns a streaming cluster's probes to the pool once
// their numbers have been read out. The cluster must not be sampled
// afterwards.
func (c *Cluster) ReleaseProbes() {
	for i, p := range c.Probes {
		ReleaseProbe(p)
		c.Probes[i] = nil
	}
	c.Probes = nil
}
