package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"triadtime/internal/attack"
	"triadtime/internal/core"
	"triadtime/internal/experiment"
	"triadtime/internal/marzullo"
	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
	"triadtime/internal/stats"
)

// rigReference is what the experiment a stepped cluster copies reports
// for the same seed when the workload runs it: the counts the copy has
// to reproduce, and the configuration it ran with.
type rigReference struct {
	topo    experiment.TopologyConfig // sim_scale: as RunTopology ran it, WAN defaults filled in
	layers  map[string]float64        // per-layer counts the experiment's result carries
	samples int                       // sim_scale: partition 0's probe samples
}

// reference runs, once and unstepped, the experiment steppedCluster
// copies: for sim_paper the Figure 5 piece, for sim_scale the topology
// piece, of which the stepped cluster is partition 0.
func (s *simSubject) reference() (rigReference, error) {
	if s.spec.name == "sim_paper" {
		res, err := experiment.RunFig5(s.seed, steppedFig5)
		if err != nil {
			return rigReference{}, err
		}
		ref := rigReference{layers: map[string]float64{}}
		for _, cnt := range res.Counters {
			ref.layers["engine.ta_refs"] += float64(cnt.TAReferences)
			ref.layers["engine.peer_untaints"] += float64(cnt.PeerUntaints)
			ref.layers["engine.served"] += float64(cnt.Served)
			ref.layers["engine.probes"] += float64(cnt.Probes)
			ref.layers["engine.holdovers"] += float64(cnt.Holdovers)
			ref.layers["engine.no_majority"] += float64(cnt.QuorumNoMajority)
		}
		return ref, nil
	}
	res, err := experiment.RunTopology(context.Background(), scaleConfig(s.seed))
	if err != nil {
		return rigReference{}, err
	}
	part := res.Partitions[0]
	return rigReference{
		topo:    res.Config,
		layers:  map[string]float64{"engine.holdovers": float64(part.Holdovers), "engine.no_majority": float64(part.NoMajority)},
		samples: part.Rollup.Samples,
	}, nil
}

// steppedFig5 is the Figure 5 piece's duration in sim_paper.
const steppedFig5 = 10 * time.Minute

// steppedCluster builds the kind of cluster the workload spends its
// time in, for the harness to step one event at a time: for sim_paper
// the Figure 5 rig, one of the pass's six pieces (three nodes under
// Triad-like AEXs, F+ attack on node 3, retained series); for sim_scale
// partition 0 of the topology (5 regions x 10 nodes, per-region
// authorities, the WAN delay matrix and the isolation window, streaming
// probes). Both are copies of unexported set-up code — RunFig5 and
// runTopologyPartition in internal/experiment — so trace holds what the
// copy counts against what the original reports (see reference).
func steppedCluster(spec *simSpec, seed uint64, cfg experiment.TopologyConfig) (*experiment.Cluster, time.Duration, error) {
	if spec.name == "sim_paper" {
		c, err := experiment.NewCluster(experiment.ClusterConfig{Seed: seed})
		if err != nil {
			return nil, 0, err
		}
		for i := range c.Nodes {
			c.SetEnv(i, experiment.EnvTriadLike)
		}
		c.Net.AttachMiddlebox(attack.NewDelay(attack.DelayConfig{
			Victim:    c.Nodes[2].Addr(),
			Authority: experiment.TAAddr,
			Mode:      attack.ModeFPlus,
		}))
		return c, steppedFig5, nil
	}
	c, err := experiment.NewCluster(experiment.ClusterConfig{
		Seed:         seed,
		Nodes:        cfg.Regions * cfg.NodesPerRegion,
		Authorities:  cfg.Regions,
		MonitorTicks: 150_000_000, // experiment.longRunMonitorTicks, which is not exported
		Streaming:    true,
	})
	if err != nil {
		return nil, 0, err
	}
	regionOf := func(a simnet.Addr) int {
		if a >= experiment.TAAddr {
			return int(a - experiment.TAAddr)
		}
		return (int(a) - 1) / cfg.NodesPerRegion
	}
	c.Net.SetLinkPolicy(func(from, to simnet.Addr) (simnet.Link, bool) {
		rf, rt := regionOf(from), regionOf(to)
		if rf == rt {
			return simnet.Link{}, false
		}
		return simnet.Link{
			Base:        cfg.WANBase + time.Duration(rf*cfg.Regions+rt)*cfg.WANStep,
			JitterSigma: 1.0,
			JitterScale: 200 * time.Microsecond,
		}, true
	})
	for i := range c.Nodes {
		c.SetEnv(i, experiment.EnvTriadLike)
	}
	iso := &isolation{regionOf: regionOf, region: cfg.IsolateRegion}
	c.Net.AttachMiddlebox(iso)
	c.At(cfg.IsolateFrom, func() { iso.active = true })
	c.At(cfg.IsolateTo, func() { iso.active = false })
	return c, cfg.Duration, nil
}

// isolation drops every packet crossing one region's boundary while
// active, as the topology's partition window does.
type isolation struct {
	regionOf func(simnet.Addr) int
	region   int
	active   bool
}

func (m *isolation) Process(_ simtime.Instant, pkt simnet.Packet) simnet.Verdict {
	if !m.active {
		return simnet.Verdict{}
	}
	return simnet.Verdict{Drop: (m.regionOf(pkt.From) == m.region) != (m.regionOf(pkt.To) == m.region)}
}

// steppedReps is how many times the traced run steps its cluster.
const steppedReps = 5

// trace answers the driver's "trace" command for a simulation workload:
// exact event and message counts from a harness-stepped cluster, unit
// costs of the layers under it, and how much of the stepped run's time
// count x cost explains.
func (s *simSubject) trace(rec *spanRecorder) (subjectReply, error) {
	layers := map[string]float64{}
	root := rec.begin(0, "simtrace")
	sp := rec.begin(root, "experiment.reference")
	ref, err := s.reference()
	rec.end(sp, 1)
	if err != nil {
		return subjectReply{}, err
	}

	// The harness drives the scheduler itself so that it can count. It
	// does so a few times, taking turns with the same cluster run the
	// way the experiments run it, and keeps the fastest of each: the
	// counts are the same every time, the difference between the two
	// times is what the stepping and counting add.
	var c *experiment.Cluster
	var events, pending int
	buildNs, plainNs, runNs := int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64)
	for rep := 0; rep < steppedReps; rep++ {
		plain, dur, err := steppedCluster(s.spec, s.seed, ref.topo)
		if err != nil {
			return subjectReply{}, err
		}
		plain.Start()
		sp = rec.begin(root, "sim.run_unstepped")
		plain.RunFor(dur)
		plainNs = min(plainNs, rec.end(sp, 1))
		if plain.Probes != nil {
			plain.ReleaseProbes()
		}

		if c != nil && c.Probes != nil {
			c.ReleaseProbes()
		}
		sp = rec.begin(root, "experiment.build")
		c, dur, err = steppedCluster(s.spec, s.seed, ref.topo)
		buildNs = min(buildNs, rec.end(sp, 1))
		if err != nil {
			return subjectReply{}, err
		}
		c.Start()
		// RunFor fires every event due at or before its deadline. Step
		// cannot look ahead, so the harness plants an event of its own one
		// nanosecond past the deadline and steps until that one has fired.
		done := false
		c.Sched.At(simtime.FromDuration(dur)+1, func() { done = true })
		events, pending = 0, 0
		sp = rec.begin(root, "sim.run")
		for c.Sched.Step() && !done {
			events++
			pending += c.Sched.Pending()
		}
		runNs = min(runNs, rec.end(sp, events))
	}
	layers["experiment.build_us_per_node"] = float64(buildNs) / 1e3 / float64(len(c.Nodes))
	if events == 0 {
		return subjectReply{}, fmt.Errorf("stepped cluster ran no events")
	}
	depth := pending / events
	sent, delivered, dropped := c.Net.Stats()
	var samples int
	for i, n := range c.Nodes {
		cnt := n.Counters()
		layers["engine.ta_refs"] += float64(cnt.TAReferences)
		layers["engine.peer_untaints"] += float64(cnt.PeerUntaints)
		layers["engine.served"] += float64(cnt.Served)
		layers["engine.probes"] += float64(cnt.Probes)
		layers["engine.holdovers"] += float64(cnt.Holdovers)
		layers["engine.no_majority"] += float64(cnt.QuorumNoMajority)
		layers["enclave.aex_count"] += float64(c.Platforms[i].AEXCount())
		if c.Probes != nil {
			samples += c.Probes[i].Samples
		}
	}
	if c.Probes != nil {
		c.ReleaseProbes()
	}
	// The stepped cluster is a copy of the experiment's; it has drifted
	// from the original when it no longer counts what the original does.
	for name, want := range ref.layers {
		if layers[name] != want {
			return subjectReply{}, fmt.Errorf("stepped cluster counts %s = %v, the experiment it copies %v: steppedCluster has drifted from internal/experiment", name, layers[name], want)
		}
	}
	if samples != ref.samples {
		return subjectReply{}, fmt.Errorf("stepped cluster took %d probe samples, the experiment it copies %d: steppedCluster has drifted from internal/experiment", samples, ref.samples)
	}
	layers["sim.events"] = float64(events)
	layers["sim.pending_mean"] = float64(pending) / float64(events)
	layers["simnet.sent"] = float64(sent)
	layers["simnet.delivered"] = float64(delivered)
	layers["simnet.dropped"] = float64(dropped)
	layers["experiment.cpu_ns_per_event"] = float64(runNs) / float64(events)
	layers["trace.overhead_ratio"] = float64(runNs)/float64(plainNs) - 1

	// Unit costs, each at the scale the stepped run showed.
	sp = rec.begin(root, "unit_costs")
	layers["sim.step_ns"] = schedulerStepCost(depth)
	layers["simnet.send_deliver_ns"] = simnetCost(s.seed)
	seal, err := protocolSealOpen()
	if err != nil {
		return subjectReply{}, err
	}
	layers["wire.protocol_seal_open_ns"] = seal
	ivs := []marzullo.Interval{{Lo: 10, Hi: 20}, {Lo: 12, Hi: 22}, {Lo: 11, Hi: 19}, {Lo: 40, Hi: 50}, {Lo: 13, Hi: 21}}
	agree := 0
	layers["marzullo.intersect_ns"] = perCall(unitLoop, func(int) { _, agree = marzullo.Intersect(ivs) })
	if agree != 4 {
		return subjectReply{}, fmt.Errorf("marzullo unit loop found %d agreeing intervals, want 4", agree)
	}
	var sk stats.Sketch
	layers["stats.sketch_add_ns"] = perCall(unitLoop, func(i int) { sk.Add(float64(i%997) * 1e-6) })
	var probe experiment.NodeProbe
	layers["experiment.probe_observe_ns"] = perCall(unitLoop, func(i int) {
		probe.Observe(float64(i), float64(i%997)*1e-6, core.StateOK, true)
	})
	rec.end(sp, 1)

	// Budget: what the counts, priced at the unit costs, add up to, held
	// against what the stepped run took. Every delivered message was
	// sealed and opened once; every quorum decision intersected once.
	quorums := layers["engine.no_majority"] + layers["engine.ta_refs"]
	if c.TAs == nil || len(c.TAs) < 2 {
		quorums = 0
	}
	sum := float64(events)*layers["sim.step_ns"] +
		float64(sent)*layers["simnet.send_deliver_ns"] +
		float64(delivered)*seal +
		quorums*layers["marzullo.intersect_ns"] +
		float64(samples)*(layers["experiment.probe_observe_ns"])
	layers["budget.stage_sum_ns_per_unit"] = sum
	layers["budget.coverage"] = sum / float64(runNs)
	rec.end(root, 1)
	return subjectReply{Layers: layers, Spans: rec.spans}, nil
}

// schedulerStepCost times one At + Step pair on a scheduler holding
// depth other events, the run's mean queue depth.
func schedulerStepCost(depth int) float64 {
	sched := sim.NewScheduler()
	nop := func() {}
	for i := 0; i < depth; i++ {
		sched.At(simtime.FromDuration(time.Hour+time.Duration(i)*time.Microsecond), nop)
	}
	return perCall(unitLoop, func(i int) {
		sched.After(simtime.FromDuration(time.Microsecond), nop)
		sched.Step()
	})
}

// simnetCost times one Send plus its delivery on a two-endpoint network
// with the experiments' default link.
func simnetCost(seed uint64) float64 {
	sched := sim.NewScheduler()
	net := simnet.New(sched, sim.NewRNG(seed), simnet.DefaultLink())
	got := 0
	net.Register(1, func(simnet.Packet) { got++ })
	net.Register(2, func(simnet.Packet) {})
	payload := make([]byte, 53) // one sealed protocol datagram
	return perCall(unitLoop, func(int) {
		net.Send(2, 1, payload)
		sched.RunUntilIdle()
	})
}
