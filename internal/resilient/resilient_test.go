package resilient

import (
	"errors"
	"math"
	"testing"
	"time"

	"triadtime/internal/attack"
	"triadtime/internal/authority"
	"triadtime/internal/core"
	"triadtime/internal/enclave"
	"triadtime/internal/engine"
	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
	"triadtime/internal/wire"
)

const taAddr simnet.Addr = 100

func testKey() []byte {
	key := make([]byte, wire.KeySize)
	for i := range key {
		key[i] = byte(i + 9)
	}
	return key
}

type rig struct {
	t         *testing.T
	sched     *sim.Scheduler
	net       *simnet.Network
	nodes     []*engine.Node
	engines   []*engine.Engine // the nodes' engines, for fault injection
	pols      []*policy        // and their policies, for the gossip view
	platforms []*enclave.SimPlatform
}

func newRig(t *testing.T, nodeCount int, tweak func(i int, cfg *Config)) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(555)
	network := simnet.New(sched, rng.Fork(0), simnet.DefaultLink())
	if _, err := authority.NewSimBinding(sched, network, testKey(), taAddr); err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, sched: sched, net: network}
	addrs := make([]simnet.Addr, nodeCount)
	for i := range addrs {
		addrs[i] = simnet.Addr(i + 1)
	}
	for i := 0; i < nodeCount; i++ {
		p := enclave.NewSimPlatform(sched, rng.Fork(uint64(i+10)), network, enclave.SimConfig{
			Addr: addrs[i],
			TSC:  simtime.NewTSC(simtime.NominalTSCHz, uint64(i)*3e9),
		})
		var peers []simnet.Addr
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		cfg := Config{Config: engine.Config{Key: testKey(), Addr: addrs[i], Peers: peers, Authority: taAddr}}
		if tweak != nil {
			tweak(i, &cfg)
		}
		eng, pol, err := assemble(p, cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		r.nodes = append(r.nodes, eng.Node())
		r.engines = append(r.engines, eng)
		r.pols = append(r.pols, pol)
		r.platforms = append(r.platforms, p)
	}
	return r
}

func (r *rig) startAll() {
	for _, n := range r.nodes {
		n.Start()
	}
}

func (r *rig) run(d time.Duration) { r.sched.RunUntil(r.sched.Now().Add(d)) }

func TestConfigValidation(t *testing.T) {
	sched := sim.NewScheduler()
	network := simnet.New(sched, sim.NewRNG(1), simnet.Link{})
	p := enclave.NewSimPlatform(sched, sim.NewRNG(2), network, enclave.SimConfig{
		Addr: 1, TSC: simtime.NewTSC(1e9, 0),
	})
	bad := []engine.Config{
		{Key: []byte("short"), Addr: 1, Authority: 9},
		{Key: testKey(), Addr: 1, Authority: 1},
		{Key: testKey(), Addr: 1, Authority: 9, Peers: []simnet.Addr{1}},
	}
	for _, cfg := range bad {
		if _, err := NewNode(p, Config{Config: cfg}); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestWindowedCalibrationAccuracy(t *testing.T) {
	r := newRig(t, 1, nil)
	r.startAll()
	r.run(30 * time.Second)
	n := r.nodes[0]
	if n.State() != core.StateOK {
		t.Fatalf("state = %v", n.State())
	}
	// Jitter over an 8s window: a few ppm of rate error at most.
	ppm := math.Abs(n.FCalib()-simtime.NominalTSCHz) / simtime.NominalTSCHz * 1e6
	if ppm > 20 {
		t.Errorf("FCalib %.2fppm off, want < 20ppm (windowed calibration)", ppm)
	}
	ts, err := n.TrustedNow()
	if err != nil {
		t.Fatal(err)
	}
	if off := time.Duration(ts - int64(r.sched.Now())); off < -time.Millisecond || off > time.Millisecond {
		t.Errorf("clock off reference by %v", off)
	}
}

func TestCalibrationWindowHalvesUnderAEXs(t *testing.T) {
	// AEXs every 900ms: the default 8s window can never complete, but
	// adaptive halving brings it under the AEX gap and calibration
	// succeeds.
	r := newRig(t, 1, nil)
	stop := false
	var schedule func(at simtime.Instant)
	schedule = func(at simtime.Instant) {
		r.sched.At(at, func() {
			if stop {
				return
			}
			r.platforms[0].FireAEX()
			schedule(at.Add(900 * time.Millisecond))
		})
	}
	schedule(simtime.FromDuration(900 * time.Millisecond))
	r.startAll()
	r.run(2 * time.Minute)
	stop = true
	n := r.nodes[0]
	if n.FCalib() == 0 {
		t.Fatal("calibration never completed under AEX pressure")
	}
	ppm := math.Abs(n.FCalib()-simtime.NominalTSCHz) / simtime.NominalTSCHz * 1e6
	if ppm > 200 {
		t.Errorf("FCalib %.0fppm off with halved window, want < 200ppm", ppm)
	}
}

func TestFPlusAttackIneffective(t *testing.T) {
	// The hardened node never requests TA sleeps, so the F+ classifier
	// sees only low-hold responses and never fires.
	r := newRig(t, 1, nil)
	box := attack.NewDelay(attack.DelayConfig{Victim: 1, Authority: taAddr, Mode: attack.ModeFPlus})
	r.net.AttachMiddlebox(box)
	r.startAll()
	r.run(60 * time.Second)
	n := r.nodes[0]
	if n.State() != core.StateOK {
		t.Fatalf("state = %v", n.State())
	}
	ppm := math.Abs(n.FCalib()-simtime.NominalTSCHz) / simtime.NominalTSCHz * 1e6
	if ppm > 20 {
		t.Errorf("FCalib %.2fppm off under F+, want < 20ppm", ppm)
	}
	if box.Delayed() != 0 {
		t.Errorf("F+ delayed %d responses of a sleep-free calibrator", box.Delayed())
	}
}

func TestFMinusAttackBecomesVisibleDoSNotCorruption(t *testing.T) {
	// F- delays every low-hold response by 100ms — far over the 5ms
	// RTT bound, so the hardened node rejects all of them: it stays
	// unavailable (a visible failure) instead of silently running fast.
	r := newRig(t, 1, nil)
	box := attack.NewDelay(attack.DelayConfig{Victim: 1, Authority: taAddr, Mode: attack.ModeFMinus})
	r.net.AttachMiddlebox(box)
	r.startAll()
	r.run(60 * time.Second)
	n := r.nodes[0]
	if n.State() == core.StateOK {
		// If it did manage to calibrate, the rate must be honest.
		ppm := math.Abs(n.FCalib()-simtime.NominalTSCHz) / simtime.NominalTSCHz * 1e6
		if ppm > 500 {
			t.Errorf("FCalib %.0fppm off under F-: silent corruption", ppm)
		}
	}
	if n.Counters().RTTRejections == 0 {
		t.Error("no RTT rejections: the bound never engaged")
	}
	if n.FCalib() != 0 {
		ppm := math.Abs(n.FCalib()-simtime.NominalTSCHz) / simtime.NominalTSCHz * 1e6
		if ppm > 500 {
			t.Errorf("corrupted FCalib: %.0fppm off", ppm)
		}
	}
}

func TestChimerFilterRejectsLoneFastClock(t *testing.T) {
	r := newRig(t, 3, nil)
	r.startAll()
	r.run(60 * time.Second)
	for i, n := range r.nodes {
		if n.State() != core.StateOK {
			t.Fatalf("node %d state = %v", i, n.State())
		}
	}
	// Compromise node 3's clock: +10s into the future.
	r.engines[2].ShiftReference(10 * int64(time.Second))
	taBefore := r.nodes[0].Counters().TAReferences
	// Taint node 1: it hears honest node 2 and fast node 3; the two
	// disagree, so no majority -> TA fallback, fast clock rejected.
	r.platforms[0].FireAEX()
	r.run(2 * time.Second)
	victim := r.nodes[0]
	if victim.State() != core.StateOK {
		t.Fatalf("victim state = %v", victim.State())
	}
	reading, _ := victim.ClockReading()
	drift := time.Duration(reading - int64(r.sched.Now()))
	if drift > 100*time.Millisecond {
		t.Errorf("victim infected: drift %v after untaint", drift)
	}
	if victim.Counters().RejectedPeers == 0 {
		t.Error("chimer filter reported no rejections")
	}
	if victim.Counters().TAReferences <= taBefore {
		t.Error("victim should have fallen back to the TA")
	}
}

func TestChimerConsensusAdoptsHonestMajority(t *testing.T) {
	r := newRig(t, 3, func(_ int, cfg *Config) {
		cfg.DisableDeadline = true
	})
	r.startAll()
	r.run(60 * time.Second)
	taBefore := r.nodes[0].Counters().TAReferences
	// Both peers honest: the tainted node recovers from their
	// consensus without touching the TA.
	r.platforms[0].FireAEX()
	r.run(2 * time.Second)
	victim := r.nodes[0]
	if victim.State() != core.StateOK {
		t.Fatalf("state = %v", victim.State())
	}
	if victim.Counters().PeerUntaints != 1 {
		t.Errorf("PeerUntaints = %d, want 1", victim.Counters().PeerUntaints)
	}
	if victim.Counters().TAReferences != taBefore {
		t.Error("TA contacted despite honest peer majority")
	}
}

func TestAblationWithoutChimerFilterGetsInfected(t *testing.T) {
	r := newRig(t, 3, func(_ int, cfg *Config) {
		cfg.DisableChimerFilter = true
		cfg.DisableDeadline = true
	})
	r.startAll()
	r.run(60 * time.Second)
	r.engines[2].ShiftReference(10 * int64(time.Second))
	// Make the fast clock's answer arrive first, as the original
	// first-response policy race allows.
	r.net.SetLink(2, 1, simnet.Link{Base: 10 * time.Millisecond})
	r.platforms[0].FireAEX()
	r.run(2 * time.Second)
	reading, _ := r.nodes[0].ClockReading()
	drift := time.Duration(reading - int64(r.sched.Now()))
	if drift < 9*time.Second {
		t.Errorf("ablation: drift = %v, expected infection (~10s) without the filter", drift)
	}
}

func TestDeadlineProbeCatchesMiscalibratedClock(t *testing.T) {
	r := newRig(t, 3, nil)
	r.startAll()
	r.run(60 * time.Second)
	n := r.nodes[2]
	// Simulate a calibration the F- attack would have produced on the
	// original protocol: rate 10% low -> clock runs +111ms/s.
	r.engines[2].ScaleRate(0.9)
	r.run(30 * time.Second)
	if n.Counters().ProbeFailures == 0 {
		t.Fatal("in-TCB deadline never caught the runaway clock")
	}
	// Recalibrated back to an honest rate.
	ppm := math.Abs(n.FCalib()-simtime.NominalTSCHz) / simtime.NominalTSCHz * 1e6
	if ppm > 100 {
		t.Errorf("post-recovery FCalib %.0fppm off", ppm)
	}
	reading, _ := n.ClockReading()
	drift := time.Duration(reading - int64(r.sched.Now()))
	if drift > 100*time.Millisecond || drift < -100*time.Millisecond {
		t.Errorf("post-recovery drift = %v", drift)
	}
}

func TestDeadlineDisabledAblation(t *testing.T) {
	r := newRig(t, 1, func(_ int, cfg *Config) {
		cfg.DisableDeadline = true
		cfg.DisableMonitor = true
	})
	r.startAll()
	r.run(30 * time.Second)
	n := r.nodes[0]
	r.engines[0].ScaleRate(0.9)
	r.run(60 * time.Second)
	if n.Counters().Probes != 0 {
		t.Errorf("probes ran despite DisableDeadline: %d", n.Counters().Probes)
	}
	// Without the in-TCB trigger the bad rate persists (that is the
	// original protocol's hole).
	reading, _ := n.ClockReading()
	drift := time.Duration(reading - int64(r.sched.Now()))
	if drift < 5*time.Second {
		t.Errorf("drift = %v, expected the runaway clock to persist", drift)
	}
}

func TestMonitorDetectsTSCScalingResilient(t *testing.T) {
	r := newRig(t, 1, nil)
	r.startAll()
	r.run(30 * time.Second)
	before := r.nodes[0].FCalib()
	r.platforms[0].TSC().SetScale(1.1, r.sched.Now())
	r.run(60 * time.Second)
	n := r.nodes[0]
	if n.State() != core.StateOK {
		t.Fatalf("state = %v", n.State())
	}
	if ratio := n.FCalib() / before; math.Abs(ratio-1.1) > 0.01 {
		t.Errorf("recalibrated ratio = %v, want ~1.1", ratio)
	}
}

func TestServedMonotonicAcrossConsensusAdoption(t *testing.T) {
	r := newRig(t, 3, nil)
	r.startAll()
	r.run(60 * time.Second)
	victim := r.nodes[0]
	ts1, err := victim.TrustedNow()
	if err != nil {
		t.Fatal(err)
	}
	// Push the victim's clock ahead, then force a consensus adoption
	// (which lands behind): serving stays monotonic regardless.
	r.engines[0].ShiftReference(int64(time.Second))
	ts2, _ := victim.TrustedNow()
	r.platforms[0].FireAEX()
	r.run(time.Second)
	ts3, err := victim.TrustedNow()
	if err != nil {
		t.Fatal(err)
	}
	if !(ts1 < ts2 && ts2 < ts3) {
		t.Errorf("served sequence not monotonic: %d %d %d", ts1, ts2, ts3)
	}
}

func TestTrustedNowUnavailableStates(t *testing.T) {
	r := newRig(t, 1, nil)
	if _, err := r.nodes[0].TrustedNow(); !errors.Is(err, core.ErrUnavailable) {
		t.Errorf("err = %v, want ErrUnavailable", err)
	}
	r.startAll()
	r.run(30 * time.Second)
	r.platforms[0].FireAEX()
	if _, err := r.nodes[0].TrustedNow(); !errors.Is(err, core.ErrUnavailable) {
		t.Error("tainted node served")
	}
}

func TestStartIdempotent(t *testing.T) {
	r := newRig(t, 1, nil)
	r.nodes[0].Start()
	r.nodes[0].Start()
	r.run(30 * time.Second)
	if r.nodes[0].Counters().TAReferences != 1 {
		t.Errorf("TAReferences = %d, want 1", r.nodes[0].Counters().TAReferences)
	}
}

func TestProbeTACheckWithoutPeers(t *testing.T) {
	// A peerless hardened node self-checks directly against the TA.
	r := newRig(t, 1, nil)
	r.startAll()
	r.run(60 * time.Second)
	n := r.nodes[0]
	if n.Counters().Probes == 0 {
		t.Fatal("deadline probes never ran")
	}
	if n.Counters().ProbeFailures != 0 {
		t.Errorf("healthy clock failed %d probes", n.Counters().ProbeFailures)
	}
	// Consistency checks must not be misread as reference adoptions.
	if n.Counters().TAReferences != 1 {
		t.Errorf("TAReferences = %d, want 1 (probes are checks, not re-anchors)", n.Counters().TAReferences)
	}
}

func TestProbeConsistentWithPeersSkipsTA(t *testing.T) {
	r := newRig(t, 3, nil)
	r.startAll()
	r.run(10 * time.Second) // calibrations
	taBefore := make([]int, 3)
	for i, n := range r.nodes {
		taBefore[i] = n.Counters().TAReferences
	}
	r.run(60 * time.Second) // ~30 deadline probes per node
	for i, n := range r.nodes {
		if n.Counters().Probes == 0 {
			t.Fatalf("node %d never probed", i)
		}
		if n.Counters().TAReferences != taBefore[i] {
			t.Errorf("node %d contacted the TA %d times despite consistent peers",
				i, n.Counters().TAReferences-taBefore[i])
		}
	}
}

func TestDualMonitorDefaultOnHardened(t *testing.T) {
	// The hardened node runs the memory monitor by default: the
	// DVFS-masked TSC scaling is caught and recalibrated away.
	r := newRig(t, 1, nil)
	r.startAll()
	r.run(30 * time.Second)
	n := r.nodes[0]
	before := n.FCalib()
	r.platforms[0].TSC().SetScale(0.8, r.sched.Now())
	r.platforms[0].SetCoreFreqHz(2800e6)
	r.run(60 * time.Second)
	if n.FCalib() == before {
		t.Error("masked attack never triggered recalibration (memory monitor inactive?)")
	}
	if ratio := n.FCalib() / before; math.Abs(ratio-0.8) > 0.01 {
		t.Errorf("recalibrated ratio = %v, want ~0.8 (the new guest rate)", ratio)
	}
}

func TestDisableMemMonitorAblation(t *testing.T) {
	r := newRig(t, 1, func(_ int, cfg *Config) {
		cfg.DisableMemMonitor = true
		cfg.DisableDeadline = true // isolate the monitor's role
	})
	r.startAll()
	r.run(30 * time.Second)
	n := r.nodes[0]
	before := n.FCalib()
	r.platforms[0].TSC().SetScale(0.8, r.sched.Now())
	r.platforms[0].SetCoreFreqHz(2800e6)
	r.run(60 * time.Second)
	if n.FCalib() != before {
		t.Error("INC-only hardened node recalibrated; the masked attack should evade it")
	}
}

func TestCalibWindowFloor(t *testing.T) {
	// AEXs every 300ms: halving must floor at MinCalibWindow and the
	// node must still eventually calibrate within sub-window gaps.
	r := newRig(t, 1, func(_ int, cfg *Config) {
		cfg.MinCalibWindow = 200 * time.Millisecond
		cfg.DisableMonitor = true
	})
	stop := false
	var schedule func(at simtime.Instant)
	schedule = func(at simtime.Instant) {
		r.sched.At(at, func() {
			if stop {
				return
			}
			r.platforms[0].FireAEX()
			schedule(at.Add(300 * time.Millisecond))
		})
	}
	schedule(simtime.FromDuration(300 * time.Millisecond))
	r.startAll()
	r.run(3 * time.Minute)
	stop = true
	if r.nodes[0].FCalib() == 0 {
		t.Fatal("never calibrated despite the window floor")
	}
}

func TestRTTRejectionOnRefCalib(t *testing.T) {
	// Delay TA responses beyond the bound only during recovery: the
	// node must reject them (visible retries) instead of adopting a
	// stale reference.
	r := newRig(t, 1, nil)
	box := &slowTA{}
	r.net.AttachMiddlebox(box)
	r.startAll()
	r.run(30 * time.Second)
	n := r.nodes[0]
	box.extra = 20 * time.Millisecond // > 5ms RTTBound
	r.platforms[0].FireAEX()          // no peers -> RefCalib
	r.run(2 * time.Second)
	if n.State() == core.StateOK {
		t.Error("node recovered through over-delayed TA responses")
	}
	if n.Counters().RTTRejections == 0 {
		t.Error("no RTT rejections recorded")
	}
	box.extra = 0
	r.run(2 * time.Second)
	if n.State() != core.StateOK {
		t.Errorf("state = %v after delays ended, want OK", n.State())
	}
}

type slowTA struct {
	extra time.Duration
}

func (b *slowTA) Process(_ simtime.Instant, p simnet.Packet) simnet.Verdict {
	if p.From == taAddr {
		return simnet.Verdict{ExtraDelay: b.extra}
	}
	return simnet.Verdict{}
}

// TestInteropWithOriginalNodes runs a mixed cluster: two original
// protocol nodes and one hardened node share the wire format, answer
// each other's peer requests, and keep trusted time together. This is
// the incremental-upgrade story: hardened nodes can join an existing
// Triad deployment.
func TestInteropWithOriginalNodes(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(777)
	network := simnet.New(sched, rng.Fork(0), simnet.DefaultLink())
	if _, err := authority.NewSimBinding(sched, network, testKey(), taAddr); err != nil {
		t.Fatal(err)
	}
	newPlatform := func(addr simnet.Addr, fork uint64) *enclave.SimPlatform {
		return enclave.NewSimPlatform(sched, rng.Fork(fork), network, enclave.SimConfig{
			Addr: addr,
			TSC:  simtime.NewTSC(simtime.NominalTSCHz, uint64(addr)*2e9),
		})
	}
	p1, p2, p3 := newPlatform(1, 10), newPlatform(2, 11), newPlatform(3, 12)
	orig1, err := core.NewNode(p1, core.Config{
		Config: engine.Config{Key: testKey(), Addr: 1, Peers: []simnet.Addr{2, 3}, Authority: taAddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	orig2, err := core.NewNode(p2, core.Config{
		Config: engine.Config{Key: testKey(), Addr: 2, Peers: []simnet.Addr{1, 3}, Authority: taAddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := NewNode(p3, Config{
		Config: engine.Config{Key: testKey(), Addr: 3, Peers: []simnet.Addr{1, 2}, Authority: taAddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	orig1.Start()
	orig2.Start()
	hard.Start()
	sched.RunUntil(simtime.FromSeconds(30))
	if orig1.State() != core.StateOK || orig2.State() != core.StateOK || hard.State() != core.StateOK {
		t.Fatalf("states = %v/%v/%v", orig1.State(), orig2.State(), hard.State())
	}

	// An original node taints: the hardened peer serves it a timestamp.
	p1.FireAEX()
	sched.RunUntil(sched.Now().Add(time.Second))
	if orig1.State() != core.StateOK {
		t.Fatalf("original node state = %v after peer untaint", orig1.State())
	}
	if orig1.Counters().PeerUntaints != 1 {
		t.Errorf("original node PeerUntaints = %d", orig1.Counters().PeerUntaints)
	}

	// The hardened node taints: both original peers answer and their
	// consensus untaints it without the TA.
	taBefore := hard.Counters().TAReferences
	p3.FireAEX()
	sched.RunUntil(sched.Now().Add(time.Second))
	if hard.State() != core.StateOK {
		t.Fatalf("hardened node state = %v", hard.State())
	}
	if hard.Counters().PeerUntaints != 1 {
		t.Errorf("hardened PeerUntaints = %d", hard.Counters().PeerUntaints)
	}
	if hard.Counters().TAReferences != taBefore {
		t.Error("hardened node needed the TA despite honest original peers")
	}

	// All three track reference time.
	for i, ts := range []func() (int64, error){orig1.TrustedNow, orig2.TrustedNow, hard.TrustedNow} {
		v, err := ts()
		if err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
		if off := time.Duration(v - int64(sched.Now())); off < -100*time.Millisecond || off > 100*time.Millisecond {
			t.Errorf("node %d off reference by %v", i+1, off)
		}
	}
}

func TestCalibrationRetriesOnLostResponses(t *testing.T) {
	// Drop every TA response for the first 2 minutes: TATimeout retries
	// carry the node through; calibration completes once the network
	// heals.
	r := newRig(t, 1, nil)
	box := &slowTA{} // reuse: extra=0 means pass-through
	drop := &muzzleAll{muted: taAddr}
	r.net.AttachMiddlebox(box)
	r.net.AttachMiddlebox(drop)
	r.startAll()
	r.run(2 * time.Minute)
	if r.nodes[0].FCalib() != 0 {
		t.Fatal("calibrated without any TA responses?")
	}
	drop.muted = 0
	r.run(30 * time.Second)
	n := r.nodes[0]
	if n.State() != core.StateOK {
		t.Fatalf("state = %v after network healed", n.State())
	}
	if ppm := math.Abs(n.FCalib()-simtime.NominalTSCHz) / simtime.NominalTSCHz * 1e6; ppm > 50 {
		t.Errorf("FCalib %.1fppm off after retries", ppm)
	}
	if n.Addr() != 1 {
		t.Errorf("Addr = %v", n.Addr())
	}
	if _, err := n.TrustedNow(); err != nil {
		t.Fatal(err)
	}
	if n.Counters().Served == 0 {
		t.Error("ServedCount not tracking")
	}
}

func TestRefCalibRetriesOnLostResponses(t *testing.T) {
	r := newRig(t, 1, nil)
	drop := &muzzleAll{}
	r.net.AttachMiddlebox(drop)
	r.startAll()
	r.run(30 * time.Second)
	// Taint, with the TA dark: RefCalib retries until it heals.
	drop.muted = taAddr
	r.platforms[0].FireAEX()
	r.run(5 * time.Second)
	if r.nodes[0].State() == core.StateOK {
		t.Fatal("recovered without TA responses")
	}
	drop.muted = 0
	r.run(2 * time.Second)
	if r.nodes[0].State() != core.StateOK {
		t.Fatalf("state = %v after heal", r.nodes[0].State())
	}
}
