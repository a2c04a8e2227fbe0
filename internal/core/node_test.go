package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"triadtime/internal/authority"
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
		key[i] = byte(i + 1)
	}
	return key
}

// rig is a miniature cluster for node tests: a scheduler, a jitter-free
// (unless configured) network, a Time Authority, and N nodes.
type rig struct {
	t         *testing.T
	sched     *sim.Scheduler
	net       *simnet.Network
	ta        *authority.SimBinding
	nodes     []*engine.Node
	engines   []*engine.Engine // the nodes' engines, for fault injection
	platforms []*enclave.SimPlatform
}

func newRig(t *testing.T, nodeCount int, link simnet.Link, tweak func(i int, cfg *Config)) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1234)
	network := simnet.New(sched, rng.Fork(0), link)
	ta, err := authority.NewSimBinding(sched, network, testKey(), taAddr)
	if err != nil {
		t.Fatalf("authority: %v", err)
	}
	r := &rig{t: t, sched: sched, net: network, ta: ta}
	addrs := make([]simnet.Addr, nodeCount)
	for i := range addrs {
		addrs[i] = simnet.Addr(i + 1)
	}
	for i := 0; i < nodeCount; i++ {
		tsc := simtime.NewTSC(simtime.NominalTSCHz, uint64(i)*1e6)
		p := enclave.NewSimPlatform(sched, rng.Fork(uint64(i+10)), network, enclave.SimConfig{
			Addr: addrs[i],
			TSC:  tsc,
		})
		var peers []simnet.Addr
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		cfg := Config{Config: engine.Config{
			Key:       testKey(),
			Addr:      addrs[i],
			Peers:     peers,
			Authority: taAddr,
		}}
		if tweak != nil {
			tweak(i, &cfg)
		}
		eng, _, err := assemble(p, cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		r.nodes = append(r.nodes, eng.Node())
		r.engines = append(r.engines, eng)
		r.platforms = append(r.platforms, p)
	}
	return r
}

func (r *rig) startAll() {
	for _, n := range r.nodes {
		n.Start()
	}
}

func (r *rig) run(d time.Duration) {
	r.sched.RunUntil(r.sched.Now().Add(d))
}

// recordJumps collects node i's forward jumps (ns) on peer untaints,
// from Events.PeerUntaint.
func (r *rig) recordJumps(i int) *[]int64 {
	var jumps []int64
	r.engines[i].Events().PeerUntaint = func(_ uint32, jump int64) { jumps = append(jumps, jump) }
	return &jumps
}

func TestConfigValidation(t *testing.T) {
	sched := sim.NewScheduler()
	network := simnet.New(sched, sim.NewRNG(1), simnet.Link{})
	p := enclave.NewSimPlatform(sched, sim.NewRNG(2), network, enclave.SimConfig{
		Addr: 1, TSC: simtime.NewTSC(1e9, 0),
	})
	tests := []struct {
		name string
		cfg  Config
	}{
		{"bad key", Config{Config: engine.Config{Key: []byte("short"), Addr: 1, Authority: 9}}},
		{"self authority", Config{Config: engine.Config{Key: testKey(), Addr: 1, Authority: 1}}},
		{"self peer", Config{Config: engine.Config{Key: testKey(), Addr: 1, Authority: 9, Peers: []simnet.Addr{1}}}},
		{"one sleep", Config{Config: engine.Config{Key: testKey(), Addr: 1, Authority: 9}, CalibSleeps: []time.Duration{0}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewNode(p, tt.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestTrustedNowUnavailableBeforeCalibration(t *testing.T) {
	r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, nil)
	if _, err := r.nodes[0].TrustedNow(); !errors.Is(err, ErrUnavailable) {
		t.Errorf("err = %v, want ErrUnavailable", err)
	}
	if _, ok := r.nodes[0].ClockReading(); ok {
		t.Error("ClockReading should be invalid before calibration")
	}
	if r.nodes[0].State() != StateInit {
		t.Errorf("state = %v, want Init", r.nodes[0].State())
	}
}

func TestFullCalibrationConvergesToTrueRate(t *testing.T) {
	r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, nil)
	var transitions []State
	r.engines[0].Events().StateChanged = func(_, s State) { transitions = append(transitions, s) }
	r.startAll()
	r.run(30 * time.Second)

	n := r.nodes[0]
	if n.State() != StateOK {
		t.Fatalf("state = %v, want OK", n.State())
	}
	// Jitter-free link: the regression should recover the rate almost
	// exactly.
	if ppm := math.Abs(n.FCalib()-simtime.NominalTSCHz) / simtime.NominalTSCHz * 1e6; ppm > 1 {
		t.Errorf("FCalib = %v (%.2fppm off), want ~%v", n.FCalib(), ppm, simtime.NominalTSCHz)
	}
	if n.Counters().TAReferences != 1 {
		t.Errorf("TAReferences = %d, want 1 (single full calibration)", n.Counters().TAReferences)
	}
	if len(transitions) < 2 || transitions[0] != StateFullCalib || transitions[len(transitions)-1] != StateOK {
		t.Errorf("transitions = %v, want FullCalib...OK", transitions)
	}
	// Clock tracks reference time closely right after calibration.
	ts, err := n.TrustedNow()
	if err != nil {
		t.Fatalf("TrustedNow: %v", err)
	}
	drift := time.Duration(ts - int64(r.sched.Now()))
	if drift < -time.Millisecond || drift > time.Millisecond {
		t.Errorf("clock off reference by %v right after calibration", drift)
	}
}

func TestServedTimestampsStrictlyMonotonic(t *testing.T) {
	r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, nil)
	r.startAll()
	r.run(10 * time.Second)
	n := r.nodes[0]
	if n.State() != StateOK {
		t.Fatal("node did not calibrate")
	}
	prev := int64(0)
	for i := 0; i < 1000; i++ {
		ts, err := n.TrustedNow()
		if err != nil {
			t.Fatalf("TrustedNow: %v", err)
		}
		if ts <= prev {
			t.Fatalf("timestamp %d not strictly greater than %d", ts, prev)
		}
		prev = ts
	}
	if n.Counters().Served != 1000 {
		t.Errorf("ServedCount = %d", n.Counters().Served)
	}
}

func TestMonotonicAcrossBackwardReferenceReset(t *testing.T) {
	r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, nil)
	r.startAll()
	r.run(10 * time.Second)
	n := r.nodes[0]
	ts1, err := n.TrustedNow()
	if err != nil {
		t.Fatal(err)
	}
	// Force the reference a full second backwards (as a TA re-anchor
	// after a fast miscalibrated stretch would).
	r.engines[0].ShiftReference(-int64(time.Second))
	ts2, err := n.TrustedNow()
	if err != nil {
		t.Fatal(err)
	}
	if ts2 <= ts1 {
		t.Errorf("served %d after %d: monotonicity violated", ts2, ts1)
	}
}

func TestAEXTaintsAndPeerUntaints(t *testing.T) {
	r := newRig(t, 3, simnet.Link{Base: 100 * time.Microsecond}, nil)
	r.startAll()
	r.run(30 * time.Second)
	for i, n := range r.nodes {
		if n.State() != StateOK {
			t.Fatalf("node %d state = %v", i, n.State())
		}
	}
	// Taint node 0 only: peers are OK and must untaint it.
	r.platforms[0].FireAEX()
	if got := r.nodes[0].State(); got != StateTainted {
		t.Fatalf("state after AEX = %v, want Tainted", got)
	}
	if _, err := r.nodes[0].TrustedNow(); !errors.Is(err, ErrUnavailable) {
		t.Error("tainted node served a timestamp")
	}
	r.run(time.Second)
	if got := r.nodes[0].State(); got != StateOK {
		t.Fatalf("state after peer responses = %v, want OK", got)
	}
	if r.nodes[0].Counters().PeerUntaints != 1 {
		t.Errorf("PeerUntaints = %d, want 1", r.nodes[0].Counters().PeerUntaints)
	}
	if r.nodes[0].Counters().TAReferences != 1 {
		t.Errorf("TAReferences = %d, want 1 (no TA fallback needed)", r.nodes[0].Counters().TAReferences)
	}
}

func TestSimultaneousTaintFallsBackToTA(t *testing.T) {
	// All nodes tainted at once (machine-wide interrupt): nobody can
	// answer, so everyone RefCalibs with the TA — the Figure 2a sawtooth
	// mechanism.
	r := newRig(t, 3, simnet.Link{Base: 100 * time.Microsecond}, nil)
	r.startAll()
	r.run(30 * time.Second)
	for _, p := range r.platforms {
		p.FireAEX()
	}
	r.run(5 * time.Second)
	for i, n := range r.nodes {
		if n.State() != StateOK {
			t.Errorf("node %d state = %v, want OK", i, n.State())
		}
		if n.Counters().TAReferences != 2 {
			t.Errorf("node %d TAReferences = %d, want 2 (calibration + refcalib)", i, n.Counters().TAReferences)
		}
		if n.Counters().PeerUntaints != 0 {
			t.Errorf("node %d PeerUntaints = %d, want 0", i, n.Counters().PeerUntaints)
		}
	}
}

func TestPeerUntaintAdoptsHigherTimestamp(t *testing.T) {
	r := newRig(t, 2, simnet.Link{Base: 100 * time.Microsecond}, nil)
	r.startAll()
	r.run(30 * time.Second)
	victim, donor := r.nodes[0], r.engines[1]
	jumps := r.recordJumps(0)
	// Push the donor's clock 50ms into the future.
	donor.ShiftReference(50 * int64(time.Millisecond))
	r.platforms[0].FireAEX()
	r.run(time.Second)
	if victim.State() != StateOK {
		t.Fatalf("victim state = %v", victim.State())
	}
	if len(*jumps) != 1 {
		t.Fatalf("jumps = %v, want exactly one", *jumps)
	}
	if jump := time.Duration((*jumps)[0]); jump < 45*time.Millisecond || jump > 55*time.Millisecond {
		t.Errorf("jump = %v, want ~50ms (adopted the faster clock)", jump)
	}
	// The victim's clock now leads reference time by ~50ms.
	ts, _ := victim.TrustedNow()
	lead := time.Duration(ts - int64(r.sched.Now()))
	if lead < 40*time.Millisecond {
		t.Errorf("victim leads by %v, want ~50ms", lead)
	}
}

func TestPeerUntaintKeepsLocalWhenPeerBehind(t *testing.T) {
	r := newRig(t, 2, simnet.Link{Base: 100 * time.Microsecond}, nil)
	r.startAll()
	r.run(30 * time.Second)
	victim, donor := r.nodes[0], r.engines[1]
	jumps := r.recordJumps(0)
	donor.ShiftReference(-50 * int64(time.Millisecond)) // donor behind
	before, _ := victim.ClockReading()
	r.platforms[0].FireAEX()
	r.run(time.Second)
	if victim.State() != StateOK {
		t.Fatalf("victim state = %v", victim.State())
	}
	if len(*jumps) != 1 || (*jumps)[0] != 0 {
		t.Errorf("jumps = %v, want [0] (kept local, minimal bump)", *jumps)
	}
	after, _ := victim.ClockReading()
	if after < before {
		t.Error("local clock went backwards on minimal-bump untaint")
	}
}

// muzzleBox drops every packet from the TA to one node, pinning that
// node in its recovery states.
type muzzleBox struct {
	victim simnet.Addr
	active bool
}

func (b *muzzleBox) Process(_ simtime.Instant, p simnet.Packet) simnet.Verdict {
	return simnet.Verdict{Drop: b.active && p.From == taAddr && p.To == b.victim}
}

func TestTaintedPeersStaySilent(t *testing.T) {
	r := newRig(t, 2, simnet.Link{Base: 100 * time.Microsecond}, nil)
	box := &muzzleBox{victim: 2}
	r.net.AttachMiddlebox(box)
	r.startAll()
	r.run(30 * time.Second)
	// Cut the donor's TA responses, then taint both nodes at once: both
	// peer-untaint attempts meet silence, both fall back to the TA, and
	// only the victim's RefCalib can complete — the donor stays pinned
	// in recovery.
	box.active = true
	r.platforms[1].FireAEX()
	r.platforms[0].FireAEX()
	r.run(2 * time.Second)
	// Taint the victim again: the donor, still recovering, must stay
	// silent even though it is past StateTainted (it is in RefCalib).
	r.platforms[0].FireAEX()
	r.run(2 * time.Second)
	victim, donor := r.nodes[0], r.nodes[1]
	if donor.State() == StateOK {
		t.Fatal("test setup: donor should still be recovering")
	}
	if victim.State() != StateOK {
		t.Fatalf("victim state = %v", victim.State())
	}
	// The donor stayed silent, so the victim needed the TA again.
	if victim.Counters().TAReferences < 2 {
		t.Errorf("TAReferences = %d, want >= 2 (had to use the TA)", victim.Counters().TAReferences)
	}
	if victim.Counters().PeerUntaints != 0 {
		t.Errorf("PeerUntaints = %d, want 0", victim.Counters().PeerUntaints)
	}
	box.active = false
}

func TestMonitorDetectsTSCScaling(t *testing.T) {
	r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, nil)
	var discrepancies []float64
	r.engines[0].Events().Discrepancy = func(rel float64) { discrepancies = append(discrepancies, rel) }
	r.startAll()
	r.run(30 * time.Second)
	n := r.nodes[0]
	if n.State() != StateOK {
		t.Fatal("node did not calibrate")
	}
	firstCalib := n.FCalib()
	// Hypervisor scales the guest TSC up 10%.
	r.platforms[0].TSC().SetScale(1.1, r.sched.Now())
	r.run(60 * time.Second)
	if len(discrepancies) == 0 {
		t.Fatal("INC monitor never flagged the 10% TSC scaling")
	}
	if rel := discrepancies[0]; math.Abs(rel-(1-1/1.1)) > 0.02 {
		t.Errorf("first discrepancy rel = %v, want ~%v", rel, 1-1/1.1)
	}
	if n.State() != StateOK {
		t.Fatalf("state after recalibration = %v, want OK", n.State())
	}
	// Recalibrated rate reflects the new guest rate (~1.1x).
	if ratio := n.FCalib() / firstCalib; math.Abs(ratio-1.1) > 0.01 {
		t.Errorf("recalibrated FCalib ratio = %v, want ~1.1", ratio)
	}
	if n.Counters().TAReferences < 2 {
		t.Errorf("TAReferences = %d, want >= 2 (full recalibration)", n.Counters().TAReferences)
	}
}

func TestMonitorDisabled(t *testing.T) {
	r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, func(_ int, cfg *Config) {
		cfg.DisableMonitor = true
	})
	fired := false
	r.engines[0].Events().Discrepancy = func(float64) { fired = true }
	r.startAll()
	r.run(10 * time.Second)
	r.platforms[0].TSC().SetScale(1.5, r.sched.Now())
	r.run(30 * time.Second)
	if fired {
		t.Error("discrepancy fired with monitoring disabled")
	}
}

func TestCalibrationSurvivesFrequentAEXs(t *testing.T) {
	// AEXs every 700ms while calibrating with a 500ms sleep: roughly
	// half the 1s-window samples get severed and must be discarded
	// without biasing the estimate.
	r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, func(_ int, cfg *Config) {
		cfg.CalibSleeps = []time.Duration{0, 500 * time.Millisecond}
	})
	stop := false
	var schedule func(at simtime.Instant)
	schedule = func(at simtime.Instant) {
		r.sched.At(at, func() {
			if stop {
				return
			}
			r.platforms[0].FireAEX()
			schedule(at.Add(700 * time.Millisecond))
		})
	}
	schedule(simtime.FromDuration(700 * time.Millisecond))
	r.startAll()
	r.run(120 * time.Second)
	stop = true
	n := r.nodes[0]
	if n.FCalib() == 0 {
		t.Fatal("calibration never completed under frequent AEXs")
	}
	if ppm := math.Abs(n.FCalib()-simtime.NominalTSCHz) / simtime.NominalTSCHz * 1e6; ppm > 5 {
		t.Errorf("FCalib %.2fppm off despite discard-on-AEX policy", ppm)
	}
}

func TestForgedAndReplayedDatagramsIgnored(t *testing.T) {
	r := newRig(t, 2, simnet.Link{Base: 100 * time.Microsecond}, nil)
	r.startAll()
	r.run(30 * time.Second)
	n := r.nodes[0]
	stateBefore := n.State()
	clockBefore, _ := n.ClockReading()

	// Garbage, wrong-key forgeries, and a "TimeResponse" sealed by a
	// peer (not the TA) must all be ignored.
	r.net.Send(2, 1, []byte("garbage"))
	wrongKey := make([]byte, wire.KeySize)
	forger, _ := wire.NewSealer(wrongKey, uint32(taAddr))
	r.net.Send(taAddr, 1, forger.SealAppend(nil, wire.Message{Kind: wire.KindTimeResponse, Seq: 1, TimeNanos: 1 << 62}))
	peerSealer, _ := wire.NewSealer(testKey(), 2)
	r.net.Send(2, 1, peerSealer.SealAppend(nil, wire.Message{Kind: wire.KindTimeResponse, Seq: 1, TimeNanos: 1 << 62}))
	r.run(time.Second)

	if n.State() != stateBefore {
		t.Errorf("state changed to %v after forged traffic", n.State())
	}
	clockAfter, _ := n.ClockReading()
	if clockAfter-clockBefore > int64(2*time.Second) {
		t.Error("clock jumped after forged traffic")
	}
}

func TestPeerRequestFromNonPeerIgnored(t *testing.T) {
	r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, nil)
	r.startAll()
	r.run(10 * time.Second)
	// A valid cluster member that is not in this node's peer list (e.g.
	// sender ID 55) asks for time; the node must not answer.
	outsider, _ := wire.NewSealer(testKey(), 55)
	answered := false
	r.net.Register(55, func(simnet.Packet) { answered = true })
	r.net.Send(55, 1, outsider.SealAppend(nil, wire.Message{Kind: wire.KindPeerTimeRequest, Seq: 1}))
	r.run(time.Second)
	if answered {
		t.Error("node answered a non-peer's time request")
	}
}

func TestStartIsIdempotent(t *testing.T) {
	r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, nil)
	r.nodes[0].Start()
	r.nodes[0].Start()
	r.run(10 * time.Second)
	if r.nodes[0].Counters().TAReferences != 1 {
		t.Errorf("TAReferences = %d after double Start, want 1", r.nodes[0].Counters().TAReferences)
	}
}

func TestNodeWithoutPeersGoesStraightToTA(t *testing.T) {
	r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, nil)
	r.startAll()
	r.run(10 * time.Second)
	r.platforms[0].FireAEX()
	r.run(5 * time.Second)
	n := r.nodes[0]
	if n.State() != StateOK {
		t.Fatalf("state = %v", n.State())
	}
	if n.Counters().TAReferences != 2 || n.Counters().PeerUntaints != 0 {
		t.Errorf("TA/peer = %d/%d, want 2/0", n.Counters().TAReferences, n.Counters().PeerUntaints)
	}
}

func TestMonotonicUnderRandomAEXSchedules(t *testing.T) {
	// Property: whatever the interrupt schedule, served timestamps are
	// strictly monotonic.
	for seed := uint64(0); seed < 5; seed++ {
		r := newRig(t, 3, simnet.DefaultLink(), nil)
		rng := sim.NewRNG(900 + seed)
		r.startAll()
		r.run(40 * time.Second) // calibrate
		last := make([]int64, 3)
		for step := 0; step < 300; step++ {
			r.run(time.Duration(rng.IntN(300)) * time.Millisecond)
			if rng.Float64() < 0.3 {
				r.platforms[rng.IntN(3)].FireAEX()
			}
			for i, n := range r.nodes {
				ts, err := n.TrustedNow()
				if err != nil {
					continue
				}
				if ts <= last[i] {
					t.Fatalf("seed %d node %d: served %d after %d", seed, i, ts, last[i])
				}
				last[i] = ts
			}
		}
	}
}

func TestDVFSMaskedScalingNeedsMemMonitor(t *testing.T) {
	// The masking attack of §IV-A.1 (RQ A.1): the OS scales the guest
	// TSC by 0.8 and simultaneously drops the monitoring core to the
	// discrete 2800MHz DVFS point (also 0.8x). The INC count is
	// unchanged, so an INC-only node serves a silently slowed clock;
	// with the frequency-independent memory monitor the node detects
	// it and recalibrates.
	run := func(enableMem bool) (discrepancies int, clockRate float64) {
		r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, func(_ int, cfg *Config) {
			cfg.EnableMemMonitor = enableMem
		})
		r.engines[0].Events().Discrepancy = func(float64) { discrepancies++ }
		r.startAll()
		r.run(30 * time.Second)
		if r.nodes[0].State() != StateOK {
			t.Fatal("node never calibrated")
		}
		r.platforms[0].TSC().SetScale(0.8, r.sched.Now())
		r.platforms[0].SetCoreFreqHz(2800e6)
		r.run(60 * time.Second) // detection + possible recalibration
		start, _ := r.nodes[0].ClockReading()
		startRef := r.sched.Now()
		r.run(10 * time.Second)
		end, _ := r.nodes[0].ClockReading()
		return discrepancies, float64(end-start) / float64(r.sched.Now().Sub(startRef))
	}

	d, rate := run(false)
	if d != 0 {
		t.Errorf("INC-only node fired %d discrepancies; the masked attack should evade it", d)
	}
	if math.Abs(rate-0.8) > 0.01 {
		t.Errorf("INC-only clock rate = %v, want ~0.8 (silently slowed)", rate)
	}

	d, rate = run(true)
	if d == 0 {
		t.Error("mem-monitored node never detected the masked attack")
	}
	if math.Abs(rate-1) > 0.01 {
		t.Errorf("mem-monitored clock rate = %v, want ~1 (recalibrated)", rate)
	}
}

func TestHonestDVFSDoesNotDisruptService(t *testing.T) {
	r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, func(_ int, cfg *Config) {
		cfg.EnableMemMonitor = true
	})
	freqChanges, discrepancies := 0, 0
	r.engines[0].Events().FreqChange = func(float64) { freqChanges++ }
	r.engines[0].Events().Discrepancy = func(float64) { discrepancies++ }
	r.startAll()
	r.run(30 * time.Second)
	taRefs := r.nodes[0].Counters().TAReferences
	r.platforms[0].SetCoreFreqHz(2100e6) // powersave governor kicks in
	r.run(60 * time.Second)
	if discrepancies != 0 {
		t.Errorf("honest DVFS triggered %d recalibrations", discrepancies)
	}
	if freqChanges == 0 {
		t.Error("frequency change never surfaced")
	}
	if r.nodes[0].Counters().TAReferences != taRefs {
		t.Error("honest DVFS should not cost TA roundtrips")
	}
}

// TestAlignedMonitorTiesFollowTheRule drives the monitoring loop's
// equal-instant ties on a cluster whose platforms start together, so
// that their monitoring windows are aligned. Nodes 0 and 1 take the
// same DVFS-masked TSC scaling at the same instant, which their memory
// monitors catch at one window end; node 2 takes an AEX at one of its
// window ends, scheduled at the end of the window before. At an instant
// window completions come first, and platforms in the order they
// started, so the run completes, the two verdicts land together with
// node 0's first, and two runs give the same state timelines and
// counters.
func TestAlignedMonitorTiesFollowTheRule(t *testing.T) {
	run := func() string {
		r := newRig(t, 3, simnet.Link{Base: 100 * time.Microsecond}, func(_ int, cfg *Config) {
			cfg.EnableMemMonitor = true
		})
		var log strings.Builder
		verdicts := make([][]simtime.Instant, len(r.engines))
		for i, e := range r.engines {
			i := i
			e.Events().StateChanged = func(old, s State) { fmt.Fprintf(&log, "%v node %d %v -> %v\n", r.sched.Now(), i, old, s) }
			e.Events().Discrepancy = func(rel float64) {
				fmt.Fprintf(&log, "%v node %d discrepancy %v\n", r.sched.Now(), i, rel)
				verdicts[i] = append(verdicts[i], r.sched.Now())
			}
		}
		// Every monitor starts at the epoch, and no AEX or manipulation
		// moves a window before the ones below: window k ends at k spans.
		var span time.Duration
		for i, p := range r.platforms {
			s := p.TSC().TimeOfReaching(p.TSC().ReadAt(simtime.Epoch)+engine.DefaultMonitorTicks, simtime.Epoch).Sub(simtime.Epoch)
			if i > 0 && s != span {
				t.Fatalf("platform %d's windows last %v, platform 0's %v: not aligned", i, s, span)
			}
			span = s
		}
		end := func(k int) simtime.Instant { return simtime.FromDuration(time.Duration(k) * span) }
		k := int(30*time.Second/span) + 1
		// The masking attack of TestDVFSMaskedScalingNeedsMemMonitor,
		// nine tenths into a window: it moves that window's memory count
		// by 2.5 %, inside tolerance, and the next windows' by 25 %.
		r.sched.At(end(k).Add(9*span/10), func() {
			for _, p := range r.platforms[:2] {
				p.TSC().SetScale(0.8, r.sched.Now())
				p.SetCoreFreqHz(2800e6)
			}
		})
		r.sched.At(end(k+2), func() { r.sched.At(end(k+3), r.platforms[2].FireAEX) })
		r.startAll()
		r.run(60 * time.Second)
		if len(verdicts[0]) == 0 || len(verdicts[1]) == 0 || verdicts[0][0] != verdicts[1][0] {
			t.Fatalf("verdicts %v, want nodes 0 and 1 at one window end", verdicts)
		}
		if i, j := strings.Index(log.String(), "node 0 discrepancy"), strings.Index(log.String(), "node 1 discrepancy"); i > j {
			t.Error("node 1's verdict came before node 0's")
		}
		if n := r.platforms[2].AEXCount(); n != 1 {
			t.Errorf("node 2 took %d AEXs, want 1", n)
		}
		for i, n := range r.nodes {
			fmt.Fprintf(&log, "node %d: %v %+v\n", i, n.State(), n.Counters())
		}
		return log.String()
	}
	first := run()
	if second := run(); second != first {
		t.Errorf("two runs differ:\n%s\nagainst\n%s", first, second)
	}
}

// TSC value jumps require hypervisor action during an enclave exit, so
// in the paper's model they always coincide with an AEX ("the attacker
// may offset the TSC to make that duration seem shorter or even
// longer"): the taint/refresh machinery, not rate monitoring, is what
// absorbs them. The two tests below exercise exactly that.

func TestBackwardTSCJumpFreezesThenRecovers(t *testing.T) {
	r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, nil)
	r.startAll()
	r.run(30 * time.Second)
	n := r.nodes[0]
	servedBefore, err := n.TrustedNow()
	if err != nil {
		t.Fatal(err)
	}

	// Jump 10 seconds of ticks into the past, with the AEX the
	// manipulation's VM exit causes. The *internal* clock regresses —
	// that is what the serving guard exists for.
	r.platforms[0].TSC().Jump(-int64(10*simtime.NominalTSCHz), r.sched.Now())
	r.platforms[0].FireAEX()
	r.run(5 * time.Second)
	if n.State() != StateOK {
		t.Fatalf("state = %v after taint recovery", n.State())
	}
	reading, _ := n.ClockReading()
	off := time.Duration(reading - int64(r.sched.Now()))
	if off < -100*time.Millisecond || off > 100*time.Millisecond {
		t.Errorf("clock off reference by %v after recovery", off)
	}
	// Served timestamps never regressed across the whole episode.
	servedAfter, err := n.TrustedNow()
	if err != nil {
		t.Fatal(err)
	}
	if servedAfter <= servedBefore {
		t.Errorf("served %d after %d: regression across jump recovery", servedAfter, servedBefore)
	}
}

func TestForwardTSCJumpRecoveredByUntaint(t *testing.T) {
	r := newRig(t, 1, simnet.Link{Base: 100 * time.Microsecond}, nil)
	r.startAll()
	r.run(30 * time.Second)
	n := r.nodes[0]
	// Forward jump: the clock leaps 5s ahead; the accompanying AEX
	// taints the node and the TA reference pulls it back.
	r.platforms[0].TSC().Jump(int64(5*simtime.NominalTSCHz), r.sched.Now())
	r.platforms[0].FireAEX()
	r.run(5 * time.Second)
	if n.State() != StateOK {
		t.Fatalf("state = %v", n.State())
	}
	reading, _ := n.ClockReading()
	off := time.Duration(reading - int64(r.sched.Now()))
	if off < -100*time.Millisecond || off > 100*time.Millisecond {
		t.Errorf("clock off reference by %v after recovery", off)
	}
	// Serving stays monotonic even though the internal clock stepped
	// back by ~5s at the re-anchor.
	ts1, _ := n.TrustedNow()
	ts2, _ := n.TrustedNow()
	if ts2 <= ts1 {
		t.Error("monotonicity violated across the backward re-anchor")
	}
}

func BenchmarkTrustedNow(b *testing.B) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	network := simnet.New(sched, rng.Fork(0), simnet.Link{Base: 100 * time.Microsecond})
	if _, err := authority.NewSimBinding(sched, network, testKey(), taAddr); err != nil {
		b.Fatal(err)
	}
	p := enclave.NewSimPlatform(sched, rng.Fork(1), network, enclave.SimConfig{
		Addr: 1, TSC: simtime.NewTSC(simtime.NominalTSCHz, 0),
	})
	node, err := NewNode(p, Config{Config: engine.Config{Key: testKey(), Addr: 1, Authority: taAddr}})
	if err != nil {
		b.Fatal(err)
	}
	node.Start()
	sched.RunUntil(simtime.FromSeconds(10))
	if node.State() != StateOK {
		b.Fatal("node did not calibrate")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := node.TrustedNow(); err != nil {
			b.Fatal(err)
		}
	}
}
