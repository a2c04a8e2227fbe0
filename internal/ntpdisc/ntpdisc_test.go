package ntpdisc

import (
	"errors"
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
		key[i] = byte(i + 5)
	}
	return key
}

// line is one NTP-discipline node on a simulated network with its Time
// Authority.
type line struct {
	sched    *sim.Scheduler
	platform *enclave.SimPlatform
	eng      *engine.Engine
	pol      *policy
}

// rig builds a scheduler + network + TA + one started discipline node
// whose hardware TSC runs at trueHz while the boot hint claims hintHz.
// boxes are attached to the network before the node starts.
func rig(t *testing.T, seed uint64, trueHz, hintHz float64, link simnet.Link, boxes ...simnet.Middlebox) *line {
	t.Helper()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	network := simnet.New(sched, rng.Fork(0), link)
	if _, err := authority.NewSimBinding(sched, network, testKey(), taAddr); err != nil {
		t.Fatal(err)
	}
	for _, b := range boxes {
		network.AttachMiddlebox(b)
	}
	platform := enclave.NewSimPlatform(sched, rng.Fork(1), network, enclave.SimConfig{
		Addr:      1,
		TSC:       simtime.NewTSC(trueHz, 0),
		BootTSCHz: hintHz,
	})
	eng, pol, err := assemble(platform, engine.Config{Key: testKey(), Addr: 1, Authority: taAddr})
	if err != nil {
		t.Fatal(err)
	}
	eng.Node().Start()
	eng.Node().Start() // idempotent
	return &line{sched: sched, platform: platform, eng: eng, pol: pol}
}

// quietLink is a fast, lossless link.
var quietLink = simnet.Link{Base: 100 * time.Microsecond}

// offset is the node's clock minus reference time; ok is false before
// the first answer.
func (l *line) offset() (time.Duration, bool) {
	now, ok := l.eng.Node().ClockReading()
	return time.Duration(now - int64(l.sched.Now())), ok
}

func within(d, bound time.Duration) bool { return d >= -bound && d <= bound }

func TestConfigValidation(t *testing.T) {
	sched := sim.NewScheduler()
	network := simnet.New(sched, sim.NewRNG(1), simnet.Link{})
	p := enclave.NewSimPlatform(sched, sim.NewRNG(2), network, enclave.SimConfig{
		Addr: 1, TSC: simtime.NewTSC(1e9, 0),
	})
	for name, cfg := range map[string]engine.Config{
		"bad key":           {Key: []byte("x"), Addr: 1, Authority: 2},
		"self authority":    {Key: testKey(), Addr: 2, Authority: 2},
		"two authorities":   {Key: testKey(), Addr: 1, Authorities: []simnet.Addr{2, 3}},
		"self as a peer":    {Key: testKey(), Addr: 1, Authority: 2, Peers: []simnet.Addr{1}},
		"authority twice":   {Key: testKey(), Addr: 1, Authorities: []simnet.Addr{2, 2}},
		"self in authority": {Key: testKey(), Addr: 1, Authority: 2, Authorities: []simnet.Addr{1}},
	} {
		_, err := NewNode(p, cfg)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.HasPrefix(err.Error(), "ntpdisc: ") {
			t.Errorf("%s: error %q lacks the ntpdisc: prefix", name, err)
		}
	}
}

func TestFirstExchangeSteps(t *testing.T) {
	l := rig(t, 321, simtime.NominalTSCHz, simtime.NominalTSCHz, quietLink)
	if _, ok := l.offset(); ok {
		t.Error("clock readable before first sync")
	}
	l.sched.RunUntil(simtime.FromSeconds(1))
	off, ok := l.offset()
	if !ok || l.eng.State() != engine.StateOK {
		t.Fatalf("node never synced: state %v", l.eng.State())
	}
	if !within(off, time.Millisecond) {
		t.Errorf("clock off by %v right after first sync", off)
	}
	if l.pol.steps != 1 {
		t.Errorf("steps = %d, want 1", l.pol.steps)
	}
}

func TestDisciplineConvergesBelowStandardDrift(t *testing.T) {
	// Hardware runs 100ppm fast relative to the boot hint (a typical
	// crystal error and the order of Triad's calibration error). The
	// discipline must pull residual drift under NTP's 15ppm standard.
	trueHz := simtime.NominalTSCHz * (1 + 100e-6)
	l := rig(t, 321, trueHz, simtime.NominalTSCHz, simnet.DefaultLink())
	l.sched.RunUntil(simtime.FromDuration(2 * time.Hour))

	if got := math.Abs((trueHz - l.eng.FCalib()) / trueHz * 1e6); got > StandardDriftPPM {
		t.Errorf("residual drift = %.1fppm, want < %dppm", got, StandardDriftPPM)
	}
	if off, _ := l.offset(); !within(off, 5*time.Millisecond) {
		t.Errorf("steady-state offset = %v", off)
	}
	// Frequency correction should have learned ~100ppm in magnitude.
	if corr := math.Abs(l.pol.corrPPM); math.Abs(corr-100) > 20 {
		t.Errorf("freq correction = %.1fppm, want magnitude ~100ppm", l.pol.corrPPM)
	}
}

func TestPollIntervalWidensWhenStable(t *testing.T) {
	l := rig(t, 321, simtime.NominalTSCHz, simtime.NominalTSCHz, quietLink)
	if l.pol.poll != MinPoll {
		t.Fatalf("initial poll = %v", l.pol.poll)
	}
	l.sched.RunUntil(simtime.FromDuration(time.Hour))
	if l.pol.poll <= MinPoll {
		t.Errorf("poll interval never widened: %v", l.pol.poll)
	}
}

func TestClockFilterSuppressesDelaySpikes(t *testing.T) {
	// A middlebox delays every 4th authority response by 50ms. The
	// min-delay clock filter must keep those samples from disciplining
	// the clock (they would otherwise inject -25ms offsets).
	spiker := &everyNth{n: 4, extra: 50 * time.Millisecond, from: taAddr, to: 1}
	l := rig(t, 11, simtime.NominalTSCHz, simtime.NominalTSCHz, quietLink, spiker)
	l.sched.RunUntil(simtime.FromDuration(time.Hour))
	off, ok := l.offset()
	if !ok {
		t.Fatal("never synced")
	}
	if !within(off, 3*time.Millisecond) {
		t.Errorf("offset = %v under periodic 50ms spikes (filter failed)", off)
	}
	if l.eng.Node().Counters().RTTRejections == 0 {
		t.Error("filter reported no suppressed spikes")
	}
}

// everyNth delays (or, with drop, discards) every nth packet from one
// address to another, recording the send instants of all of them.
type everyNth struct {
	n     int
	extra time.Duration
	drop  bool
	from  simnet.Addr
	to    simnet.Addr
	count int
	sent  []simtime.Instant
}

func (m *everyNth) Process(now simtime.Instant, p simnet.Packet) simnet.Verdict {
	if p.From != m.from || p.To != m.to {
		return simnet.Verdict{}
	}
	m.count++
	m.sent = append(m.sent, now)
	if m.count%m.n == 0 {
		return simnet.Verdict{ExtraDelay: m.extra, Drop: m.drop}
	}
	return simnet.Verdict{}
}

func TestLargeOffsetSteps(t *testing.T) {
	l := rig(t, 321, simtime.NominalTSCHz, simtime.NominalTSCHz, quietLink)
	l.sched.RunUntil(simtime.FromDuration(time.Minute))
	// Yank the local clock a full second off; the next polls must step
	// it back rather than slew for hours.
	l.eng.ShiftReference(-int64(time.Second))
	l.sched.RunUntil(l.sched.Now().Add(5 * time.Minute))
	if off, _ := l.offset(); !within(off, 5*time.Millisecond) {
		t.Errorf("offset = %v after step recovery", off)
	}
	if l.pol.steps < 2 {
		t.Errorf("steps = %d, want >= 2 (initial + recovery)", l.pol.steps)
	}
}

func TestFreqClamp(t *testing.T) {
	// Hardware 5000ppm off (way outside NTP's envelope): the correction
	// must clamp at ±500ppm rather than chase it.
	trueHz := simtime.NominalTSCHz * (1 + 5000e-6)
	l := rig(t, 321, trueHz, simtime.NominalTSCHz, quietLink)
	l.sched.RunUntil(simtime.FromDuration(30 * time.Minute))
	if corr := math.Abs(l.pol.corrPPM); corr > MaxFreqPPM+1e-9 {
		t.Errorf("freq correction %v exceeds the ±%dppm clamp", corr, MaxFreqPPM)
	}
}

// On a jitter-free link every answer has the same roundtrip. The clock
// filter must let the newest of equal-delay samples through: were ties
// to go to the older, every answer after the first in the register
// would be rejected, the step check behind the filter would never run,
// and a crystal 5000ppm off its boot hint would run seconds away.
func TestConstantDelayLinkKeepsDisciplining(t *testing.T) {
	trueHz := simtime.NominalTSCHz * (1 + 5000e-6)
	l := rig(t, 321, trueHz, simtime.NominalTSCHz, quietLink)
	l.sched.RunUntil(simtime.FromDuration(30 * time.Minute))
	off, ok := l.offset()
	if !ok || !within(off, StepThreshold) {
		t.Errorf("offset = %v (synced %v) after 30 min on a constant-delay link, want within %v", off, ok, StepThreshold)
	}
}

func TestLostResponsesRetried(t *testing.T) {
	// Under 50% random loss the node still syncs and holds its offset.
	l := rig(t, 13, simtime.NominalTSCHz, simtime.NominalTSCHz,
		simnet.Link{Base: 100 * time.Microsecond, LossProb: 0.5})
	l.sched.RunUntil(simtime.FromDuration(time.Hour))
	off, ok := l.offset()
	if !ok {
		t.Fatal("never synced under 50% loss")
	}
	if !within(off, 10*time.Millisecond) {
		t.Errorf("offset = %v under loss", off)
	}

	// The schedule: with every third answer dropped, the poll after a
	// lost answer goes out one interval after the lost poll's send, and
	// the poll after an answer one interval after that answer, one
	// roundtrip after its send. Polls 0 to 4 keep the first interval:
	// it doubles after the third stable sample, poll 4's.
	answers := &everyNth{n: 3, drop: true, from: taAddr, to: 1}
	polls := &everyNth{n: math.MaxInt, from: 1, to: taAddr}
	l = rig(t, 13, simtime.NominalTSCHz, simtime.NominalTSCHz, quietLink, answers, polls)
	l.sched.RunUntil(simtime.FromDuration(4*MinPoll + time.Second))
	if len(polls.sent) != 5 {
		t.Fatalf("%d polls in %v, want 5", len(polls.sent), 4*MinPoll+time.Second)
	}
	for i := 1; i < len(polls.sent); i++ {
		gap := polls.sent[i].Sub(polls.sent[i-1])
		want := MinPoll + 2*quietLink.Base
		if i%3 == 0 { // poll i-1's answer was dropped
			want = MinPoll
		}
		if !within(gap-want, time.Microsecond) {
			t.Errorf("poll %d went out %v after poll %d, want %v", i, gap, i-1, want)
		}
	}
}

// An AEX taints the node: TrustedNow refuses until the next poll's
// answer re-anchors the clock onto the authority's timeline.
func TestAEXTaintsUntilNextPoll(t *testing.T) {
	l := rig(t, 321, simtime.NominalTSCHz*(1+100e-6), simtime.NominalTSCHz, quietLink)
	l.sched.RunUntil(simtime.FromDuration(10 * time.Minute))
	node := l.eng.Node()
	if _, err := node.TrustedNow(); err != nil {
		t.Fatalf("not serving before the AEX: %v", err)
	}
	// Knock the clock off by less than a step, which the discipline
	// would at most slew half away: only a re-anchor brings it back
	// within a millisecond.
	l.eng.ShiftReference(int64(100 * time.Millisecond))
	steps := l.pol.steps
	l.platform.FireAEX()
	if _, err := node.TrustedNow(); !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("TrustedNow after an AEX: %v, want ErrUnavailable", err)
	}
	if l.eng.State() != engine.StateTainted {
		t.Fatalf("state %v after an AEX, want Tainted", l.eng.State())
	}
	giveUp := l.sched.Now().Add(MaxPoll + time.Second)
	for l.eng.State() != engine.StateOK && l.sched.Now() < giveUp {
		l.sched.Step()
	}
	ts, err := node.TrustedNow()
	if err != nil {
		t.Fatalf("still %v one longest poll interval after the AEX: %v", l.eng.State(), err)
	}
	if l.pol.steps != steps+1 {
		t.Errorf("steps %d → %d, want one re-anchor", steps, l.pol.steps)
	}
	// The offset right at the answer is the roundtrip-midpoint error,
	// far inside the step threshold.
	if off := time.Duration(ts - int64(l.sched.Now())); !within(off, time.Millisecond) {
		t.Errorf("served %v off reference time after the re-anchor (step threshold %v)", off, StepThreshold)
	}
}
