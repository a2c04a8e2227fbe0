package enclave

import (
	"math"
	"testing"
	"time"

	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
	"triadtime/internal/stats"
)

func newTestPlatform(t *testing.T, cfg SimConfig) (*sim.Scheduler, *SimPlatform) {
	t.Helper()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	net := simnet.New(sched, rng.Fork(100), simnet.Link{Base: time.Millisecond})
	if cfg.TSC == nil {
		cfg.TSC = simtime.NewTSC(simtime.NominalTSCHz, 0)
	}
	return sched, NewSimPlatform(sched, rng, net, cfg)
}

func TestReadTSCAdvances(t *testing.T) {
	sched, p := newTestPlatform(t, SimConfig{Addr: 1})
	v0 := p.ReadTSC()
	sched.RunUntil(simtime.FromSeconds(1))
	v1 := p.ReadTSC()
	gained := float64(v1 - v0)
	if math.Abs(gained-simtime.NominalTSCHz) > 1 {
		t.Errorf("TSC gained %v over 1s, want ~%v", gained, simtime.NominalTSCHz)
	}
}

func TestBootHzDefaultsToHostRate(t *testing.T) {
	_, p := newTestPlatform(t, SimConfig{Addr: 1})
	if p.BootTSCHz() != simtime.NominalTSCHz {
		t.Errorf("BootTSCHz = %v", p.BootTSCHz())
	}
	if p.Addr() != 1 {
		t.Errorf("Addr = %v", p.Addr())
	}
}

func TestAfterTicksFiresAtGuestRate(t *testing.T) {
	sched, p := newTestPlatform(t, SimConfig{Addr: 1})
	var firedAt simtime.Instant
	p.AfterTicks(uint64(simtime.NominalTSCHz), func() { firedAt = sched.Now() })
	sched.RunUntilIdle()
	if d := firedAt.Sub(simtime.FromSeconds(1)); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("timer fired at %v, want ~t+1s", firedAt)
	}
}

func TestAfterTicksCancel(t *testing.T) {
	sched, p := newTestPlatform(t, SimConfig{Addr: 1})
	fired := false
	cancel := p.AfterTicks(1000, func() { fired = true })
	cancel()
	cancel() // idempotent
	sched.RunUntilIdle()
	if fired {
		t.Error("cancelled timer fired")
	}
}

func TestMessageRoundtripBetweenPlatforms(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(2)
	net := simnet.New(sched, rng.Fork(1), simnet.Link{Base: time.Millisecond})
	a := NewSimPlatform(sched, rng.Fork(2), net, SimConfig{Addr: 1, TSC: simtime.NewTSC(1e9, 0)})
	b := NewSimPlatform(sched, rng.Fork(3), net, SimConfig{Addr: 2, TSC: simtime.NewTSC(1e9, 0)})
	var got []byte
	var gotFrom simnet.Addr
	b.SetMessageHandler(func(from simnet.Addr, payload []byte) {
		gotFrom = from
		got = payload
	})
	a.Send(2, []byte("hello"))
	sched.RunUntilIdle()
	if string(got) != "hello" || gotFrom != 1 {
		t.Errorf("got %q from %d", got, gotFrom)
	}
}

func TestFireAEXInvokesHandlerAndCounts(t *testing.T) {
	sched, p := newTestPlatform(t, SimConfig{Addr: 1, RecordAEXGaps: true})
	calls := 0
	p.SetAEXHandler(func() { calls++ })
	sched.At(simtime.FromSeconds(1), p.FireAEX)
	sched.At(simtime.FromSeconds(3), p.FireAEX)
	sched.At(simtime.FromSeconds(6), p.FireAEX)
	sched.RunUntilIdle()
	if calls != 3 || p.AEXCount() != 3 {
		t.Errorf("calls/count = %d/%d, want 3/3", calls, p.AEXCount())
	}
	gaps := p.AEXGaps()
	if len(gaps) != 2 || gaps[0] != 2*time.Second || gaps[1] != 3*time.Second {
		t.Errorf("gaps = %v, want [2s 3s]", gaps)
	}
}

func TestAEXGapsNotRecordedWhenDisabled(t *testing.T) {
	sched, p := newTestPlatform(t, SimConfig{Addr: 1})
	sched.At(simtime.FromSeconds(1), p.FireAEX)
	sched.At(simtime.FromSeconds(2), p.FireAEX)
	sched.RunUntilIdle()
	if len(p.AEXGaps()) != 0 {
		t.Error("gaps recorded despite RecordAEXGaps=false")
	}
}

func TestINCCheckMatchesPaperStatistics(t *testing.T) {
	// Reproduce §IV-A.1 in miniature: repeated measurements of INC per
	// 15e6 TSC ticks; after dropping the warm-up outlier the counts are
	// extremely tight around 632182.
	_, p := newTestPlatform(t, SimConfig{Addr: 1})
	const n = 500
	counts := p.MeasureINC(15e6, n)
	if len(counts) != n {
		t.Fatalf("got %d measurements", len(counts))
	}
	first := counts[0]
	if first > 625000 {
		t.Errorf("first measurement %v should show the warm-up outlier", first)
	}
	s := stats.Summarize(counts[1:])
	if math.Abs(s.Mean-simtime.PaperINCPer15MTicks) > 5 {
		t.Errorf("steady-state mean = %v, want ~%v", s.Mean, float64(simtime.PaperINCPer15MTicks))
	}
	if s.Stddev > 5 {
		t.Errorf("steady-state stddev = %v, want ~2.9", s.Stddev)
	}
}

func TestINCCheckDetectsTSCScaling(t *testing.T) {
	// A hypervisor scaling the guest TSC up by 10% makes each 15e6-tick
	// window shorter in real time, so fewer INCs execute: the monitoring
	// thread sees a ~10% INC deficit. This is the tamper-detection path.
	tsc := simtime.NewTSC(simtime.NominalTSCHz, 0)
	sched, p := newTestPlatform(t, SimConfig{Addr: 1, TSC: tsc})
	clean := p.MeasureINC(15e6, 2)[1] // past the warm-up outlier
	tsc.SetScale(1.1, sched.Now())
	scaled := p.MeasureINC(15e6, 1)[0]
	ratio := scaled / clean
	if math.Abs(ratio-1/1.1) > 0.01 {
		t.Errorf("scaled/clean INC ratio = %v, want ~%v", ratio, 1/1.1)
	}
}

// recordWindows starts a monitor on p that never calls back and returns
// the log of the windows it judges, with each window's end.
func recordWindows(p *SimPlatform, enableMem bool) *[]judged {
	var log []judged
	NewRateMonitor(p, MonitorConfig{
		INCTicks:      15e6,
		INCTol:        math.Inf(1),
		EnableMem:     enableMem,
		MemTol:        math.Inf(1),
		OnDiscrepancy: func(float64) {},
	}).Start()
	onPass(p, func(end simtime.Instant, inc, mem float64) {
		log = append(log, judged{end, inc, mem})
	})
	return &log
}

// onPass has fn see every window the loop moves past, with its end and
// counts. In a quiet block it draws the block's noise again from the
// mark, as a replan does, and puts the buffer back as it was: the loop
// must not find there what a test wrote.
func onPass(p *SimPlatform, fn func(end simtime.Instant, inc, mem float64)) {
	l := &p.mon
	l.record = func(n int) {
		if l.quiet {
			kept := l.noise
			p.redrawBlock()
			defer func() { l.noise = kept }()
		}
		for k := 0; k < n; k++ {
			end, elapsed := l.end, l.end.Sub(l.start)
			if k > 0 {
				end, elapsed = l.end.Add(time.Duration(k)*l.span), l.span
			}
			inc, mem := p.counts(elapsed, &l.noise[l.next+k])
			fn(end, inc, mem)
		}
	}
}

// redrawBlock draws the quiet block's noise again, from its mark, into
// the buffer, for a test that needs its values, and checks that the RNG
// ends where the scan left it.
func (p *SimPlatform) redrawBlock() {
	l := &p.mon
	end := p.rng.Mark()
	p.rng.Rewind(l.mark)
	for j := 0; j < l.drawn; j++ {
		p.drawWindow(&l.noise[j], l.m.memEnabled)
	}
	if p.rng.Mark() != end {
		panic("enclave: a quiet block drawn again from its mark ends elsewhere than its scan")
	}
}

// judged is one judged window: its end and its counts.
type judged struct {
	end      simtime.Instant
	inc, mem float64
}

func TestINCCheckInterruptedByAEX(t *testing.T) {
	sched, p := newTestPlatform(t, SimConfig{Addr: 1})
	log := recordWindows(p, false)
	// 15e6 ticks take ~5.17ms; fire an AEX 1ms in.
	aex := simtime.FromDuration(time.Millisecond)
	sched.At(aex, p.FireAEX)
	sched.RunUntil(simtime.FromDuration(20 * time.Millisecond))
	p.touchMonitor()
	if len(*log) == 0 {
		t.Fatal("no window was judged")
	}
	// The interrupted window is never counted: the first count is the
	// window the AEX began, a whole window long.
	if got, want := (*log)[0].end, aex.Add(p.mon.span); got != want {
		t.Errorf("first judged window ended at %v, want %v (the one begun by the AEX)", got, want)
	}
	if got := (*log)[0].inc; got > 625000 {
		t.Errorf("first judged window counted %v; it is the core's first measurement and should carry the warm-up offset", got)
	}
}

func TestINCCheckOverlapPanics(t *testing.T) {
	_, p := newTestPlatform(t, SimConfig{Addr: 1})
	recordWindows(p, false)
	defer func() {
		if recover() == nil {
			t.Error("a second monitor on one monitoring thread should panic")
		}
	}()
	recordWindows(p, false)
}

func TestNewSimPlatformRequiresTSC(t *testing.T) {
	sched := sim.NewScheduler()
	net := simnet.New(sched, sim.NewRNG(1), simnet.Link{})
	defer func() {
		if recover() == nil {
			t.Error("missing TSC should panic")
		}
	}()
	NewSimPlatform(sched, sim.NewRNG(2), net, SimConfig{Addr: 1})
}

func TestIdealINC(t *testing.T) {
	core := simtime.PaperCore()
	got := IdealINC(core, 15e6, simtime.NominalTSCHz)
	if math.Abs(got-simtime.PaperINCPer15MTicks) > 1e-3 {
		t.Errorf("IdealINC = %v, want %v", got, float64(simtime.PaperINCPer15MTicks))
	}
	// Unset cycle cost falls back to 1 cycle per iteration.
	raw := IdealINC(simtime.Core{FreqHz: 2e9}, 1e9, 1e9)
	if raw != 2e9 {
		t.Errorf("IdealINC fallback = %v, want 2e9", raw)
	}
}

func TestINCModelSampleClampsAtZero(t *testing.T) {
	m := INCModel{NoiseSigma: 1, WarmupOffset: -1e12}
	noise, offset := m.draw(true, sim.NewRNG(1))
	if got := m.count(100, noise, offset); got != 0 {
		t.Errorf("count = %v, want clamp to 0", got)
	}
}
