package enclave

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
)

// monitoredCores builds n platforms on one scheduler, each running a
// RateMonitor over the paper's 15e6-tick window — the monitoring load of
// an n-node cluster with nothing else going on.
func monitoredCores(n int, enableMem bool) (*sim.Scheduler, []*SimPlatform) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(7)
	net := simnet.New(sched, rng.Fork(0), simnet.Link{Base: time.Millisecond})
	var ps []*SimPlatform
	for i := 0; i < n; i++ {
		p := NewSimPlatform(sched, rng.Fork(uint64(i+1)), net, SimConfig{
			Addr: simnet.Addr(i + 1),
			TSC:  simtime.NewTSC(simtime.NominalTSCHz, uint64(i+1)*7e9),
		})
		NewRateMonitor(p, MonitorConfig{
			INCTicks:      15e6,
			INCTol:        0.005,
			EnableMem:     enableMem,
			OnDiscrepancy: func(float64) {},
		}).Start()
		ps = append(ps, p)
	}
	return sched, ps
}

// TestMonitorWindowZeroAllocSteadyState is the allocation gate CI runs
// on the monitoring loop: a quiet block's firing (moving the head past
// the block at once) and its scan, judging windows at touch points (an
// AEX, a core-frequency change), scanning a quiet block again from its
// mark when a DVFS change replans it, and — with the memory monitor —
// an AEX at a window's end, after that window's completions, must not
// allocate.
func TestMonitorWindowZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name      string
		enableMem bool
	}{{"INC", false}, {"INC+Mem", true}} {
		t.Run(tc.name, func(t *testing.T) {
			sched, ps := monitoredCores(1, tc.enableMem)
			p := ps[0]
			l := &p.mon
			sched.RunUntil(simtime.FromSeconds(1)) // past warm-up and baseline learning
			quiet := l.quietBlocks
			if allocs := testing.AllocsPerRun(100, func() { sched.Step() }); allocs != 0 {
				t.Errorf("a timer firing of the monitoring loop allocates %.1f objects, want 0", allocs)
			}
			if l.quietBlocks-quiet < 100 {
				t.Errorf("%d of 101 firings planned a quiet block", l.quietBlocks-quiet)
			}
			hz := []float64{simtime.PaperCoreHz, simtime.PaperCoreHz * 1.001}
			i := 0
			touch := func() {
				sched.RunUntil(sched.Now().Add(7 * time.Millisecond))
				p.FireAEX()
				p.SetCoreFreqHz(hz[i%2])
				i++
			}
			if allocs := testing.AllocsPerRun(100, touch); allocs != 0 {
				t.Errorf("judging and planning at touch points allocates %.1f objects, want 0", allocs)
			}
			// A DVFS change inside a quiet block: what is left of it is
			// scanned again from the mark, past the windows committed.
			redraws := 0
			redraw := func() {
				sched.RunUntil(sched.Now().Add(time.Duration(noiseWindows+1) * l.span))
				if l.quiet && l.next < l.drawn {
					redraws++
				}
				p.SetCoreFreqHz(hz[i%2])
				i++
			}
			if allocs := testing.AllocsPerRun(20, redraw); allocs != 0 {
				t.Errorf("scanning a quiet block again at a DVFS change allocates %.1f objects, want 0", allocs)
			}
			if redraws < 20 {
				t.Errorf("%d of 21 DVFS changes met a quiet block", redraws)
			}
			if !tc.enableMem {
				return
			}
			// A TSC rescale the memory monitor catches, whose callback
			// plans an AEX at the next window's end: after that
			// window's completions, which the AEX sees judged.
			atEnd := 0
			aex := func() {
				if p.touchMonitor(); l.start == sched.Now() {
					atEnd++
				}
				p.FireAEX()
			}
			l.m.onDiscrepancy = func(float64) { sched.At(sched.Now().Add(l.span), aex) }
			scale := []float64{1.25, 1}
			between := func() {
				p.TSC().SetScale(scale[i%2], sched.Now())
				i++
				sched.RunUntil(sched.Now().Add(20 * l.span))
			}
			if allocs := testing.AllocsPerRun(20, between); allocs != 0 {
				t.Errorf("an AEX at a window's end allocates %.1f objects, want 0", allocs)
			}
			if atEnd < 20 {
				t.Errorf("%d AEXs at a window's end in 21 rescales", atEnd)
			}
		})
	}
}

// BenchmarkMonitorWindow times the monitoring loop per simulated window
// on a hardened three-node cluster's worth of cores, with a few far-off
// events standing in for the cluster's other pending work: everything a
// window costs, whether it is judged ahead or when the timer fires.
func BenchmarkMonitorWindow(b *testing.B) {
	const cores = 3
	sched, ps := monitoredCores(cores, true)
	for i := 0; i < 8; i++ {
		sched.At(simtime.FromDuration(1000*time.Hour), func() {})
	}
	span := ps[0].mon.span
	sched.RunUntil(simtime.FromDuration(64 * span))
	b.ReportAllocs()
	b.ResetTimer()
	sched.RunUntil(sched.Now().Add(time.Duration(b.N) * span))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cores*b.N), "ns/window")
}

// BenchmarkMonitorVerdictWindow times the monitoring loop per window
// on a hardened core whose TSC an attacker scales by 1.1, raising the
// core's frequency to match so that the INC count stays put — the
// DVFS-masked scaling only the memory monitor catches — and back, every
// four blocks: besides quiet blocks, plans meet a verdict, a reset and
// a re-learn. It runs at least one such cycle, whatever b.N.
func BenchmarkMonitorVerdictWindow(b *testing.B) {
	sched, ps := monitoredCores(1, true)
	p := ps[0]
	l := &p.mon
	verdicts, windows := 0, 0
	l.m.onDiscrepancy = func(float64) { verdicts++ }
	l.record = func(n int) { windows += n }
	masked := false
	var toggle sim.Timer
	toggle = sched.NewTimer(func() {
		masked = !masked
		scale := 1.0
		if masked {
			scale = 1.1
		}
		p.TSC().SetScale(scale, sched.Now())
		p.SetCoreFreqHz(scale * simtime.PaperCoreHz)
		toggle.Set(sched.Now().Add(4 * noiseWindows * l.span))
	})
	toggle.Set(simtime.FromDuration(4 * noiseWindows * l.span))
	sched.RunUntil(simtime.FromDuration(16 * noiseWindows * l.span))
	if verdicts == 0 {
		b.Fatal("the masked scaling drew no verdict")
	}
	verdicts, windows = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for windows < b.N || verdicts < 2 {
		sched.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(windows), "ns/window")
	b.ReportMetric(float64(verdicts)*1000/float64(windows), "verdicts/kwindow")
}

// The eager reference: the monitoring loop as the simulator ran it
// before windows were judged ahead — two re-armable timers per core, one
// per counter, and every window a firing that draws its noise, computes
// its count and judges it with the RateMonitor logic of the time. The
// window length and the ideal count come straight from the formulas
// (TimeOfReaching, elapsed seconds times rate) on every window. The
// timers are armed with SetFirst, INC's made first: at any instant the
// completions come before every other entry, INC before memory.

type eagerCore struct {
	sched    *sim.Scheduler
	rng      *sim.RNG
	tsc      *simtime.TSC
	core     simtime.Core
	incModel INCModel
	memModel MemModel
	incIndex int
	inc, mem eagerWindow

	// The monitor.
	ticks              uint64
	incTol, memTol     float64
	memEnabled         bool
	incState, memState baselineState
	onDiscrepancy      func(rel float64)
	onFreqChange       func(rel float64)

	counted func(counter string, count float64)
	aborted func(counter string, start simtime.Instant)
}

type eagerWindow struct {
	timer    sim.Timer
	done     func(count float64, interrupted bool)
	start    simtime.Instant
	endAt    simtime.Instant
	ticks    uint64
	target   uint64
	targetOK bool
}

func (w *eagerWindow) begin(c *eagerCore, ticks uint64, done func(float64, bool)) {
	w.done = done
	w.start = c.sched.Now()
	w.ticks = ticks
	w.targetOK = false
	w.endAt = c.tsc.TimeOfReaching(c.tsc.ReadAt(w.start)+ticks, w.start)
	w.timer.SetFirst(w.endAt)
}

func (w *eagerWindow) end(now simtime.Instant, rate, per float64) (func(float64, bool), float64) {
	done := w.done
	w.done = nil
	return done, now.Sub(w.start).Seconds() * rate / per
}

func (w *eagerWindow) abort(c *eagerCore, counter string) {
	if w.done == nil {
		return
	}
	done := w.done
	w.done = nil
	w.timer.Stop()
	c.aborted(counter, w.start)
	done(0, true)
}

// retarget moves the window's end to where the manipulation at at has
// put its tick target. A target the manipulation put the TSC at or past
// completes the window there and then, inside the manipulation.
func (w *eagerWindow) retarget(tsc *simtime.TSC, at simtime.Instant, finish func()) {
	if w.done == nil {
		return
	}
	if !w.targetOK {
		w.target = tsc.ReadPriorAt(w.start) + w.ticks
		w.targetOK = true
	}
	w.endAt = tsc.TimeOfReaching(w.target, at)
	if w.endAt == at {
		w.timer.Stop()
		finish()
		return
	}
	w.timer.SetFirst(w.endAt)
}

func newEagerCore(sched *sim.Scheduler, rng *sim.RNG, tsc *simtime.TSC, model INCModel, cfg MonitorConfig) *eagerCore {
	c := &eagerCore{
		sched: sched, rng: rng, tsc: tsc,
		core:     simtime.PaperCore(),
		incModel: model, memModel: PaperMemModel(),
		ticks: cfg.INCTicks, incTol: cfg.INCTol, memTol: cfg.MemTol, memEnabled: cfg.EnableMem,
		onDiscrepancy: cfg.OnDiscrepancy, onFreqChange: cfg.OnFreqChange,
	}
	if c.memTol <= 0 {
		c.memTol = 0.08
	}
	c.inc.timer = sched.NewTimer(c.finishINC)
	c.mem.timer = sched.NewTimer(c.finishMem)
	tsc.Observe(func(at simtime.Instant) {
		c.inc.retarget(c.tsc, at, c.finishINC)
		c.mem.retarget(c.tsc, at, c.finishMem)
	})
	return c
}

func (c *eagerCore) start() {
	c.nextINC()
	if c.memEnabled {
		c.nextMem()
	}
}

func (c *eagerCore) nextINC() {
	c.inc.begin(c, c.ticks, func(count float64, interrupted bool) {
		if !interrupted {
			c.onINC(count)
		}
		c.nextINC()
	})
}

func (c *eagerCore) nextMem() {
	c.mem.begin(c, c.ticks, func(count float64, interrupted bool) {
		if !interrupted {
			c.onMem(count)
		}
		c.nextMem()
	})
}

func (c *eagerCore) finishINC() {
	done, ideal := c.inc.end(c.sched.Now(), c.core.FreqHz, c.core.CyclesPerINC)
	m := c.incModel
	v := ideal + c.rng.Gaussian(0, m.NoiseSigma)
	if c.incIndex == 0 {
		v += m.WarmupOffset
	} else if m.OutlierProb > 0 && c.rng.Float64() < m.OutlierProb {
		v += m.OutlierOffset
	}
	if v < 0 {
		v = 0
	}
	c.incIndex++
	c.counted("inc", v)
	done(v, false)
}

func (c *eagerCore) finishMem() {
	done, ideal := c.mem.end(c.sched.Now(), c.memModel.AccessesPerSec, 1)
	v := ideal * (1 + c.rng.Gaussian(0, c.memModel.NoiseFrac))
	if v < 0 {
		v = 0
	}
	c.counted("mem", v)
	done(v, false)
}

func (c *eagerCore) onINC(count float64) {
	rel, ok := c.incState.observe(count)
	if !ok || !c.incState.strike(rel > c.incTol) {
		return
	}
	c.incState.reset()
	if !c.memEnabled {
		c.onDiscrepancy(rel)
		return
	}
	if c.onFreqChange != nil {
		c.onFreqChange(rel)
	}
}

func (c *eagerCore) onMem(count float64) {
	rel, ok := c.memState.observe(count)
	if !ok || !c.memState.strike(rel > c.memTol) {
		return
	}
	c.memState.reset()
	c.incState.reset()
	c.onDiscrepancy(rel)
}

func (c *eagerCore) fireAEX() {
	c.inc.abort(c, "inc")
	c.mem.abort(c, "mem")
}

func (c *eagerCore) reset() {
	c.incState.reset()
	c.memState.reset()
}

// The script both sides run. Its steps are worked out on the eager side
// and replayed on the lazy one, so the two schedulers hold the very same
// entries: the same instants, scheduled at the same instants, in the
// same order.

type scriptStep struct {
	action int     // what the step does (see act)
	arg    float64 // its parameter
	next   simtime.Instant
}

const (
	actAEX = iota
	actScale
	actJump
	actFreq
	actReset
	actCount
)

// oracleSide is one of the two worlds under comparison.
type oracleSide struct {
	sched *sim.Scheduler
	rng   *sim.RNG
	tsc   *simtime.TSC
	// effects logs script steps, verdicts and aborts in execution order;
	// counts logs every count with its instant.
	effects, counts []string
	// aex, freq and reset apply a script step to the side's monitor;
	// state reports what its judge has learnt.
	aex   func()
	freq  func(hz float64)
	reset func()
	state func() (inc, mem baselineState)
	// ties counts the ties the callbacks planned; commits, the script's
	// AEXs that committed more than one window of a quiet block at once.
	ties, commits int
}

func (s *oracleSide) logf(list *[]string, format string, args ...any) {
	logAt(list, s.sched.Now(), format, args...)
}

func logAt(list *[]string, at simtime.Instant, format string, args ...any) {
	*list = append(*list, fmt.Sprintf("%v: ", at)+fmt.Sprintf(format, args...))
}

func (s *oracleSide) act(st scriptStep) {
	s.logf(&s.effects, "step %d %v", st.action, st.arg)
	switch st.action {
	case actAEX:
		s.aex()
	case actScale:
		s.tsc.SetScale(st.arg, s.sched.Now())
	case actJump:
		s.tsc.Jump(int64(st.arg), s.sched.Now())
	case actFreq:
		s.freq(st.arg)
	case actReset:
		s.reset()
	}
	inc, mem := s.state()
	s.logf(&s.effects, "state %+v %+v", inc, mem)
}

// monitorConfig makes the callbacks log their verdicts and react as an
// engine does: a discrepancy resets the monitor at once. Every verdict
// also plans a reset or, every other time, an AEX at exactly the next
// window's end — a tie the rule decides: that window's completions
// come first.
func (s *oracleSide) monitorConfig(incTol float64, enableMem bool) MonitorConfig {
	cfg := MonitorConfig{INCTicks: 15e6, INCTol: incTol, EnableMem: enableMem}
	tie := func() {
		now := s.sched.Now()
		span := s.tsc.TimeOfReaching(s.tsc.ReadAt(now)+cfg.INCTicks, now).Sub(now)
		aex := s.ties%2 == 1
		s.ties++
		s.sched.At(now.Add(span), func() {
			if aex {
				s.logf(&s.effects, "tied AEX")
				s.aex()
				return
			}
			s.logf(&s.effects, "tied reset")
			s.reset()
		})
	}
	cfg.OnDiscrepancy = func(rel float64) {
		s.logf(&s.effects, "discrepancy %v", rel)
		s.reset()
		tie()
	}
	cfg.OnFreqChange = func(rel float64) {
		s.logf(&s.effects, "freq change %v", rel)
		tie()
	}
	return cfg
}

// oracleVariant is the INC noise model and tolerance a trial runs
// with, and how long it runs.
type oracleVariant struct {
	model  INCModel
	incTol float64
	runFor time.Duration
}

// paperVariant is the paper's model and the engine's 0.5 % tolerance:
// every window of a steady baseline is quiet by hundreds of sigmas.
func paperVariant(int64) oracleVariant {
	return oracleVariant{PaperINCModel(), 0.005, 3 * time.Second}
}

// tightVariant puts the INC tolerance at the outlier offset plus one to
// four sigmas of noise (by trial) at the paper's core frequency, and
// makes one window in ten an outlier. At that frequency the quiet bound
// is a few sigmas, so scans fall back mid-block, and outliers deviate
// or not by their Gaussian term; the script's DVFS steps move the
// tolerance to where every outlier deviates (2.8 GHz) or none does and
// every block is quiet (4.2 GHz). A quiet block needs 64 windows
// without a replan, which the script's gaps give rarely, so the trials
// run longer.
func tightVariant(trial int64) oracleVariant {
	m := PaperINCModel()
	m.OutlierProb = 0.1
	k := float64(1 + trial%4)
	return oracleVariant{m, (math.Abs(m.OutlierOffset) + k*m.NoiseSigma) / simtime.PaperINCPer15MTicks, 10 * time.Second}
}

// oracleRun runs one trial of the script on both sides and returns
// them, after the run, for comparison.
func oracleRun(trial int64, enableMem bool, v oracleVariant) (eager, lazy *oracleSide, eagerCore *eagerCore, lazyPlatform *SimPlatform) {
	newSide := func() *oracleSide {
		s := &oracleSide{sched: sim.NewScheduler(), rng: sim.NewRNG(uint64(trial)), tsc: simtime.NewTSC(simtime.NominalTSCHz, 7e9)}
		return s
	}

	// The eager side works the script out as it goes.
	eager = newSide()
	c := newEagerCore(eager.sched, eager.rng, eager.tsc, v.model, eager.monitorConfig(v.incTol, enableMem))
	c.counted = func(counter string, count float64) { eager.logf(&eager.counts, "%s %v", counter, count) }
	c.aborted = func(counter string, start simtime.Instant) {
		eager.logf(&eager.effects, "abort %s from %v", counter, start)
	}
	eager.aex, eager.freq, eager.reset = c.fireAEX, func(hz float64) { c.core.FreqHz = hz }, c.reset
	eager.state = func() (inc, mem baselineState) { return c.incState, c.memState }
	rnd := rand.New(rand.NewSource(trial))
	var script []scriptStep
	// aexRun counts down a run of AEXs many windows apart, which land
	// inside quiet blocks: an AEX replans nothing there.
	aexRun := 0
	var step func()
	step = func() {
		st := scriptStep{action: rnd.Intn(actCount)}
		if aexRun > 0 {
			st.action = actAEX
		}
		switch st.action {
		case actScale:
			st.arg = []float64{1, 0.8, 1.1, 1.25}[rnd.Intn(4)]
		case actJump:
			st.arg = float64(rnd.Intn(20e6) - 10e6)
		case actFreq:
			st.arg = []float64{2800e6, 3500e6, 4200e6}[rnd.Intn(3)]
		}
		eager.act(st)
		// The next step: at a random offset — now and then past the
		// windows drawn ahead, so that the loop's timer fires — or tied
		// with the end of the window in flight, or of the one after it.
		now := eager.sched.Now()
		span := eager.tsc.TimeOfReaching(eager.tsc.ReadAt(now)+c.ticks, now).Sub(now)
		if aexRun == 0 && rnd.Intn(8) == 0 {
			aexRun = 2 + rnd.Intn(6)
		}
		switch r := rnd.Intn(4); {
		case aexRun > 0:
			aexRun--
			st.next = now.Add(time.Duration(2+rnd.Intn(40))*span + time.Duration(rnd.Int63n(int64(span))))
		case r == 0:
			st.next = c.inc.endAt
		case r == 1 && c.inc.endAt > now:
			st.next = c.inc.endAt.Add(span)
		case r == 2 && rnd.Intn(2) == 0:
			st.next = now.Add(time.Duration(rnd.Intn(800e6)))
		default:
			st.next = now.Add(time.Duration(rnd.Intn(40e6)))
		}
		script = append(script, st)
		eager.sched.At(st.next, step)
	}
	eager.sched.At(simtime.FromDuration(3*time.Millisecond), step)
	c.start()
	eager.sched.RunUntil(simtime.FromDuration(v.runFor))

	// The lazy side replays it.
	lazy = newSide()
	net := simnet.New(lazy.sched, sim.NewRNG(0), simnet.Link{Base: time.Millisecond})
	p := NewSimPlatform(lazy.sched, lazy.rng, net, SimConfig{Addr: 1, TSC: lazy.tsc, INCModel: v.model})
	m := NewRateMonitor(p, lazy.monitorConfig(v.incTol, enableMem))
	onPass(p, func(end simtime.Instant, inc, mem float64) {
		logAt(&lazy.counts, end, "inc %v", inc)
		if enableMem {
			logAt(&lazy.counts, end, "mem %v", mem)
		}
	})
	lazy.aex = func() {
		l := &p.mon
		next, quiet := l.next, l.quiet
		p.touchMonitor()
		if quiet && l.next-next > 1 {
			lazy.commits++
		}
		lazy.logf(&lazy.effects, "abort inc from %v", l.start)
		if enableMem {
			lazy.logf(&lazy.effects, "abort mem from %v", p.mon.start)
		}
		p.FireAEX()
	}
	lazy.freq, lazy.reset = p.SetCoreFreqHz, m.Reset
	lazy.state = func() (inc, mem baselineState) {
		p.touchMonitor()
		return m.state.inc, m.state.mem
	}
	i := 0
	var replay func()
	replay = func() {
		st := script[i]
		i++
		lazy.act(st)
		lazy.sched.At(st.next, replay)
	}
	lazy.sched.At(simtime.FromDuration(3*time.Millisecond), replay)
	m.Start()
	lazy.sched.RunUntil(simtime.FromDuration(v.runFor))
	p.touchMonitor()
	return eager, lazy, c, p
}

// TestLazyWindowsMatchEagerOracle runs seeded random scripts of AEXs,
// TSC jumps and rescales, core-frequency changes and monitor resets —
// many of them due at exactly a window's end, scheduled before or after
// the window began — against the monitoring loop and against the eager
// reference above, and requires the same counts in the same order, the
// same verdicts at the same instants and in the same place among the
// script's steps, the same aborted windows, the same learnt baselines
// after every step, and the RNG left where the eager side left it. Both
// sides follow the one rule — window completions first at an instant —
// so a script step or a callback's entry tied with a window's end comes
// after that window's completions. Its callbacks plan resets and AEXs
// tied with the next window's end, and its runs of AEXs many windows
// apart commit quiet blocks' windows in one step. It
// runs at the paper's tolerance, where steady blocks are quiet, and at
// a tight one (tightVariant), where scans fall back and outliers
// deviate; quiet blocks and one-step commits must be taken in both,
// and scans must fall back in the tight.
func TestLazyWindowsMatchEagerOracle(t *testing.T) {
	for _, tc := range []struct {
		name    string
		variant func(trial int64) oracleVariant
	}{{"paper", paperVariant}, {"tight", tightVariant}} {
		t.Run(tc.name, func(t *testing.T) {
			quiet, fallbacks, commits := 0, 0, 0
			for _, enableMem := range []bool{false, true} {
				for trial := int64(1); trial <= 12; trial++ {
					p, lazy := checkOracle(t, fmt.Sprintf("mem=%v trial %d", enableMem, trial), trial, enableMem, tc.variant(trial))
					quiet += p.mon.quietBlocks
					fallbacks += p.mon.fallbacks
					commits += lazy.commits
				}
			}
			t.Logf("%d quiet blocks, %d scans fell back, %d AEXs committed quiet windows in one step", quiet, fallbacks, commits)
			if quiet == 0 {
				t.Error("no block was planned quiet")
			}
			if commits == 0 {
				t.Error("no AEX committed a quiet block's windows in one step")
			}
			if tc.name == "tight" && fallbacks == 0 {
				t.Error("no scan fell back")
			}
		})
	}
}

// checkOracle runs one oracle trial and compares its two sides.
func checkOracle(t *testing.T, name string, trial int64, enableMem bool, v oracleVariant) (*SimPlatform, *oracleSide) {
	t.Helper()
	eager, lazy, c, p := oracleRun(trial, enableMem, v)
	if len(eager.counts) < 200 {
		t.Fatalf("%s: only %d counts", name, len(eager.counts))
	}
	compareLogs(t, name+" counts", eager.counts, lazy.counts)
	compareLogs(t, name+" effects", eager.effects, lazy.effects)
	// The noise the lazy side drew ahead is what the eager RNG draws
	// next.
	if p.mon.quiet {
		p.redrawBlock()
	}
	for j := p.mon.next; j < p.mon.drawn; j++ {
		w := p.mon.noise[j]
		inc := c.rng.Gaussian(0, c.incModel.NoiseSigma)
		off := 0.0
		if c.incModel.OutlierProb > 0 && c.rng.Float64() < c.incModel.OutlierProb {
			off = c.incModel.OutlierOffset
		}
		mem := 0.0
		if enableMem {
			mem = c.rng.Gaussian(0, c.memModel.NoiseFrac)
		}
		if want := (windowNoise{inc, off, mem}); w != want {
			t.Fatalf("%s: noise drawn ahead %d is %+v, the eager RNG draws %+v", name, j-p.mon.next, w, want)
		}
	}
	if eager.rng.Uint64() != lazy.rng.Uint64() {
		t.Fatalf("%s: the RNG streams part after the run", name)
	}
	return p, lazy
}

func compareLogs(t *testing.T, name string, want, got []string) {
	t.Helper()
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("%s: entry %d of %d/%d: eager %q, lazy %q", name, i, len(want), len(got), w, g)
		}
	}
}

// TestLazyWindowsOrderFormerTies runs the ties the monitoring loop once
// could not order, or ordered between a window's two completions, and
// requires the order of the rule — at an instant, window completions
// first, INC before memory, platforms in the order their loops started:
// an AEX due at the end of a window no firing judged, scheduled at that
// window's start, sees the window judged; two loops with aligned
// windows call back at one window end, the first started first; and a
// TSC manipulation a memory verdict's callback plans for the next
// window's end comes after that window's completions. A tie with a
// timer that calls nobody back is ordered too.
func TestLazyWindowsOrderFormerTies(t *testing.T) {
	t.Run("unranked", func(t *testing.T) {
		sched, ps := monitoredCores(1, false)
		p := ps[0]
		var judged []simtime.Instant
		onPass(p, func(end simtime.Instant, _, _ float64) { judged = append(judged, end) })
		span := p.mon.span
		end := p.mon.end.Add(3 * span) // a quiet window's end
		// An entry fires there after the window's completion, which is
		// no touch point, and schedules an AEX at the next window's end.
		sawJudged := false
		sched.At(simtime.FromDuration(time.Millisecond), func() {
			sched.At(end, func() {
				sched.At(end.Add(span), func() {
					p.touchMonitor()
					sawJudged = len(judged) > 0 && judged[len(judged)-1] == end.Add(span)
					p.FireAEX()
				})
			})
		})
		sched.RunUntil(end.Add(2 * span))
		if !sawJudged {
			t.Errorf("the AEX at %v did not see the window ending there judged", end.Add(span))
		}
	})
	// alignedVerdicts runs two loops whose windows start together and
	// changes the core frequency of the chosen ones inside the 63rd
	// window, so that it and the 64th deviate: a verdict at the end of
	// the 64th, where a quiet loop's first timer is due. It returns the
	// loops that called back, in order, and a run up to two windows past
	// that end.
	alignedVerdicts := func(t *testing.T, change ...int) (*[]int, func()) {
		sched, ps := monitoredCores(2, false)
		span := ps[0].mon.span
		if ps[1].mon.span != span || ps[1].mon.end != ps[0].mon.end {
			t.Fatal("the two loops' windows are not aligned")
		}
		end := ps[0].mon.end.Add((noiseWindows - 1) * span)
		if at, _ := sched.NextAt(); at != end {
			t.Fatalf("the first firing is at %v, want the quiet timers at the 64th window's end %v", at, end)
		}
		var called []int
		for i, p := range ps {
			i := i
			p.mon.m.onDiscrepancy = func(float64) {
				if now := sched.Now(); now != end {
					t.Errorf("loop %d called back at %v, want %v", i, now, end)
				}
				called = append(called, i)
			}
		}
		for _, i := range change {
			p := ps[i]
			sched.At(end.Add(-3*span/2), func() { p.SetCoreFreqHz(1.01 * simtime.PaperCoreHz) })
		}
		return &called, func() { sched.RunUntil(end.Add(2 * span)) }
	}
	t.Run("quiet timer", func(t *testing.T) {
		called, run := alignedVerdicts(t, 1)
		run()
		if fmt.Sprint(*called) != "[1]" {
			t.Errorf("loops %v called back, want [1]", *called)
		}
	})
	t.Run("two verdicts", func(t *testing.T) {
		called, run := alignedVerdicts(t, 1, 0)
		run()
		if fmt.Sprint(*called) != "[0 1]" {
			t.Errorf("loops %v called back, want [0 1]: the first started first", *called)
		}
	})
	t.Run("manipulation between", func(t *testing.T) {
		sched, ps := monitoredCores(1, true)
		p := ps[0]
		judged := map[simtime.Instant]bool{}
		onPass(p, func(end simtime.Instant, _, _ float64) { judged[end] = true })
		// A memory verdict's callback rescales the TSC back at the next
		// window's end. Had the rescale come first, it would have moved
		// that end later; it comes after both completions, so the window
		// ends there, whole.
		var ats []simtime.Instant
		p.mon.m.onDiscrepancy = func(float64) {
			at := sched.Now().Add(p.mon.span)
			ats = append(ats, at)
			sched.At(at, func() { p.TSC().SetScale(1, sched.Now()) })
		}
		sched.RunUntil(simtime.FromSeconds(1))
		p.TSC().SetScale(1.25, sched.Now())
		sched.RunUntil(simtime.FromSeconds(2))
		if len(ats) == 0 {
			t.Fatal("the rescale drew no memory verdict")
		}
		for _, at := range ats {
			if !judged[at] {
				t.Errorf("no window ended at the rescale at %v", at)
			}
		}
	})
}

// TestMonitorTimerFiresRarely: a quiet monitoring loop fires its timer
// once per noiseWindows windows, not once per window.
func TestMonitorTimerFiresRarely(t *testing.T) {
	sched, ps := monitoredCores(1, true)
	steps := 0
	for sched.Now() < simtime.FromSeconds(10) && sched.Step() {
		steps++
	}
	windows := int(simtime.FromSeconds(10).Sub(simtime.Epoch) / ps[0].mon.span)
	if max := windows/noiseWindows + 2; steps > max {
		t.Errorf("%d firings for %d windows, want at most %d", steps, windows, max)
	}
	if math.IsNaN(ps[0].mon.m.state.inc.baseline) || ps[0].mon.m.state.inc.baseline == 0 {
		t.Error("no baseline learnt")
	}
}
