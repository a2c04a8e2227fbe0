package enclave

import (
	"time"

	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
)

// SimPlatform is the discrete-event-simulation implementation of
// Platform: one enclave (one Triad node) on one monitoring core of the
// simulated machine.
type SimPlatform struct {
	sched *sim.Scheduler
	rng   *sim.RNG
	net   *simnet.Network
	addr  simnet.Addr

	tsc      *simtime.TSC
	core     simtime.Core
	bootHz   float64
	incModel INCModel
	memModel MemModel
	incIndex int

	aexHandler func()
	msgHandler func(from simnet.Addr, payload []byte)

	// The monitoring thread's two measurement loops.
	inc, mem window

	// AEX bookkeeping for Figure 1's CDFs and Figure 6b's counts.
	aexCount  int
	lastAEXAt simtime.Instant
	sawAEX    bool
	gaps      []time.Duration
	recordGap bool
}

var _ Platform = (*SimPlatform)(nil)

// window is one of the monitoring thread's measurement loops: INC
// counting or memory-access counting. A measurement runs until the guest
// TSC reaches an absolute target, so mid-window manipulation (a jump or
// rescale) moves its completion time — exactly how the real monitoring
// loop reacts. One re-armable timer carries every window of the run.
//
// Back-to-back windows repeat two pure computations, which the window
// memoises. Each memo holds the last key and the value the un-memoised
// formula gave for it, and a different key goes back to the formula, so
// a hit returns the very float a recomputation would.
type window struct {
	timer sim.Timer
	done  func(count float64, interrupted bool) // nil when none is in flight
	start simtime.Instant
	ticks uint64
	// target is the guest TSC value that ends the measurement: the value
	// at start plus ticks. Only a manipulation makes it matter, so it is
	// worked out when the first one lands (targetOK).
	target   uint64
	targetOK bool

	// Length memo. At start the target is exactly ticks away, so
	// TimeOfReaching puts it ticks / (scale * hostHz) later: a function
	// of ticks and of the TSC's guest view, which is fixed for a
	// generation.
	spanOK    bool
	spanTicks uint64
	spanGen   uint64
	span      time.Duration

	// Ideal-count memo: elapsed seconds * rate / per.
	idealOK      bool
	idealElapsed time.Duration
	idealRate    float64
	idealPer     float64
	ideal        float64
}

// begin starts a measurement of ticks guest ticks.
//
//triad:hotpath
func (w *window) begin(p *SimPlatform, ticks uint64, done func(count float64, interrupted bool)) {
	w.done = done
	w.start = p.sched.Now()
	w.ticks = ticks
	w.targetOK = false
	if gen := p.tsc.Generation(); !w.spanOK || w.spanTicks != ticks || w.spanGen != gen {
		w.span = p.tsc.TimeOfReaching(p.ReadTSC()+ticks, w.start).Sub(w.start)
		w.spanOK, w.spanTicks, w.spanGen = true, ticks, gen
	}
	w.timer.Set(w.start.Add(w.span))
}

// end closes the measurement whose timer just fired and returns its
// completion callback with the noise-free count of a loop executing
// rate/per iterations per second of the real time the window spanned.
//
//triad:hotpath
func (w *window) end(now simtime.Instant, rate, per float64) (done func(count float64, interrupted bool), ideal float64) {
	done, w.done = w.done, nil
	elapsed := now.Sub(w.start)
	if !w.idealOK || w.idealElapsed != elapsed || w.idealRate != rate || w.idealPer != per {
		w.ideal = elapsed.Seconds() * rate / per
		w.idealOK, w.idealElapsed, w.idealRate, w.idealPer = true, elapsed, rate, per
	}
	return done, w.ideal
}

// abort interrupts the measurement in flight, if any.
func (w *window) abort() {
	if w.done == nil {
		return
	}
	done := w.done
	w.done = nil
	w.timer.Stop()
	done(0, true)
}

// retarget moves the completion of the measurement in flight, if any,
// to where a manipulation at the given instant has put its tick target.
// It runs after every manipulation, so a target not yet worked out is
// the view the latest one replaced, read at start, plus ticks.
func (w *window) retarget(tsc *simtime.TSC, at simtime.Instant) {
	if w.done == nil {
		return
	}
	if !w.targetOK {
		w.target = tsc.ReadPriorAt(w.start) + w.ticks
		w.targetOK = true
	}
	w.timer.Set(tsc.TimeOfReaching(w.target, at))
}

// SimConfig configures a simulated enclave.
type SimConfig struct {
	// Addr is the node's network address (also its wire sender ID).
	Addr simnet.Addr
	// TSC is the node's monitoring-core TimeStamp Counter, including any
	// hypervisor manipulation state. Required.
	TSC *simtime.TSC
	// Core is the monitoring core's execution model. Zero value gets
	// the paper's core (3500 MHz, measured cycles/INC).
	Core simtime.Core
	// BootTSCHz is the OS boot-time TSC frequency hint. Zero defaults
	// to the TSC's true host rate (an honest OS measurement).
	BootTSCHz float64
	// INCModel is the INC measurement noise model. Zero value gets the
	// paper's model.
	INCModel INCModel
	// MemModel is the memory-access monitoring model. Zero value gets
	// the paper-style model.
	MemModel MemModel
	// RecordAEXGaps enables inter-AEX gap recording (Figure 1).
	RecordAEXGaps bool
}

// NewSimPlatform creates a simulated enclave platform and registers it
// on the network.
func NewSimPlatform(sched *sim.Scheduler, rng *sim.RNG, net *simnet.Network, cfg SimConfig) *SimPlatform {
	if cfg.TSC == nil {
		panic("enclave: SimConfig.TSC is required")
	}
	core := cfg.Core
	if core.FreqHz == 0 {
		core = simtime.PaperCore()
	}
	if core.CyclesPerINC <= 0 {
		core.CyclesPerINC = 1
	}
	incModel := cfg.INCModel
	if incModel == (INCModel{}) {
		incModel = PaperINCModel()
	}
	memModel := cfg.MemModel
	if memModel == (MemModel{}) {
		memModel = PaperMemModel()
	}
	bootHz := cfg.BootTSCHz
	if bootHz == 0 {
		bootHz = cfg.TSC.HostHz()
	}
	p := &SimPlatform{
		sched:     sched,
		rng:       rng,
		net:       net,
		addr:      cfg.Addr,
		tsc:       cfg.TSC,
		core:      core,
		bootHz:    bootHz,
		incModel:  incModel,
		memModel:  memModel,
		recordGap: cfg.RecordAEXGaps,
	}
	p.inc.timer = sched.NewTimer(p.finishINC)
	p.mem.timer = sched.NewTimer(p.finishMem)
	net.Register(cfg.Addr, func(pkt simnet.Packet) {
		if p.msgHandler != nil {
			p.msgHandler(pkt.From, pkt.Payload)
		}
	})
	// Mid-window TSC manipulation moves the instant an in-flight
	// measurement's tick target is reached.
	cfg.TSC.Observe(p.onTSCManipulated)
	return p
}

// onTSCManipulated reschedules in-flight measurement completions after
// a guest-TSC jump or rescale.
func (p *SimPlatform) onTSCManipulated(at simtime.Instant) {
	p.inc.retarget(p.tsc, at)
	p.mem.retarget(p.tsc, at)
}

// Addr reports the platform's network address.
func (p *SimPlatform) Addr() simnet.Addr { return p.addr }

// TSC exposes the underlying TSC model (for attacker manipulation and
// experiment instrumentation; node logic never touches this).
func (p *SimPlatform) TSC() *simtime.TSC { return p.tsc }

// ReadTSC returns the guest-visible TSC now.
func (p *SimPlatform) ReadTSC() uint64 { return p.tsc.ReadAt(p.sched.Now()) }

// BootTSCHz returns the OS boot-time frequency hint.
func (p *SimPlatform) BootTSCHz() float64 { return p.bootHz }

// Send transmits a datagram on the simulated network.
func (p *SimPlatform) Send(to simnet.Addr, payload []byte) {
	p.net.Send(p.addr, to, payload)
}

// AfterTicks schedules fn once the guest TSC has advanced by ticks.
// The firing instant is computed against the current guest rate; a
// hypervisor rescaling the TSC mid-wait shifts a real enclave's spin
// deadline the same way.
func (p *SimPlatform) AfterTicks(ticks uint64, fn func()) CancelFunc {
	at := p.tsc.TimeOfTicksAfter(p.sched.Now(), ticks)
	ev := p.sched.At(at, fn)
	return func() { p.sched.Cancel(ev) }
}

// SetAEXHandler registers the AEX-Notify callback.
func (p *SimPlatform) SetAEXHandler(fn func()) { p.aexHandler = fn }

// SetMessageHandler registers the datagram delivery callback.
func (p *SimPlatform) SetMessageHandler(fn func(from simnet.Addr, payload []byte)) {
	p.msgHandler = fn
}

// StartINCCheck runs one monitoring-loop measurement: count iterations
// until the guest TSC advances by ticks. An AEX during the window
// aborts it with interrupted=true (the count is then meaningless and
// reported as 0). The executed iteration count reflects the *real*
// time the window spans, which is what makes the loop a detector: any
// manipulation that bends guest-ticks-per-real-second shifts the count.
//
//triad:hotpath
func (p *SimPlatform) StartINCCheck(ticks uint64, done func(count float64, interrupted bool)) {
	if p.inc.done != nil {
		panic("enclave: overlapping INC measurements on one monitoring thread")
	}
	p.inc.begin(p, ticks, done)
}

//triad:hotpath
func (p *SimPlatform) finishINC() {
	done, ideal := p.inc.end(p.sched.Now(), p.core.FreqHz, p.core.CyclesPerINC)
	count := p.incModel.sample(ideal, p.incIndex, p.rng)
	p.incIndex++
	done(count, false)
}

// StartMemCheck runs one memory-access measurement over ticks guest
// ticks. Its count depends on the memory subsystem's rate and the real
// time the window spans — but not the core frequency, which is what
// lets it catch TSC-scaling masked by a matching DVFS change.
//
//triad:hotpath
func (p *SimPlatform) StartMemCheck(ticks uint64, done func(count float64, interrupted bool)) {
	if p.mem.done != nil {
		panic("enclave: overlapping memory measurements on one monitoring thread")
	}
	p.mem.begin(p, ticks, done)
}

//triad:hotpath
func (p *SimPlatform) finishMem() {
	// Dividing by one is exact, so this is elapsed * AccessesPerSec.
	done, ideal := p.mem.end(p.sched.Now(), p.memModel.AccessesPerSec, 1)
	done(p.memModel.sampleMem(ideal, p.rng), false)
}

// SetCoreFreqHz models the attacker (who owns the OS frequency
// governor) switching the monitoring core to another DVFS operating
// point. Intel exposes only discrete pre-determined frequencies; the
// experiments respect that by picking from a plausible grid.
func (p *SimPlatform) SetCoreFreqHz(hz float64) {
	if hz <= 0 {
		panic("enclave: non-positive core frequency")
	}
	p.core.FreqHz = hz
}

// CoreFreqHz reports the monitoring core's current frequency.
func (p *SimPlatform) CoreFreqHz() float64 { return p.core.FreqHz }

// FireAEX delivers an Asynchronous Enclave Exit to this enclave's
// monitoring core: interrupt injectors and machine-wide OS interrupt
// processes call this. It aborts any in-flight INC or memory
// measurement, records the inter-AEX gap, and then invokes the
// AEX-Notify handler.
func (p *SimPlatform) FireAEX() {
	now := p.sched.Now()
	p.aexCount++
	if p.sawAEX && p.recordGap {
		p.gaps = append(p.gaps, now.Sub(p.lastAEXAt))
	}
	p.sawAEX = true
	p.lastAEXAt = now

	p.inc.abort()
	p.mem.abort()
	if p.aexHandler != nil {
		p.aexHandler()
	}
}

// AEXCount reports the number of AEXs delivered so far (Figure 6b).
func (p *SimPlatform) AEXCount() int { return p.aexCount }

// AEXGaps returns the recorded inter-AEX gaps (Figure 1). The slice is
// a copy.
func (p *SimPlatform) AEXGaps() []time.Duration {
	cp := make([]time.Duration, len(p.gaps))
	copy(cp, p.gaps)
	return cp
}
