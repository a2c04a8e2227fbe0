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
	// drewINC records that the core's first INC measurement, the warm-up
	// one, has had its noise drawn.
	drewINC bool

	aexHandler func()
	msgHandler func(from simnet.Addr, payload []byte)

	// mon is the monitoring thread, once a monitor runs on it.
	mon monitorLoop

	// AEX bookkeeping for Figure 1's CDFs and Figure 6b's counts.
	aexCount  int
	lastAEXAt simtime.Instant
	sawAEX    bool
	gaps      []time.Duration
	recordGap bool
}

var _ Platform = (*SimPlatform)(nil)

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
	net.Register(cfg.Addr, func(pkt simnet.Packet) {
		if p.msgHandler != nil {
			p.msgHandler(pkt.From, pkt.Payload)
		}
	})
	// Mid-window TSC manipulation moves the instant the window in
	// flight reaches its tick target.
	cfg.TSC.Observe(p.onTSCManipulated)
	return p
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

// SetCoreFreqHz models the attacker (who owns the OS frequency
// governor) switching the monitoring core to another DVFS operating
// point. Intel exposes only discrete pre-determined frequencies; the
// experiments respect that by picking from a plausible grid.
func (p *SimPlatform) SetCoreFreqHz(hz float64) {
	if hz <= 0 {
		panic("enclave: non-positive core frequency")
	}
	p.touchMonitor()
	p.core.FreqHz = hz
	p.replanMonitor()
}

// CoreFreqHz reports the monitoring core's current frequency.
func (p *SimPlatform) CoreFreqHz() float64 { return p.core.FreqHz }

// FireAEX delivers an Asynchronous Enclave Exit to this enclave's
// monitoring core: interrupt injectors and machine-wide OS interrupt
// processes call this. It records the inter-AEX gap, discards the
// monitoring window in flight and starts the next, and then invokes the
// AEX-Notify handler.
func (p *SimPlatform) FireAEX() {
	now := p.sched.Now()
	p.aexCount++
	if p.sawAEX && p.recordGap {
		p.gaps = append(p.gaps, now.Sub(p.lastAEXAt))
	}
	p.sawAEX = true
	p.lastAEXAt = now

	p.restartMonitor()
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
