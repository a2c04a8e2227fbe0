package resilient

import (
	"triadtime/internal/core"
	"triadtime/internal/enclave"
	"triadtime/internal/engine"
	"triadtime/internal/simnet"
)

// policy is the hardened protocol's behaviour bundle: windowed
// sleep-free calibration, RTT-bounded reference calibration, the
// Marzullo gather (via marzulloFilter), the in-TCB refresh deadline
// with its probes, and true-chimer gossip bookkeeping. It implements
// engine.CalibrationPolicy and engine.RecoveryPolicy.
type policy struct {
	cfg Config

	calib *calibState

	ref *engine.Round // pending reference calibration exchange

	deadlineCancel enclave.CancelFunc
	probe          *probeState

	gossip gossipView
}

// calibState tracks one windowed rate calibration: exchange A, a long
// TSC wait, exchange B. Rate = elapsed ticks / elapsed TA time. All
// exchanges are sleep-free and roundtrip-bounded, leaving no timing
// class for an F+/F- attacker to target and at most 2*RTTBound/window
// of rate influence.
type calibState struct {
	windowSec float64 // current (possibly halved) window

	pending *engine.Round // the exchange in flight

	// First exchange's reading, once taken.
	haveFirst bool
	first     engine.Reading
	waitTimer enclave.CancelFunc
}

// askTA begins one sleep-free exchange with the Time Authority.
func (p *policy) askTA(e *engine.Engine, done func(*engine.Round)) *engine.Round {
	return e.BeginRound([]simnet.Addr{e.Authority()}, 0, e.TATimeout(), done)
}

// overBound reports (and counts) a roundtrip longer than RTTBound: the
// reading is over-delayed, possibly attacker-held, and unusable.
func (p *policy) overBound(e *engine.Engine, rd engine.Reading) bool {
	if rd.RTTTicks() <= e.TicksFor(p.cfg.RTTBound) {
		return false
	}
	e.Counters().RTTRejections++
	return true
}

// Start begins a windowed rate + reference calibration.
func (p *policy) Start(e *engine.Engine) {
	e.CancelGather()
	p.ref.Cancel()
	p.calib = &calibState{windowSec: p.cfg.CalibWindow.Seconds()}
	p.sendCalibExchange(e)
}

// OnAEX aborts the calibration window in flight: cancel everything,
// halve the window (AEXs are arriving faster than the window, adaptive
// per §V) and restart from exchange A.
func (p *policy) OnAEX(e *engine.Engine) {
	c := p.calib
	if c == nil {
		return
	}
	c.pending.Cancel()
	if c.waitTimer != nil {
		c.waitTimer()
		c.waitTimer = nil
	}
	c.haveFirst = false
	c.windowSec /= 2
	if min := p.cfg.MinCalibWindow.Seconds(); c.windowSec < min {
		c.windowSec = min
	}
	p.sendCalibExchange(e)
}

// sendCalibExchange issues one sleep-free TA exchange (A or B according
// to calib.haveFirst).
func (p *policy) sendCalibExchange(e *engine.Engine) {
	p.calib.pending = p.askTA(e, func(r *engine.Round) { p.onCalibExchange(e, r) })
}

// onCalibExchange validates one exchange and advances the window state
// machine.
func (p *policy) onCalibExchange(e *engine.Engine, r *engine.Round) {
	c := p.calib
	rd, ok := r.First()
	if !ok || p.overBound(e, rd) || r.Severed() {
		// Lost, over-delayed or interrupted: retry this exchange; a
		// severed window is handled by OnAEX.
		p.sendCalibExchange(e)
		return
	}
	if !c.haveFirst {
		c.haveFirst = true
		c.first = rd
		c.waitTimer = e.Platform().AfterTicks(e.TicksForSeconds(c.windowSec), func() {
			c.waitTimer = nil
			p.sendCalibExchange(e)
		})
		return
	}
	dt := float64(rd.TimeNanos-c.first.TimeNanos) / 1e9
	dticks := rd.MidTSC() - c.first.MidTSC()
	if dt <= 0 || dticks <= 0 {
		// TA clock anomaly or TSC went backwards: restart outright.
		p.Start(e)
		return
	}
	p.calib = nil
	e.CompleteCalibration(dticks/dt, rd.TimeNanos, uint64(rd.MidTSC()))
}

// StartRefCalib re-anchors the reference from a single bounded TA
// exchange, retried until one lands inside the bound (a visible retry
// instead of a silent offset error).
func (p *policy) StartRefCalib(e *engine.Engine) {
	e.SetState(core.StateRefCalib)
	p.ref = p.askTA(e, func(r *engine.Round) {
		rd, ok := r.First()
		if !ok || p.overBound(e, rd) {
			p.StartRefCalib(e)
			return
		}
		e.AdoptTAReference(rd.TimeNanos, uint64(rd.MidTSC()))
	})
}

// Cancel clears pending probe/gather/refcalib machinery (used when
// escalating to a full calibration after a monitor discrepancy).
func (p *policy) Cancel(e *engine.Engine) {
	p.cancelProbe()
	e.CancelGather()
	p.ref.Cancel()
}
