package core

import (
	"time"

	"triadtime/internal/engine"
	"triadtime/internal/simnet"
	"triadtime/internal/stats"
)

// maxOWDNanos caps the one-way-delay estimate extracted from the
// calibration intercept; larger values are treated as noise.
const maxOWDNanos = 10 * int64(time.Millisecond)

// policy is the original protocol's behaviour bundle: the
// sleep-roundtrip regression calibration and the peers-then-authority
// recovery ladder. It implements engine.CalibrationPolicy and
// engine.RecoveryPolicy; the peer decision is the engine's
// first-response AdoptIfAhead filter.
type policy struct {
	cfg Config

	calib    *calibRun
	owdNanos int64 // one-way TA delay estimate from calibration

	ref *engine.Round // pending reference calibration exchange
}

// calibRun tracks one full calibration: repeated TA roundtrips with
// requested sleeps, each bounded by uninterrupted execution (no AEX
// between request send and response receipt), then a regression of TSC
// increments on requested sleeps whose slope is F_calib.
type calibRun struct {
	samples  []stats.Sample
	perSleep map[time.Duration]int

	pending *engine.Round // the sample in flight

	// last anchors the time reference once the regression completes.
	last engine.Reading
}

// askTA begins a one-authority exchange with the Time Authority.
func (p *policy) askTA(e *engine.Engine, sleep time.Duration, done func(*engine.Round)) *engine.Round {
	return e.BeginRound([]simnet.Addr{e.Authority()}, sleep, sleep+e.TATimeout(), done)
}

// Start begins (or restarts) a full speed + reference calibration with
// the Time Authority.
func (p *policy) Start(e *engine.Engine) {
	e.CancelGather()
	p.ref.Cancel()
	p.calib = &calibRun{perSleep: make(map[time.Duration]int, len(p.cfg.CalibSleeps))}
	p.sendNextCalibSample(e)
}

// OnAEX abandons an in-flight calibration sample: it is no longer
// bounded by uninterrupted execution, so retry immediately rather than
// waiting out a wasted roundtrip.
func (p *policy) OnAEX(e *engine.Engine) {
	if p.calib != nil {
		p.calib.pending.Cancel()
		p.sendNextCalibSample(e)
	}
}

// nextCalibSleep picks the sleep value with the fewest collected
// samples, so collection interleaves sleeps and finishes them together.
func (p *policy) nextCalibSleep() (time.Duration, bool) {
	var best time.Duration
	bestCount := p.cfg.CalibSamplesPerSleep
	found := false
	for _, s := range p.cfg.CalibSleeps {
		if c := p.calib.perSleep[s]; c < bestCount {
			bestCount = c
			best = s
			found = true
		}
	}
	return best, found
}

// sendNextCalibSample issues the next calibration roundtrip.
func (p *policy) sendNextCalibSample(e *engine.Engine) {
	sleep, ok := p.nextCalibSleep()
	if !ok {
		p.finishCalibration(e)
		return
	}
	p.calib.pending = p.askTA(e, sleep, func(r *engine.Round) { p.onCalibSample(e, sleep, r) })
}

// onCalibSample handles the outcome of one calibration roundtrip. A
// lost or over-delayed response is retried with a fresh request, and so
// is a sample whose window was severed by an AEX: the attacker could
// have manipulated the TSC during the exit.
func (p *policy) onCalibSample(e *engine.Engine, sleep time.Duration, r *engine.Round) {
	rd, ok := r.First()
	if ok && !r.Severed() {
		c := p.calib
		c.samples = append(c.samples, stats.Sample{
			X: sleep.Seconds(),
			Y: float64(rd.RTTTicks()),
		})
		c.perSleep[sleep]++
		c.last = rd
	}
	p.sendNextCalibSample(e)
}

// finishCalibration regresses the collected samples and installs the new
// clock: F_calib from the slope, the one-way-delay estimate from the
// intercept, and the time reference from the most recent TA response.
func (p *policy) finishCalibration(e *engine.Engine) {
	c := p.calib
	var fit stats.Fit
	var err error
	switch p.cfg.Regression {
	case RegressionTheilSen:
		fit, err = stats.TheilSen(c.samples)
	default:
		fit, err = stats.OLS(c.samples)
	}
	if err != nil || fit.Slope <= 0 {
		// Degenerate measurements (e.g. all roundtrips interrupted in
		// pathological schedules): start over.
		p.Start(e)
		return
	}
	owd := int64(fit.Intercept / fit.Slope / 2 * 1e9)
	if owd < 0 {
		owd = 0
	}
	if owd > maxOWDNanos {
		owd = maxOWDNanos
	}
	p.owdNanos = owd

	// Anchor the reference on the last TA response: the TA read its
	// clock when sending, one network traversal before our receive.
	p.calib = nil
	e.CompleteCalibration(fit.Slope, c.last.TimeNanos+p.owdNanos, c.last.RecvTSC)
}

// OnStart: the original protocol has no steady-state self-checking to
// arm.
func (p *policy) OnStart(*engine.Engine) {}

// OnTaint starts the recovery ladder after an AEX: peers first, the
// Time Authority only if no peer answers (paper §III-B).
func (p *policy) OnTaint(e *engine.Engine) {
	e.SetState(StateTainted)
	e.BeginPeerGather()
}

// StartRefCalib re-acquires only the time reference from the TA (the
// peer untaint path failed), with a sleep-0 request: immediate
// response, minimal offset error. Retries on timeout until a response
// lands.
func (p *policy) StartRefCalib(e *engine.Engine) {
	e.SetState(StateRefCalib)
	p.ref = p.askTA(e, 0, func(r *engine.Round) {
		rd, ok := r.First()
		if !ok {
			p.StartRefCalib(e)
			return
		}
		e.AdoptTAReference(rd.TimeNanos+p.owdNanos, rd.RecvTSC)
	})
}

// Cancel clears any pending peer-untaint or ref-calib exchange (used
// when escalating to a full calibration).
func (p *policy) Cancel(e *engine.Engine) {
	e.CancelGather()
	p.ref.Cancel()
}
