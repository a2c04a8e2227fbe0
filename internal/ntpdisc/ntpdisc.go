// Package ntpdisc implements an NTP-style clock discipline loop: the
// "mature synchronization protocol" the paper's Section V recommends
// over Triad's short-window calibration, and the yardstick its §IV-A.2
// drift discussion quotes (standard allowed drift-rate 15ppm, drift
// measured over long 2^τ-second windows, τ ∈ [4,17], versus Triad's
// effective ~110ppm from ≤1s measurement windows).
//
// The node polls its one Time Authority periodically, pushes each
// (offset, delay) sample through an NTP-like clock filter (an 8-stage
// shift register selecting the minimum-delay sample, which suppresses
// delay spikes — including attacker-injected ones), and disciplines
// the clock in frequency and phase with NTP's clamps: ±500ppm
// frequency envelope, 128ms step threshold, and a poll interval that
// adapts between 16s and 1024s.
//
// This package is a policy bundle on internal/engine, the third
// protocol line beside internal/core and internal/resilient. The
// engine owns the clock, the state machine, datagram dispatch, every
// exchange, rate monitoring and counters; ntpdisc contributes the poll
// schedule and the discipline, which installs each rate and anchor
// through Engine.CompleteCalibration. What the line gains from the
// engine is the Triad state machine: an AEX taints the node, and the
// next poll's answer re-anchors it.
package ntpdisc

import (
	"errors"
	"fmt"
	"time"

	"triadtime/internal/enclave"
	"triadtime/internal/engine"
	"triadtime/internal/simnet"
)

// NTP-standard constants the discipline respects.
const (
	// MaxFreqPPM is NTP's maximum tolerated frequency error (±500ppm).
	MaxFreqPPM = 500
	// StepThreshold is the offset beyond which the clock steps instead
	// of slewing (NTP: 128ms).
	StepThreshold = 128 * time.Millisecond
	// StandardDriftPPM is the standard allowed residual drift-rate the
	// paper quotes: 15ppm (1.3s/day).
	StandardDriftPPM = 15
	// MinPoll and MaxPoll bound the adaptive poll interval (NTP: 2^4 =
	// 16s up to 2^17 ≈ 36h).
	MinPoll = 16 * time.Second
	MaxPoll = 1024 * time.Second
	// phaseGain is the fraction of the filtered offset corrected per
	// poll; freqGain scales frequency corrections.
	phaseGain = 0.5
	freqGain  = 0.3
	// filterDepth is the clock-filter shift register size.
	filterDepth = 8
)

// NewNode creates an NTP-discipline node on the platform: the shared
// protocol engine running this package's policies against the one
// configured Time Authority. Call Start to begin.
func NewNode(platform enclave.Platform, cfg engine.Config) (*engine.Node, error) {
	eng, _, err := assemble(platform, cfg)
	if err != nil {
		return nil, err
	}
	return eng.Node(), nil
}

// assemble builds the engine and the policy it runs; tests keep both to
// inject faults and read the discipline.
func assemble(platform enclave.Platform, cfg engine.Config) (*engine.Engine, *policy, error) {
	if len(cfg.Authorities) > 1 {
		return nil, nil, errors.New("ntpdisc: one time authority only")
	}
	pol := &policy{}
	eng, err := engine.New(platform, cfg, engine.Policies{
		Calibration: pol,
		Recovery:    pol,
		// No peer is ever gathered: the line recovers from its
		// authority alone.
		Filter: engine.AdoptIfAhead{},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("ntpdisc: %w", err)
	}
	return eng, pol, nil
}

// sample is one poll's measurement.
type sample struct {
	offset time.Duration // authority time minus local time at receive
	delay  time.Duration // roundtrip
}

// policy is the discipline: the poll schedule, the clock filter and the
// frequency and phase corrections. It implements
// engine.CalibrationPolicy and engine.RecoveryPolicy.
type policy struct {
	corrPPM    float64 // accumulated frequency correction
	poll       time.Duration
	stableRuns int
	filter     []sample

	round *engine.Round      // the poll in flight; its deadline is the retry
	next  enclave.CancelFunc // the poll armed one interval after an answer

	steps int // answers that stepped the clock
}

// rate is the clock rate the discipline runs: ticks per authority
// second, the engine's ticks per honest second adjusted by the
// frequency correction. A positive correction means the authority ran
// ahead: the clock runs slow, so it has fewer ticks per authority
// second than the hint says.
func (p *policy) rate(e *engine.Engine) float64 {
	return float64(e.TicksFor(time.Second)) * (1 - p.corrPPM*1e-6)
}

// Start begins (or, after a monitor verdict, restarts) the discipline
// from scratch: the next answer steps the clock onto the authority's
// timeline.
func (p *policy) Start(e *engine.Engine) {
	p.Cancel(e)
	p.corrPPM, p.poll, p.stableRuns, p.filter = 0, MinPoll, 0, p.filter[:0]
	p.send(e)
}

// OnAEX: a poll needs no uninterrupted execution, so the one in flight
// goes on.
func (p *policy) OnAEX(*engine.Engine) {}

// send polls the authority once, sleep-free. The round's deadline is one
// poll interval: a lost answer is retried one interval after the send.
func (p *policy) send(e *engine.Engine) {
	p.round = e.BeginRound([]simnet.Addr{e.Authority()}, 0, p.poll, func(r *engine.Round) {
		p.round = nil
		rd, ok := r.First()
		if !ok {
			p.send(e)
			return
		}
		p.discipline(e, rd)
		p.next = e.Platform().AfterTicks(e.TicksFor(p.poll), func() {
			p.next = nil
			p.send(e)
		})
	})
}

// discipline applies one answer. A node that is not serving — the
// first answer, or the first since an AEX or a monitor verdict — steps
// onto the authority's timeline at the roundtrip midpoint; a serving
// one pushes the sample through the clock filter.
func (p *policy) discipline(e *engine.Engine, rd engine.Reading) {
	rate := p.rate(e)
	rtt := float64(rd.RTTTicks()) / rate * 1e9
	authority := rd.TimeNanos + int64(rtt/2)
	if e.State() != engine.StateOK {
		p.filter = p.filter[:0]
		p.steps++
		e.CompleteCalibration(rate, authority, rd.RecvTSC)
		return
	}
	s := sample{offset: time.Duration(authority - e.ClockNow()), delay: time.Duration(rtt)}
	p.applySample(e, s)
	p.adaptPoll(s.offset)
}

// applySample pushes the measurement through the clock filter and, if
// it survives, disciplines the clock.
func (p *policy) applySample(e *engine.Engine, s sample) {
	p.filter = append(p.filter, s)
	if len(p.filter) > filterDepth {
		p.filter = p.filter[1:]
	}
	// NTP clock filter: only act when the newest sample is the
	// minimum-delay sample of the register, ties going to the newer — a
	// delayed (possibly attacker-held) response never disciplines the
	// clock, and on a constant-delay link every answer still does.
	for _, f := range p.filter[:len(p.filter)-1] {
		if f.delay < s.delay {
			e.Counters().RTTRejections++
			return
		}
	}
	offset := s.offset
	if offset > StepThreshold || offset < -StepThreshold {
		// Step: re-anchor and restart the filter.
		p.filter = p.filter[:0]
		p.steps++
		e.CompleteCalibration(p.rate(e), e.ClockNow()+int64(offset), e.Platform().ReadTSC())
		return
	}
	// Slew. Frequency: the residual offset accumulated over one poll
	// interval estimates the rate error; correct a fraction of it.
	offPPM := offset.Seconds() / p.poll.Seconds() * 1e6
	p.corrPPM += freqGain * offPPM
	p.corrPPM = max(-MaxFreqPPM, min(MaxFreqPPM, p.corrPPM))
	// Phase: correct a fraction of the offset now. Rebase on the clock
	// read at the old rate, so the rate change does not retroactively
	// bend history.
	now := e.ClockNow()
	e.CompleteCalibration(p.rate(e), now+int64(phaseGain*float64(offset)), e.Platform().ReadTSC())
}

// adaptPoll widens the poll interval while the clock is stable and
// narrows it when offsets grow — NTP's 2^τ adaptation in miniature.
func (p *policy) adaptPoll(offset time.Duration) {
	switch offset = max(offset, -offset); {
	case offset < time.Millisecond:
		p.stableRuns++
		if p.stableRuns >= 3 && p.poll < MaxPoll {
			p.poll = min(2*p.poll, MaxPoll)
			p.stableRuns = 0
		}
	case offset > 10*time.Millisecond:
		p.stableRuns = 0
		p.poll = max(p.poll/2, MinPoll)
	default:
		p.stableRuns = 0
	}
}

// OnStart: the poll schedule is the line's only steady-state machinery,
// and Start launched it.
func (p *policy) OnStart(*engine.Engine) {}

// OnTaint refuses service after an AEX until the next poll's answer
// re-anchors the clock.
func (p *policy) OnTaint(e *engine.Engine) { e.SetState(engine.StateTainted) }

// StartRefCalib: the engine calls it only when a peer gather yields
// nothing, and this line gathers no peers. The next poll re-anchors.
func (p *policy) StartRefCalib(e *engine.Engine) { e.SetState(engine.StateRefCalib) }

// Cancel stops the poll schedule.
func (p *policy) Cancel(*engine.Engine) {
	p.round.Cancel()
	if p.next != nil {
		p.next()
		p.next = nil
	}
}
