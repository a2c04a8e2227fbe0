package resilient

import (
	"triadtime/internal/core"
	"triadtime/internal/engine"
	"triadtime/internal/marzullo"
)

// freshTS returns the sample's timestamp advanced by the time elapsed
// since its arrival (measured in local ticks via the boot hint — the
// spans are milliseconds, so hint error is negligible). Gathering
// waits out the full PeerTimeout, and adopting a stale reading as
// "now" would skew the clock into the past (and compound across
// adoption chains).
func (p *policy) freshTS(e *engine.Engine, s engine.PeerSample) int64 {
	nowTSC := e.Platform().ReadTSC()
	if nowTSC <= s.ArrivalTSC {
		return s.TS
	}
	return s.TS + int64(e.DurationFor(nowTSC-s.ArrivalTSC))
}

// intervalFor builds the consistency interval for a clock reading.
func (p *policy) intervalFor(ts int64) marzullo.Interval {
	eb := int64(p.cfg.ErrBudget)
	return marzullo.Interval{Lo: ts - eb, Hi: ts + eb}
}

// OnStart arms the in-TCB refresh deadline (the hardened protocol's
// steady-state self-checking).
func (p *policy) OnStart(e *engine.Engine) {
	if !p.cfg.DisableDeadline {
		p.armDeadline(e)
	}
}

// OnTaint starts recovery after an AEX: abandon any probe in flight
// and gather all peers for the duration of PeerTimeout — unlike the
// original protocol's first-response-wins, which is what lets a fast
// compromised clock win races.
func (p *policy) OnTaint(e *engine.Engine) {
	p.cancelProbe()
	e.SetState(core.StateTainted)
	e.BeginPeerGather()
}

// marzulloFilter is the hardened peer policy (paper §V): wait out the
// gather window, form consistency intervals, and adopt the majority
// intersection midpoint — never the maximum.
type marzulloFilter struct{ p *policy }

// Immediate reports that gathering waits out the full PeerTimeout.
func (marzulloFilter) Immediate() bool { return false }

// Decide applies the chimer policy to the gathered samples.
func (f marzulloFilter) Decide(e *engine.Engine, samples []engine.PeerSample) {
	f.p.decideUntaint(e, samples)
}

// decideUntaint applies the true-chimer policy: a single fast
// compromised clock is disjoint from the honest majority and gets
// ignored; without a majority the node falls back to the Time
// Authority (or, with gossip, to an accredited responder).
func (p *policy) decideUntaint(e *engine.Engine, samples []engine.PeerSample) {
	intervals := make([]marzullo.Interval, len(samples))
	for i, r := range samples {
		intervals[i] = p.intervalFor(p.freshTS(e, r))
	}
	best, ok := marzullo.MajorityAgrees(intervals, len(p.cfg.Peers))
	if !ok {
		// No same-moment majority among the answers. Gossip-accredited
		// responders may stand in for one: a strict majority of the
		// cluster's published views vouches for their consistency.
		if adopted, from, found := p.gossipAdoption(e, samples); found {
			local := e.ClockNow()
			jump := adopted - local
			if jump < 0 {
				jump = 0
			}
			e.Counters().GossipAdoptions++
			e.AdoptPeerReference(from, adopted, e.Platform().ReadTSC(), jump)
			return
		}
		// A lone unaccredited clock cannot be told from a lone honest
		// one, so fall back to the root of trust.
		e.Counters().RejectedPeers += len(samples)
		p.StartRefCalib(e)
		return
	}
	for i, iv := range intervals {
		consistent := iv.Overlaps(best)
		p.markChimer(samples[i].From, consistent)
		if !consistent {
			e.Counters().RejectedPeers++
		}
	}
	adopted := best.Midpoint()
	local := e.ClockNow()
	jump := adopted - local
	if jump < 0 {
		jump = 0
	}
	e.AdoptPeerReference(samples[0].From, adopted, e.Platform().ReadTSC(), jump)
}

// gossipAdoption looks for an accredited responder whose timestamp can
// untaint us without a same-moment majority. With several accredited
// answers, their interval intersection midpoint is used.
func (p *policy) gossipAdoption(e *engine.Engine, samples []engine.PeerSample) (nanos int64, from uint32, ok bool) {
	var ivs []marzullo.Interval
	for _, r := range samples {
		if p.accredited(r.From) {
			ivs = append(ivs, p.intervalFor(p.freshTS(e, r)))
			from = r.From
		}
	}
	if len(ivs) == 0 {
		return 0, 0, false
	}
	best, count := marzullo.Intersect(ivs)
	if count != len(ivs) {
		// Accredited clocks disagreeing among themselves: evidence is
		// stale, do not trust it.
		return 0, 0, false
	}
	return best.Midpoint(), from, true
}

// probeState is one in-TCB deadline self-check: gather peer timestamps
// (and if needed a TA reading) and verify the local clock is a
// true-chimer.
type probeState struct {
	peers     *engine.Gather // peer half, in flight
	responses []engine.PeerSample
	ta        *engine.Round // TA check, in flight
}

// armDeadline schedules the next in-TCB self-check.
func (p *policy) armDeadline(e *engine.Engine) {
	p.deadlineCancel = e.Platform().AfterTicks(e.TicksFor(p.cfg.Deadline), func() {
		p.deadlineCancel = nil
		p.onDeadline(e)
		if !p.cfg.DisableDeadline {
			p.armDeadline(e)
		}
	})
}

// onDeadline fires the self-check if the node is serving; otherwise the
// protocol is already refreshing via another path.
func (p *policy) onDeadline(e *engine.Engine) {
	if e.State() != core.StateOK || p.probe != nil {
		return
	}
	e.Counters().Probes++
	p.broadcastChimerReport(e)
	pr := &probeState{}
	p.probe = pr
	if len(p.cfg.Peers) == 0 {
		p.probeTACheck(e)
		return
	}
	pr.peers = e.GatherPeers(false, func(samples []engine.PeerSample) {
		pr.responses = samples
		p.decideProbe(e)
	})
}

// decideProbe evaluates the gathered peer view of our clock.
func (p *policy) decideProbe(e *engine.Engine) {
	pr := p.probe
	if pr == nil || e.State() != core.StateOK {
		p.cancelProbe()
		return
	}
	if len(pr.responses) == 0 {
		// Nobody answered: check against the root of trust instead.
		p.probeTACheck(e)
		return
	}
	intervals := make([]marzullo.Interval, 0, len(pr.responses)+1)
	for _, r := range pr.responses {
		intervals = append(intervals, p.intervalFor(p.freshTS(e, r)))
	}
	best, ok := marzullo.MajorityAgrees(intervals, len(p.cfg.Peers))
	if ok {
		// Record consistency evidence for the gossip layer.
		for i, iv := range intervals {
			p.markChimer(pr.responses[i].From, iv.Overlaps(best))
		}
	}
	if ok && p.intervalFor(e.ClockNow()).Overlaps(best) {
		// Consistent with the majority: clock quality confirmed.
		p.probe = nil
		return
	}
	// Inconsistent or inconclusive: ask the Time Authority.
	p.probeTACheck(e)
}

// probeTACheck verifies the local clock directly against the TA.
func (p *policy) probeTACheck(e *engine.Engine) {
	pr := p.probe
	if pr == nil {
		return
	}
	pr.ta = p.askTA(e, func(r *engine.Round) { p.onProbeTA(e, pr, r) })
}

// onProbeTA compares the local clock against the TA reading. With the
// TA unreachable or the reading over the RTT bound, the probe is given
// up; the next deadline retries.
func (p *policy) onProbeTA(e *engine.Engine, pr *probeState, r *engine.Round) {
	p.probe = nil
	rd, ok := r.First()
	if !ok || e.State() != core.StateOK || p.overBound(e, rd) {
		return
	}
	taNow := rd.TimeNanos // one-way stale, well inside ErrBudget
	diff := e.ClockNow() - taNow
	if diff < 0 {
		diff = -diff
	}
	if diff <= int64(p.cfg.ErrBudget) {
		// Clock quality confirmed by the root of trust. The probe's
		// peer answers can now be judged against our confirmed clock —
		// the evidence path that matters in small clusters, where one
		// honest and one false answer never form a majority.
		own := p.intervalFor(e.ClockNow())
		for _, r := range pr.responses {
			p.markChimer(r.From, p.intervalFor(p.freshTS(e, r)).Overlaps(own))
		}
		return
	}
	// The local clock ran away from reference inside one deadline
	// period: the calibrated rate itself must be bad (this is exactly
	// the miscalibrated-arbitrarily-long hole of the original protocol,
	// paper §V ¶1). Re-learn everything.
	e.Counters().ProbeFailures++
	e.EmitDiscrepancy(float64(diff) / 1e9)
	e.SetState(core.StateFullCalib)
	p.Start(e)
}

// cancelProbe abandons a probe in flight (e.g. the node got tainted).
func (p *policy) cancelProbe() {
	pr := p.probe
	if pr == nil {
		return
	}
	pr.peers.Cancel()
	pr.ta.Cancel()
	p.probe = nil
}
