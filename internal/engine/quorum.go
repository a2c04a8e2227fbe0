package engine

import (
	"sort"
	"time"

	"triadtime/internal/enclave"
	"triadtime/internal/marzullo"
)

// Multi-authority quorum calibration (ROADMAP item 2, following
// TriHaRd's hardening of the single-Time-Authority trust assumption).
// Instead of trusting one TA, the node fans every calibration exchange
// out to N independent authorities, converts each response into a
// confidence interval on reference time, and adopts a reference only
// when the Marzullo intersection of those intervals is supported by an
// agreeing quorum — by default a strict majority of the configured
// authorities. One lying, delaying, or dark authority in a minority
// cannot move the adopted time; it merely shows up in the FalseTickers
// counter. When a steady-state recheck finds no quorum (split-brain,
// or a majority outage), the node enters the Degraded holdover state:
// it keeps serving on its last agreed calibration — bounded only by
// local TSC drift — while retrying, rather than going dark or trusting
// a disputed reference.

// QuorumConfig is a variant's tuning of multi-authority operation; the
// response deadline, recheck period and agreement rule are the shared
// Config's (TATimeout, QuorumRecheck, QuorumMinAgree).
type QuorumConfig struct {
	// ErrBudget is the base half-width of the confidence interval
	// assigned to each authority reading (authority clock error + local
	// extrapolation error); half the observed roundtrip is added on
	// top. Default: 10ms.
	ErrBudget time.Duration
	// CalibWindow is the TSC window between the two reference rounds of
	// a rate calibration (as in the hardened windowed calibration, but
	// fanned out). An AEX inside the window halves it, down to
	// MinCalibWindow. Defaults: 2s / 250ms.
	CalibWindow    time.Duration
	MinCalibWindow time.Duration
}

// quorumRetryBackoff is the pause before retrying after a failed or
// under-responded quorum round.
const quorumRetryBackoff = 250 * time.Millisecond

func (c QuorumConfig) withDefaults() QuorumConfig {
	if c.ErrBudget <= 0 {
		c.ErrBudget = 10 * time.Millisecond
	}
	if c.CalibWindow <= 0 {
		c.CalibWindow = 2 * time.Second
	}
	if c.MinCalibWindow <= 0 {
		c.MinCalibWindow = 250 * time.Millisecond
	}
	if c.MinCalibWindow > c.CalibWindow {
		c.MinCalibWindow = c.CalibWindow
	}
	return c
}

// QuorumDecide applies the quorum agreement rule to per-authority
// confidence intervals: the Marzullo intersection is adopted when
// supported by at least minAgree authorities (minAgree > 0) or by a
// strict majority of the total configured authorities (minAgree == 0).
// It returns the best intersection, how many intervals support it, and
// the verdict.
func QuorumDecide(intervals []marzullo.Interval, total, minAgree int) (marzullo.Interval, int, bool) {
	best, count := marzullo.Intersect(intervals)
	if minAgree > 0 {
		return best, count, count >= minAgree
	}
	return best, count, count*2 > total
}

// Reference-round kinds.
const (
	refNone = iota
	// refRecalib: post-taint recovery (peers failed); the node is in
	// StateRefCalib and cannot serve until a quorum anchors it.
	refRecalib
	// refRecheck: steady-state revalidation while serving; failure
	// degrades to holdover instead of going dark.
	refRecheck
)

// QuorumCalibration is the multi-authority CalibrationPolicy: a
// windowed two-round rate calibration fanned out over every configured
// authority, with the reference adopted from the quorum intersection.
// New installs it, with QuorumRecovery wrapping the variant's recovery
// policy, on multi-authority nodes.
type QuorumCalibration struct {
	cfg QuorumConfig

	// Full-calibration state machine: round A, window wait, round B.
	windowSec  float64
	calRound   *Round
	roundA     []Reading // round A's answers
	waitTimer  enclave.CancelFunc
	retryTimer enclave.CancelFunc

	// Reference rounds (taint recovery and steady-state rechecks).
	refRound     *Round
	refKind      int
	refRetry     enclave.CancelFunc
	recheckTimer enclave.CancelFunc

	rates []float64 // scratch for the per-round rate median
}

// withQuorum wraps a variant's policies for multi-authority operation:
// quorum calibration replaces the variant's single-TA calibration and
// the authority side of recovery runs quorum reference rounds; peer
// untainting, probes and deadlines stay the variant's.
func (pol Policies) withQuorum() Policies {
	q := &QuorumCalibration{cfg: pol.Quorum.withDefaults()}
	pol.Calibration = q
	pol.Recovery = QuorumRecovery{RecoveryPolicy: pol.Recovery, Quorum: q}
	return pol
}

// quorumNeeded returns the response count the agreement rule requires
// of the configured authorities.
func (e *Engine) quorumNeeded() int {
	if e.cfg.QuorumMinAgree > 0 {
		return e.cfg.QuorumMinAgree
	}
	return len(e.cfg.Authorities)/2 + 1
}

// beginRound fans one sleep-0 request out to every authority.
func (q *QuorumCalibration) beginRound(e *Engine, done func(*Round)) *Round {
	return e.BeginRound(e.cfg.Authorities, 0, e.cfg.TATimeout, done)
}

// Start begins (or restarts) a full quorum calibration.
func (q *QuorumCalibration) Start(e *Engine) {
	e.CancelGather()
	q.cancelCal()
	q.cancelRef()
	q.windowSec = q.cfg.CalibWindow.Seconds()
	q.startCalRoundA(e)
}

func (q *QuorumCalibration) startCalRoundA(e *Engine) {
	q.calRound = q.beginRound(e, func(r *Round) { q.onCalRoundA(e, r) })
}

func (q *QuorumCalibration) startCalRoundB(e *Engine) {
	q.calRound = q.beginRound(e, func(r *Round) { q.onCalRoundB(e, r) })
}

// retryCal restarts the calibration from round A after the backoff —
// the pacing that keeps retries bounded while authorities are dark.
func (q *QuorumCalibration) retryCal(e *Engine) {
	q.roundA = nil
	q.retryTimer = e.Platform().AfterTicks(e.TicksFor(quorumRetryBackoff), func() {
		q.retryTimer = nil
		q.startCalRoundA(e)
	})
}

func (q *QuorumCalibration) onCalRoundA(e *Engine, r *Round) {
	if r.Severed() {
		// Severed by an AEX that raced the close; OnAEX normally
		// restarts first, but never trust a severed window.
		q.startCalRoundA(e)
		return
	}
	q.roundA = r.Readings()
	if len(q.roundA) < e.quorumNeeded() {
		q.retryCal(e)
		return
	}
	q.waitTimer = e.Platform().AfterTicks(e.TicksForSeconds(q.windowSec), func() {
		q.waitTimer = nil
		q.startCalRoundB(e)
	})
}

func (q *QuorumCalibration) onCalRoundB(e *Engine, r *Round) {
	if r.Severed() {
		q.startCalRoundA(e)
		return
	}

	// Per-authority rate over the window, for authorities that answered
	// both rounds; the median defangs a minority of rate-lying clocks.
	q.rates = q.rates[:0]
	for _, sb := range r.Readings() {
		for _, sa := range q.roundA {
			if sa.From != sb.From {
				continue
			}
			dt := float64(sb.TimeNanos-sa.TimeNanos) / 1e9
			dticks := sb.MidTSC() - sa.MidTSC()
			if dt > 0 && dticks > 0 {
				q.rates = append(q.rates, dticks/dt)
			}
			break
		}
	}
	if len(q.rates) == 0 {
		q.retryCal(e)
		return
	}
	sort.Float64s(q.rates)
	rate := q.rates[len(q.rates)/2]
	if len(q.rates)%2 == 0 {
		rate = (q.rates[len(q.rates)/2-1] + q.rates[len(q.rates)/2]) / 2
	}

	refTSC := e.Platform().ReadTSC()
	intervals := q.intervals(r, refTSC, rate)
	best, count, ok := QuorumDecide(intervals, len(e.cfg.Authorities), e.cfg.QuorumMinAgree)
	if !ok {
		if len(intervals) >= e.quorumNeeded() {
			e.Counters().QuorumNoMajority++
		}
		q.retryCal(e)
		return
	}
	e.Counters().QuorumAccepts++
	e.Counters().FalseTickers += len(intervals) - count
	q.roundA = nil
	e.CompleteCalibration(rate, best.Midpoint(), refTSC)
}

// intervals converts a round's responses into confidence intervals on
// reference time, all extrapolated to the common instant refTSC using
// rate. Each interval's half-width is the error budget plus half the
// observed roundtrip (the one-way ambiguity a delaying attacker can
// exploit, bounded per response).
func (q *QuorumCalibration) intervals(r *Round, refTSC uint64, rate float64) []marzullo.Interval {
	out := make([]marzullo.Interval, 0, len(r.Readings()))
	for _, s := range r.Readings() {
		est := s.TimeNanos + int64((float64(refTSC)-s.MidTSC())/rate*1e9)
		rttNanos := int64(float64(s.RTTTicks()) / rate * 1e9)
		err := q.cfg.ErrBudget.Nanoseconds() + rttNanos/2
		out = append(out, marzullo.Interval{Lo: est - err, Hi: est + err})
	}
	return out
}

// OnAEX severs the calibration in flight: cancel everything, halve the
// window (AEXs are arriving faster than it) and restart from round A.
func (q *QuorumCalibration) OnAEX(e *Engine) {
	q.cancelCal()
	q.windowSec /= 2
	if min := q.cfg.MinCalibWindow.Seconds(); q.windowSec < min {
		q.windowSec = min
	}
	q.startCalRoundA(e)
}

func (q *QuorumCalibration) cancelCal() {
	q.calRound.Cancel()
	if q.waitTimer != nil {
		q.waitTimer()
		q.waitTimer = nil
	}
	if q.retryTimer != nil {
		q.retryTimer()
		q.retryTimer = nil
	}
	q.roundA = nil
}

func (q *QuorumCalibration) cancelRef() {
	q.refRound.Cancel()
	if q.refRetry != nil {
		q.refRetry()
		q.refRetry = nil
	}
	q.refKind = refNone
}

// startRefCalib begins quorum taint recovery: the node re-anchors its
// reference from a round's quorum intersection, keeping its calibrated
// rate.
func (q *QuorumCalibration) startRefCalib(e *Engine) {
	e.SetState(StateRefCalib)
	q.cancelRef()
	q.refKind = refRecalib
	q.beginRefRound(e)
}

func (q *QuorumCalibration) beginRefRound(e *Engine) {
	q.refRound = q.beginRound(e, func(r *Round) { q.onRefRound(e, r) })
}

// armRecheck schedules the periodic steady-state quorum revalidation.
// The timer re-arms itself every period regardless of outcome; ticks
// while the node is not serving (or while another reference round is
// in flight) are skipped.
func (q *QuorumCalibration) armRecheck(e *Engine) {
	q.recheckTimer = e.Platform().AfterTicks(e.TicksFor(e.cfg.QuorumRecheck), func() {
		q.recheckTimer = nil
		q.armRecheck(e)
		if !e.State().Serving() || q.refKind != refNone {
			return
		}
		q.refKind = refRecheck
		q.beginRefRound(e)
	})
}

func (q *QuorumCalibration) onRefRound(e *Engine, r *Round) {
	kind := q.refKind

	if r.Severed() {
		switch kind {
		case refRecalib:
			// Still tainted and unanchored: retry the round.
			q.beginRefRound(e)
		case refRecheck:
			// A taint interrupted the recheck; recovery owns the flow
			// now. The periodic timer will check again.
			q.refKind = refNone
		}
		return
	}
	if kind == refRecheck && !e.State().Serving() {
		q.refKind = refNone
		return
	}

	rate := e.FCalib()
	refTSC := e.Platform().ReadTSC()
	intervals := q.intervals(r, refTSC, rate)
	best, count, ok := QuorumDecide(intervals, len(e.cfg.Authorities), e.cfg.QuorumMinAgree)
	disagreed := len(intervals) >= e.quorumNeeded() && !ok

	switch kind {
	case refRecalib:
		if !ok {
			if disagreed {
				e.Counters().QuorumNoMajority++
			}
			q.refRetry = e.Platform().AfterTicks(e.TicksFor(quorumRetryBackoff), func() {
				q.refRetry = nil
				q.beginRefRound(e)
			})
			return
		}
		e.Counters().QuorumAccepts++
		e.Counters().FalseTickers += len(intervals) - count
		q.refKind = refNone
		e.AdoptTAReference(best.Midpoint(), refTSC)
	case refRecheck:
		q.refKind = refNone
		if !ok {
			// No validated quorum: hold over on the last agreed
			// calibration rather than going dark or adopting a disputed
			// reference. The next periodic tick retries.
			if disagreed {
				e.Counters().QuorumNoMajority++
			}
			if e.State() == StateOK {
				e.Counters().Holdovers++
				e.SetState(StateDegraded)
			}
			return
		}
		e.Counters().QuorumAccepts++
		e.Counters().FalseTickers += len(intervals) - count
		// Re-anchoring on every validated recheck bounds holdover drift
		// and recovers from Degraded the moment the quorum heals.
		e.AdoptTAReference(best.Midpoint(), refTSC)
	}
}

// QuorumRecovery wraps a variant's RecoveryPolicy for multi-authority
// operation: taint recovery still tries peers first (the inner
// policy's ladder), but the authority fallback and the steady-state
// revalidation run quorum reference rounds instead of trusting one TA.
type QuorumRecovery struct {
	// RecoveryPolicy is the wrapped single-authority recovery behaviour
	// (taint handling, peer gathering, probes, deadlines).
	RecoveryPolicy
	// Quorum is the calibration policy sharing the round machinery.
	Quorum *QuorumCalibration
}

// OnStart arms the inner machinery and the periodic quorum recheck.
func (qr QuorumRecovery) OnStart(e *Engine) {
	qr.RecoveryPolicy.OnStart(e)
	qr.Quorum.armRecheck(e)
}

// StartRefCalib re-anchors from a quorum of authorities instead of the
// single TA.
func (qr QuorumRecovery) StartRefCalib(e *Engine) { qr.Quorum.startRefCalib(e) }

// Cancel aborts inner recovery machinery and quorum reference rounds.
func (qr QuorumRecovery) Cancel(e *Engine) {
	qr.RecoveryPolicy.Cancel(e)
	qr.Quorum.cancelRef()
}
