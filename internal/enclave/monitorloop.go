package enclave

import (
	"fmt"
	"math"
	"time"

	"triadtime/internal/sim"
	"triadtime/internal/simtime"
)

// noiseWindows is how many windows of measurement noise a monitoring
// loop's exact path draws ahead: the furthest it judges ahead of the
// scheduler there, and so the longest it goes without a firing while no
// window calls back.
const noiseWindows = 64

// windowNoise is one window's measurement noise, drawn ahead.
type windowNoise struct {
	inc, incOff float64 // INC: the Gaussian term, the warm-up or outlier offset
	mem         float64 // memory: the relative Gaussian term
}

// monitorLoop is a SimPlatform's monitoring thread running a
// RateMonitor: back-to-back windows, each counting INC and, when the
// monitor enables it, memory accesses over the same guest ticks.
//
// A window's only effects are its noise draws, a step of the judge and,
// rarely, a monitor callback. Within a TSC generation windows run back
// to back at a fixed span from the last (re)start, and the platform's
// RNG is drawn only by the loop. So the loop's exact path draws the
// noise of noiseWindows windows ahead, in completion order, runs the
// judge over them on a copy of the monitor's state, and sets its one
// timer at the end of the first window whose counts call back — or of
// the last window drawn. When the timer fires, the monitor takes the
// state the copy reached; when something that changes the windows
// touches the loop first — an AEX, a TSC manipulation, a core-frequency
// change or a monitor reset — the windows that ended by then are judged
// then, with the same draws and arithmetic. The plan is indexed by
// completion, not by time, so an AEX only moves the windows' ends: it
// plans nothing again, unless the window it aborts was one a
// manipulation had moved.
//
// Once every counter has a learnt baseline, nearly every window is
// quiet: its counts cannot leave tolerance, so its judgement is
// measured++, strikes = 0. From a whole head, the loop bounds each
// counter's standard-normal draw so that a window under both bounds
// cannot deviate, whatever its outlier roll (quietBounds). Windows'
// draws are independent, so the number of quiet windows before the
// first whose normals cross a bound is geometric: the loop draws it
// with one uniform (planQuiet), a gap, and sets its timer at the end of
// that crossing window — or leaves it unarmed when that end lies past
// the range of simulated time. The gap's windows draw no noise: the
// firing, or a touch point before it, commits those that ended in one
// step. At the firing the loop draws the crossing window's noise from
// its law conditioned on the crossing (drawCrossing) and judges it
// exactly, callbacks and all. The law is memoryless, so a replan inside
// a gap draws a fresh gap from the head: nothing is rewound. Like the
// plan above, a gap counts completions, so an AEX plans nothing again.
//
// One rule places a window in the firing order: at any instant,
// monitoring-window completions come before every other entry — INC
// before memory, and one platform's before another's in the order their
// loops started (sim.Timer.SetFirst). So a touch point at a window's
// end sees that window judged; an entry a callback schedules for the
// next window's end comes after that window's completions; and nothing
// falls between a window's two completions. A TSC manipulation that
// puts the TSC at or past the head's tick target completes the head
// there and then, inside the manipulation. A touch point from another
// loop's callback at the instant this loop's timer is due is the one
// place the two loops meet: the timer's window is judged there first,
// callbacks and all.
type monitorLoop struct {
	m     *RateMonitor
	timer sim.Timer
	// span is the length of a window begun in the TSC's current
	// generation.
	span time.Duration

	// The head is the first window not judged. It runs from start to
	// end.
	start, end simtime.Instant
	// moved is set once a manipulation moved the head's end; target is
	// then its guest tick target.
	moved  bool
	target uint64

	// noise[next:drawn] is the noise of the head and the windows after.
	noise       [noiseWindows]windowNoise
	next, drawn int
	// quiet is set while the windows before the timer's are a quiet
	// gap (planQuiet): each judged measured++, strikes = 0 on every
	// counter, none with noise drawn. The timer's window is the gap's
	// crossing one, whose noise the firing draws.
	quiet bool
	// exact sends every window down the exact path, drawn as the eager
	// two-timer loop drew them: a test hook that turns gaps off.
	exact bool
	// ahead is the monitor's state once the windows before the timer's,
	// and the timer's own unless it calls back, are judged.
	ahead monitorState
	// due counts the windows after the head up to the one the timer is
	// set at — math.MaxInt for a gap without a crossing — and verdict is
	// set when that one calls back.
	due     int
	verdict bool
	// judging is set while a window's callbacks run.
	judging bool

	// record, when set, runs before the loop moves past the head and
	// the n-1 windows after it.
	record func(n int)
}

// StartMonitor runs m's windows on the monitoring core (monitorLoop).
func (p *SimPlatform) StartMonitor(m *RateMonitor) {
	l := &p.mon
	if l.m != nil {
		panic("enclave: a second monitor on one monitoring thread")
	}
	l.m = m
	m.reset = p.resetMonitor
	l.timer = p.sched.NewTimer(p.fireMonitor)
	l.span = p.windowSpan(m.ticks)
	p.beginWindow()
	p.planMonitor()
}

// MeasureINC counts n back-to-back INC windows of ticks guest ticks on
// the monitoring core, with nothing interrupting them, and returns the
// counts. It draws their noise as the monitoring loop does but runs no
// events: a count depends on the window's length and the core alone.
func (p *SimPlatform) MeasureINC(ticks uint64, n int) []float64 {
	if p.mon.m != nil {
		panic("enclave: MeasureINC on a core running a monitor")
	}
	ideal, _ := p.idealCounts(p.windowSpan(ticks))
	counts := make([]float64, n)
	for i := range counts {
		var w windowNoise
		p.drawWindow(&w, false)
		counts[i] = p.incModel.count(ideal, w.inc, w.incOff)
	}
	return counts
}

// windowSpan is the length of a window of ticks begun now: its target
// is exactly ticks away, so TimeOfReaching puts its end ticks / (scale
// * hostHz) later, whenever in the generation it begins.
func (p *SimPlatform) windowSpan(ticks uint64) time.Duration {
	now := p.sched.Now()
	span := p.tsc.TimeOfReaching(p.ReadTSC()+ticks, now).Sub(now)
	if span <= 0 {
		panic(fmt.Sprintf("enclave: a %d-tick monitoring window lasts %v", ticks, span))
	}
	return span
}

// beginWindow makes the head a window beginning now.
//
//triad:hotpath
func (p *SimPlatform) beginWindow() {
	l := &p.mon
	l.start = p.sched.Now()
	l.end = l.start.Add(l.span)
	l.moved = false
}

// touchMonitor judges the windows that end by now, ahead of a change to
// what later ones count: their completions came before the touch. The
// timer's window is among them only when the touch comes from another
// loop's callback at the instant the timer is due; the timer fires here
// then.
//
//triad:hotpath
func (p *SimPlatform) touchMonitor() {
	l := &p.mon
	if l.m == nil || l.judging {
		return // a callback's changes are planned for when it returns
	}
	now := p.sched.Now()
	if at, ok := p.timerAt(); ok && at == now {
		p.fireMonitor()
		return
	}
	if l.quiet && l.end <= now {
		p.passQuiet(int(now.Sub(l.end)/l.span) + 1)
	}
	for l.end <= now {
		p.judgeHead()
	}
}

// passQuiet commits, in one step, n windows of a quiet gap from a whole
// head: each is judged measured++, strikes = 0 on every counter. A
// touch point commits the gap's windows that end by then; the timer's
// window, the crossing one, ends later.
//
//triad:hotpath
func (p *SimPlatform) passQuiet(n int) {
	m := p.mon.m
	m.state.inc.passQuiet(n)
	if m.memEnabled {
		m.state.mem.passQuiet(n)
	}
	p.advanceHead(n)
}

// replanMonitor plans again after a change touchMonitor preceded.
func (p *SimPlatform) replanMonitor() {
	if l := &p.mon; l.m != nil && !l.judging {
		p.planMonitor()
	}
}

// restartMonitor discards the window in flight and begins the next.
//
//triad:hotpath
func (p *SimPlatform) restartMonitor() {
	l := &p.mon
	if l.m == nil {
		return
	}
	if l.judging {
		panic("enclave: an AEX from inside a monitor callback")
	}
	p.touchMonitor()
	replan := l.moved // the aborted head's count differed from a whole window's
	p.beginWindow()
	if replan {
		p.planMonitor()
		return
	}
	p.armMonitor()
}

// onTSCManipulated moves the end of the window in flight to where the
// manipulation at the given instant has put its tick target. It runs
// after every manipulation, so a target not yet worked out is the view
// the latest one replaced, read at start, plus the monitor's ticks. A
// target the manipulation put the TSC at or past completes the window
// there and then, inside the manipulation.
func (p *SimPlatform) onTSCManipulated(at simtime.Instant) {
	l := &p.mon
	if l.m == nil {
		return
	}
	if l.judging {
		panic("enclave: a TSC manipulation from inside a monitor callback")
	}
	p.touchMonitor()
	if !l.moved {
		l.target = p.tsc.ReadPriorAt(l.start) + l.m.ticks
		l.moved = true
	}
	l.end = p.tsc.TimeOfReaching(l.target, at)
	l.span = p.windowSpan(l.m.ticks)
	p.planMonitor()
	p.touchMonitor()
}

// resetMonitor re-baselines the monitor (RateMonitor.Reset).
func (p *SimPlatform) resetMonitor() {
	p.touchMonitor()
	p.mon.m.state = monitorState{}
	p.replanMonitor()
}

// idealCounts are the noise-free counts of a window lasting elapsed:
// elapsed seconds times the INC rate (core frequency over cycles per
// INC) and times the memory access rate.
//
//triad:hotpath
func (p *SimPlatform) idealCounts(elapsed time.Duration) (inc, mem float64) {
	s := elapsed.Seconds()
	return s * p.core.FreqHz / p.core.CyclesPerINC, s * p.memModel.AccessesPerSec
}

// headCounts are the measured counts of the head window, whose noise
// the buffer holds.
//
//triad:hotpath
func (p *SimPlatform) headCounts() (inc, mem float64) {
	l := &p.mon
	return p.counts(l.end.Sub(l.start), &l.noise[l.next])
}

// counts are the measured counts of a window lasting elapsed with noise
// n.
//
//triad:hotpath
func (p *SimPlatform) counts(elapsed time.Duration, n *windowNoise) (inc, mem float64) {
	incIdeal, memIdeal := p.idealCounts(elapsed)
	return p.incModel.count(incIdeal, n.inc, n.incOff), p.memModel.count(memIdeal, n.mem)
}

// judgeHead judges the head, which the plan found calls no callback,
// and moves on past it.
//
//triad:hotpath
func (p *SimPlatform) judgeHead() {
	m := p.mon.m
	inc, mem := p.headCounts()
	m.judgeINC(&m.state, inc)
	if m.memEnabled {
		m.judgeMem(&m.state, mem)
	}
	p.advanceHead(1)
}

// advanceHead moves the head n windows on, past windows whose
// judgement the state ahead holds or a caller made: the windows after
// the head are whole spans, so the new head begins (n-1) spans after
// the old one's end.
//
//triad:hotpath
func (p *SimPlatform) advanceHead(n int) {
	l := &p.mon
	if n == 0 {
		return
	}
	if l.record != nil {
		l.record(n)
	}
	l.next += n
	l.due -= n
	l.start = l.end.Add(time.Duration(n-1) * l.span)
	l.end = l.start.Add(l.span)
	l.moved = false
}

// fireMonitor runs at the end of the window the timer was set at: it
// commits the windows before that one and then that one — with its
// callbacks, if it calls back — and plans ahead again. At the end of a
// quiet gap, that window is the crossing one: its noise is drawn here.
//
//triad:hotpath
func (p *SimPlatform) fireMonitor() {
	l := &p.mon
	if l.quiet {
		p.passQuiet(l.due)
		l.quiet = false
		l.next, l.drawn = 0, 1
		p.drawCrossing(&l.noise[0])
	} else {
		n := l.due
		if !l.verdict {
			n++
		}
		p.advanceHead(n)
		l.m.state = l.ahead
		if !l.verdict {
			p.planMonitor()
			return
		}
	}
	l.judging = true
	l.m.Observe(p.headCounts())
	l.judging = false
	p.advanceHead(1)
	p.planMonitor()
}

// planMonitor plans the windows from the head and sets the timer: at
// the end of a quiet gap's crossing window (planQuiet) when it can,
// else — running the judge ahead from the head on a copy of the
// monitor's state, over the noise drawn — at the end of the first
// window that calls back, or of the last one drawn. A gap it replans
// inside is dropped: the windows are independent, so a fresh gap from
// the head has the law the rest of the old one had.
//
//triad:hotpath
func (p *SimPlatform) planMonitor() {
	l := &p.mon
	if l.quiet {
		l.quiet = false
		l.next, l.drawn = 0, 0
	}
	l.drawn = copy(l.noise[:], l.noise[l.next:l.drawn])
	l.next = 0
	if l.drawn == 0 && p.planQuiet() {
		p.armMonitor()
		return
	}
	p.drawMonitorNoise()
	l.ahead = l.m.state
	j := p.judgeAhead(&l.ahead, l.drawn)
	l.verdict = j < l.drawn
	if !l.verdict {
		l.due = l.drawn - 1
	} else {
		// Judged through the window that calls back: judge again, up to
		// it.
		l.due = j
		l.ahead = l.m.state
		p.judgeAhead(&l.ahead, j)
	}
	p.armMonitor()
}

// judgeAhead judges up to n windows from the head on s, and returns
// the index of the first whose counts call back, or n.
//
//triad:hotpath
func (p *SimPlatform) judgeAhead(s *monitorState, n int) int {
	l := &p.mon
	m := l.m
	incIdeal, memIdeal := p.idealCounts(l.end.Sub(l.start))
	incSpan, memSpan := p.idealCounts(l.span)
	for j := 0; j < n; j++ {
		if j == 1 {
			incIdeal, memIdeal = incSpan, memSpan
		}
		w := &l.noise[j]
		if fn, _ := m.judgeINC(s, p.incModel.count(incIdeal, w.inc, w.incOff)); fn != nil {
			return j
		}
		if !m.memEnabled {
			continue
		}
		if fn, _ := m.judgeMem(s, p.memModel.count(memIdeal, w.mem)); fn != nil {
			return j
		}
	}
	return n
}

// armMonitor sets the timer at the end of the window due windows after
// the head, ahead of every other entry there, or stops it when that end
// lies past the range of simulated time.
//
//triad:hotpath
func (p *SimPlatform) armMonitor() {
	if at, ok := p.timerAt(); ok {
		p.mon.timer.SetFirst(at)
	} else {
		p.mon.timer.Stop()
	}
}

// timerAt is the end of the window due windows after the head, where
// the timer is set: the windows after the head are whole spans. It
// reports false when that end lies past the last instant.
//
//triad:hotpath
func (p *SimPlatform) timerAt() (simtime.Instant, bool) {
	l := &p.mon
	if l.due > p.maxDue() {
		return 0, false
	}
	return l.end.Add(time.Duration(l.due) * l.span), true
}

// maxDue is the most windows after the head whose end is an instant.
//
//triad:hotpath
func (p *SimPlatform) maxDue() int {
	l := &p.mon
	return int((math.MaxInt64 - int64(l.end)) / int64(l.span))
}

// quietMargin is the share of a baseline the quiet bounds give up, so
// that no rounding in a count or in its judgement can flip a decision
// a bound made: those errors are a few ulps of the count, ~1e-16 of it.
const quietMargin = 1e-9

// maxCrossing is the largest chance of a crossing (quietLaw) a gap is
// planned at: a gap pays only when most windows are quiet, and under
// it every bound exceeds 0.67, where drawCrossing's rejection loops
// accept more than half their tries.
const maxCrossing = 0.5

// planQuiet plans a quiet gap from the head when the head is a whole
// window, the core's warm-up measurement is drawn and every counter has
// a learnt baseline: it draws the number of quiet windows before the
// first whose normals cross a bound — geometric, each window crossing
// with the chance pc quietLaw gives — and sets the timer's window at
// that crossing one. When pc is 0, or the crossing window would end
// past the last instant, due is math.MaxInt: the timer stays unarmed
// and only touch points commit the gap's windows.
//
//triad:hotpath
func (p *SimPlatform) planQuiet() bool {
	l := &p.mon
	if l.exact || l.moved || !p.drewINC {
		return false
	}
	_, _, _, pc, ok := p.quietLaw()
	if !ok || pc >= maxCrossing {
		return false
	}
	l.quiet, l.due = true, math.MaxInt
	if pc > 0 {
		// 1-Float64 is in (0, 1], so the gap is finite and at least 0.
		gap := math.Floor(math.Log(1-p.rng.Float64()) / math.Log1p(-pc))
		if gap <= float64(p.maxDue()) {
			l.due = int(gap)
		}
	}
	return true
}

// quietLaw is the law of a whole window's normals against the quiet
// bounds: the bounds (quietBounds), the chance a = 2Q(xINC) that the
// INC normal crosses its bound and the chance pc = a + (1-a)·2Q(xMem)
// that one of the window's normals does (the memory term 0 without a
// memory counter), Q the standard normal's tail. ok is false while a
// counter has no learnt baseline.
//
//triad:hotpath
func (p *SimPlatform) quietLaw() (xINC, xMem, a, pc float64, ok bool) {
	mem := p.mon.m.memEnabled
	xINC, xMem = p.quietBounds()
	if !(xINC > 0) || mem && !(xMem > 0) {
		return 0, 0, 0, 0, false
	}
	a = math.Erfc(xINC / math.Sqrt2)
	pc = a
	if mem {
		pc += (1 - a) * math.Erfc(xMem/math.Sqrt2)
	}
	return xINC, xMem, a, pc, true
}

// quietBounds are the largest magnitudes of a whole window's
// standard-normal INC and memory draws z for which its counts stay
// within tolerance of the learnt baselines b, whatever its outlier
// roll; 0 for a counter without a baseline. An INC count misses b by at
// most |ideal-b| + NoiseSigma·|z| + |OutlierOffset|, a memory count by
// |ideal-b| + ideal·NoiseFrac·|z|; clamping a count at 0 only brings it
// nearer b. Each bound gives up quietMargin of b.
//
//triad:hotpath
func (p *SimPlatform) quietBounds() (xINC, xMem float64) {
	l := &p.mon
	m := l.m
	incIdeal, memIdeal := p.idealCounts(l.span)
	if b := m.state.inc.baseline; b > 0 {
		off := 0.0
		if p.incModel.OutlierProb > 0 {
			off = math.Abs(p.incModel.OutlierOffset)
		}
		xINC = (m.incTol*b - math.Abs(incIdeal-b) - off - quietMargin*b) / math.Abs(p.incModel.NoiseSigma)
	}
	if b := m.state.mem.baseline; b > 0 {
		xMem = (m.memTol*b - math.Abs(memIdeal-b) - quietMargin*b) / math.Abs(memIdeal*p.memModel.NoiseFrac)
	}
	return xINC, xMem
}

// drawCrossing draws the noise of a gap's crossing window: its normals'
// law given that one crosses its bound (quietLaw). With chance a/pc the
// INC normal crosses and the memory one is unconditioned; otherwise the
// INC normal stays under its bound and the memory one crosses. The
// outlier roll, which the bounds allow for, is drawn as drawWindow
// draws it.
func (p *SimPlatform) drawCrossing(n *windowNoise) {
	rng := p.rng
	mem := p.mon.m.memEnabled
	xINC, xMem, a, pc, _ := p.quietLaw()
	var zINC, zMem float64
	if !mem || rng.Float64()*pc < a {
		zINC = tailNormal(rng, xINC)
		if mem {
			zMem = rng.NormFloat64()
		}
	} else {
		zINC = bodyNormal(rng, xINC)
		zMem = tailNormal(rng, xMem)
	}
	m := p.incModel
	n.inc, n.incOff = m.NoiseSigma*zINC, 0
	if m.OutlierProb > 0 && rng.Float64() < m.OutlierProb {
		n.incOff = m.OutlierOffset
	}
	n.mem = p.memModel.NoiseFrac * zMem
}

// tailNormal draws a standard normal given |z| >= x, for x > 0:
// Marsaglia's tail method (Technometrics 6, 1964) for z >= x, and a
// uniform sign.
func tailNormal(rng *sim.RNG, x float64) float64 {
	for {
		// 1-Float64 is in (0, 1], so the log is finite.
		z := math.Sqrt(x*x - 2*math.Log(1-rng.Float64()))
		if rng.Float64()*z < x {
			if rng.Uint64()&1 == 0 {
				return -z
			}
			return z
		}
	}
}

// bodyNormal draws a standard normal given |z| < x, by rejection.
func bodyNormal(rng *sim.RNG, x float64) float64 {
	for {
		if z := rng.NormFloat64(); math.Abs(z) < x {
			return z
		}
	}
}

// drawMonitorNoise draws windows to fill the buffer.
//
//triad:hotpath
func (p *SimPlatform) drawMonitorNoise() {
	l := &p.mon
	for ; l.drawn < noiseWindows; l.drawn++ {
		p.drawWindow(&l.noise[l.drawn], l.m.memEnabled)
	}
}

// drawWindow draws one window's noise in the order its completions
// draw it: INC's Gaussian term, then — past the core's first
// measurement — its outlier roll, then the memory counter's term.
//
//triad:hotpath
func (p *SimPlatform) drawWindow(n *windowNoise, mem bool) {
	n.inc, n.incOff = p.incModel.draw(!p.drewINC, p.rng)
	p.drewINC = true
	if mem {
		n.mem = p.memModel.draw(p.rng)
	}
}
