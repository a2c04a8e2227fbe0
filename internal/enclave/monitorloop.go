package enclave

import (
	"fmt"
	"math"
	"time"

	"triadtime/internal/sim"
	"triadtime/internal/simtime"
)

// noiseWindows is how many windows of measurement noise a monitoring
// loop draws ahead: the furthest it judges ahead of the scheduler, and
// so the longest it goes without a firing while no window calls back.
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
// RNG is drawn only by window completions, in completion order. So the
// loop draws the noise of noiseWindows windows ahead, runs the judge
// over them on a copy of the monitor's state, and sets its one timer at
// the end of the first window whose counts call back — or of the last
// window drawn. When the timer fires, the monitor takes the state the
// copy reached; when something that changes the windows touches the
// loop first — an AEX, a TSC manipulation, a core-frequency change or a
// monitor reset — the windows that ended by then are judged then, with
// the same draws and arithmetic. The plan is indexed by completion, not
// by time, so an AEX only moves the windows' ends: it plans nothing
// again, unless the window it aborts was one a manipulation had moved.
//
// Once every counter has a learnt baseline, nearly every window is
// quiet: its counts cannot leave tolerance, so its judgement is
// measured++, strikes = 0. From a whole head, the loop bounds each
// counter's standard-normal draw so that a window under both bounds
// cannot deviate, whatever its outlier roll, and scans the next
// noiseWindows windows' draws off the RNG without storing them. While
// both bounds exceed sim.MaxFastNormal, the largest magnitude the
// ziggurat's fast branch returns, a window whose normals all take that
// branch clears them by construction: sim.RNG.SkipFastWindows passes
// such windows by LCG jump-ahead, computing only their normals' states
// and outputs, and the scan draws only the windows in between. If all
// clear their bounds, the block's plan is arithmetic: its firing moves
// the head past it with one multiply, and a touch point inside it
// commits the windows that ended by then in one step. The block keeps
// only the RNG's mark at its start. A replan inside it scans again from
// the head — back to the mark, past the windows committed — and may
// find the rest quiet again. Otherwise the RNG goes back to the mark
// and the windows take the exact path above.
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
	// quiet is set while noise[:drawn] is a quiet block (planQuiet):
	// windows whose draws clear the bounds, each judged measured++,
	// strikes = 0 on every counter. Their noise is not stored: mark is
	// the RNG's position before the block's first draw, where a replan
	// scans from again.
	quiet bool
	mark  sim.RNGMark
	// quietBlocks and fallbacks count the blocks planned quiet and the
	// scans that met a draw their bounds did not clear.
	quietBlocks, fallbacks int
	// ahead is the monitor's state once the windows before the timer's,
	// and the timer's own unless it calls back, are judged.
	ahead monitorState
	// due counts the windows after the head up to the one the timer is
	// set at; verdict is set when that one calls back.
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
	if p.timerAt() == now {
		p.fireMonitor()
		return
	}
	if l.quiet && l.end <= now {
		p.commitQuiet(now)
	}
	for l.end <= now {
		p.judgeHead()
	}
}

// commitQuiet commits, in one step, the quiet block's windows from a
// whole head on that end at or before at: each is judged measured++,
// strikes = 0 on every counter. Their ends are the head's plus whole
// spans, and the timer's window ends after at, so they are all the
// block's.
//
//triad:hotpath
func (p *SimPlatform) commitQuiet(at simtime.Instant) {
	l := &p.mon
	m := l.m
	n := int(at.Sub(l.end)/l.span) + 1
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
	l := &p.mon
	m := l.m
	// A quiet window's counts lie within tolerance of the learnt
	// baselines, so judging the baselines themselves steps the judge as
	// its counts would: measured++, strikes = 0.
	inc, mem := m.state.inc.baseline, m.state.mem.baseline
	if !l.quiet {
		inc, mem = p.headCounts()
	}
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
// callbacks, if it calls back — and plans ahead again.
//
//triad:hotpath
func (p *SimPlatform) fireMonitor() {
	l := &p.mon
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
	l.judging = true
	l.m.Observe(p.headCounts())
	l.judging = false
	p.advanceHead(1)
	p.planMonitor()
}

// planMonitor plans the windows from the head and sets the timer: at
// the end of a quiet block (planQuiet) when it can, else — running the
// judge ahead from the head on a copy of the monitor's state, over the
// noise drawn — at the end of the first window that calls back, or of
// the last one drawn. A quiet block it replans inside is scanned again
// from the head: the RNG goes back to the block's mark and passes the
// windows the block committed, and what is left of the block is
// planned like any other windows from there.
//
//triad:hotpath
func (p *SimPlatform) planMonitor() {
	l := &p.mon
	if l.quiet && l.next < l.drawn {
		p.rng.Rewind(l.mark)
		p.scanQuiet(l.next, math.Inf(1), math.Inf(1))
		l.drawn = l.next
	}
	l.quiet = false
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
// the head, ahead of every other entry there.
//
//triad:hotpath
func (p *SimPlatform) armMonitor() {
	p.mon.timer.SetFirst(p.timerAt())
}

// timerAt is the end of the window due windows after the head, where
// the timer is set: the windows after the head are whole spans.
//
//triad:hotpath
func (p *SimPlatform) timerAt() simtime.Instant {
	l := &p.mon
	return l.end.Add(time.Duration(l.due) * l.span)
}

// quietMargin is the share of a baseline the quiet bounds give up, so
// that no rounding in a count or in its judgement can flip a decision
// a bound made: those errors are a few ulps of the count, ~1e-16 of it.
const quietMargin = 1e-9

// planQuiet plans the next noiseWindows windows as a quiet block when
// the head is a whole window, the core's warm-up measurement is drawn,
// every counter has a learnt baseline and every normal draw of theirs
// clears its bound (quietBounds). The scan steps the RNG through the
// windows' draws and stores nothing; the plan is arithmetic. When a
// draw does not clear its bound, the RNG goes back to the block's mark
// and the exact path draws and judges the windows.
//
//triad:hotpath
func (p *SimPlatform) planQuiet() bool {
	l := &p.mon
	m := l.m
	if l.moved || !p.drewINC {
		return false
	}
	xINC, xMem := p.quietBounds()
	if !(xINC > 0) || m.memEnabled && !(xMem > 0) {
		return false
	}
	l.mark = p.rng.Mark()
	if !p.scanQuiet(noiseWindows, xINC, xMem) {
		p.rng.Rewind(l.mark)
		l.fallbacks++
		return false
	}
	l.quiet = true
	l.quietBlocks++
	l.drawn = noiseWindows
	l.ahead = m.state
	l.ahead.inc.passQuiet(noiseWindows)
	if m.memEnabled {
		l.ahead.mem.passQuiet(noiseWindows)
	}
	l.due, l.verdict = noiseWindows-1, false
	return true
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

// scanQuiet steps the RNG through n windows' draws in drawWindow's
// order — the INC normal, the outlier roll's one Uint64, the memory
// normal — storing nothing, and reports whether every normal stays
// under its bound. When both bounds exceed sim.MaxFastNormal, every
// normal the ziggurat's fast branch takes clears them by construction:
// RNG.SkipFastWindows then passes the windows up to the next one with a
// slow-branch normal at once, and only that one is drawn here.
//
//triad:hotpath
func (p *SimPlatform) scanQuiet(n int, xINC, xMem float64) bool {
	rng := p.rng
	roll := p.incModel.OutlierProb > 0
	mem := p.mon.m.memEnabled
	skip := xINC > sim.MaxFastNormal && (!mem || xMem > sim.MaxFastNormal)
	for i := 0; i < n; i++ {
		if skip {
			if i += rng.SkipFastWindows(n-i, roll, mem); i == n {
				break
			}
		}
		if math.Abs(rng.NormFloat64()) >= xINC {
			return false
		}
		if roll {
			rng.Uint64()
		}
		if mem && math.Abs(rng.NormFloat64()) >= xMem {
			return false
		}
	}
	return true
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
