package enclave

import "math"

// RateMonitor is the TSC-monitoring thread's logic, shared by the
// original and hardened protocol nodes: it continuously measures the
// INC-instruction count per fixed guest-TSC window and (optionally)
// the frequency-independent memory-access count over the same window,
// comparing each against a learned baseline.
//
// Detection logic per §IV-A.1:
//
//   - a hypervisor scaling or jumping the guest TSC shifts BOTH counts
//     → either monitor flags it;
//   - an attacker masking a TSC scaling with a proportional core DVFS
//     change keeps the INC count steady but cannot move the memory
//     subsystem's rate → only the memory monitor flags it;
//   - an honest DVFS change shifts only the INC count; the combination
//     (INC moved, memory steady) identifies it, and the monitor
//     re-baselines INC rather than crying wolf — frequency settings
//     are discrete and legal for the OS to change.
//
// The monitor holds the decision logic; the platform runs the windows
// (Platform.StartMonitor) and hands each completed one to the judge,
// judgeINC then judgeMem, in completion order.
type RateMonitor struct {
	platform Platform

	ticks      uint64
	incTol     float64
	memEnabled bool
	memTol     float64
	state      monitorState

	// OnDiscrepancy fires when TSC tampering is concluded; rel is the
	// relative deviation observed.
	onDiscrepancy func(rel float64)
	// onFreqChange fires when an (honest or masking-failed) core
	// frequency change is identified: INC moved, memory steady.
	onFreqChange func(rel float64)
	// reset re-baselines the counters; a platform that judges windows
	// ahead of its timer installs its own (StartMonitor).
	reset func()

	started bool
}

// monitorState is everything the judge learns from the counts: one
// baseline per counter. It is a plain value, so that a platform can run
// the judge ahead on a copy.
type monitorState struct {
	inc, mem baselineState
}

// baselineLearnWindows is how many post-warm-up windows are averaged
// into a baseline, diluting per-window measurement noise.
const baselineLearnWindows = 4

// baselineState tracks one counter's learned baseline; the first
// measurement is discarded as warm-up (the paper's first-run outlier,
// and — after a reset — the window that straddled the transition), and
// the next few are averaged into the baseline.
type baselineState struct {
	measured int
	learnSum float64
	baseline float64
	strikes  int
}

// observe returns the relative deviation and whether a baseline exists.
func (s *baselineState) observe(count float64) (rel float64, ok bool) {
	s.measured++
	switch {
	case s.measured == 1:
		return 0, false // warm-up
	case s.baseline == 0:
		s.learnSum += count
		if s.measured-1 >= baselineLearnWindows {
			s.baseline = s.learnSum / baselineLearnWindows
			s.learnSum = 0
		}
		return 0, false
	default:
		return math.Abs(count-s.baseline) / s.baseline, true
	}
}

// strike debounces detections: one deviating window may merely straddle
// a transition (a manipulation or a legal frequency change lands mid
// window); two consecutive deviations cannot.
func (s *baselineState) strike(deviant bool) (conclude bool) {
	if !deviant {
		s.strikes = 0
		return false
	}
	s.strikes++
	return s.strikes >= 2
}

// passQuiet steps the state over n windows whose counts lie within
// tolerance of the learnt baseline: observe counts each, and strike
// finds none deviant.
func (s *baselineState) passQuiet(n int) {
	s.measured += n
	s.strikes = 0
}

// reset forgets the baseline entirely: the next window is discarded as
// warm-up (it may straddle whatever transition caused the reset) and
// the following windows are re-learned into a new baseline.
func (s *baselineState) reset() {
	s.baseline = 0
	s.learnSum = 0
	s.measured = 0
	s.strikes = 0
}

// MonitorConfig configures a RateMonitor.
type MonitorConfig struct {
	// INCTicks is the window (guest ticks) of both counters: the memory
	// monitor counts over the INC window, and the two restart together.
	// INCTol is the relative INC deviation flagged.
	INCTicks uint64
	INCTol   float64
	// EnableMem turns on the frequency-independent memory monitor.
	EnableMem bool
	// MemTol is the relative memory deviation flagged: it must clear the
	// memory counter's ~1% noise by a wide margin while staying far
	// below any discrete DVFS step ratio (default 0.08).
	MemTol float64
	// OnDiscrepancy is required: called on concluded TSC tampering.
	OnDiscrepancy func(rel float64)
	// OnFreqChange is optional: called when a core frequency change is
	// identified instead.
	OnFreqChange func(rel float64)
}

// NewRateMonitor creates the monitor. Call Start once.
func NewRateMonitor(platform Platform, cfg MonitorConfig) *RateMonitor {
	memTol := cfg.MemTol
	if memTol <= 0 {
		memTol = 0.08
	}
	return &RateMonitor{
		platform:      platform,
		ticks:         cfg.INCTicks,
		incTol:        cfg.INCTol,
		memEnabled:    cfg.EnableMem,
		memTol:        memTol,
		onDiscrepancy: cfg.OnDiscrepancy,
		onFreqChange:  cfg.OnFreqChange,
	}
}

// Start launches the monitoring loop. Idempotent.
func (m *RateMonitor) Start() {
	if m.started {
		return
	}
	m.started = true
	m.platform.StartMonitor(m)
}

// Reset re-baselines both counters — call after a deliberate
// recalibration, when the TSC relationship legitimately changed.
func (m *RateMonitor) Reset() {
	if m.reset != nil {
		m.reset()
		return
	}
	m.state = monitorState{}
}

// Ticks is the window length in guest ticks.
func (m *RateMonitor) Ticks() uint64 { return m.ticks }

// MemEnabled reports whether windows count memory accesses too.
func (m *RateMonitor) MemEnabled() bool { return m.memEnabled }

// Observe judges one completed window: its INC count and, when the
// memory monitor is on, its memory count. It runs the callbacks the
// counts call for, INC's before the memory count is judged.
func (m *RateMonitor) Observe(incCount, memCount float64) {
	if fn, rel := m.judgeINC(&m.state, incCount); fn != nil {
		fn(rel)
	}
	if !m.memEnabled {
		return
	}
	if fn, rel := m.judgeMem(&m.state, memCount); fn != nil {
		fn(rel)
	}
}

// judgeINC steps s with one INC count and returns the callback the
// count calls for, with its argument; nil when it calls for none.
//
//triad:hotpath
func (m *RateMonitor) judgeINC(s *monitorState, count float64) (func(rel float64), float64) {
	rel, ok := s.inc.observe(count)
	if !ok || !s.inc.strike(rel > m.incTol) {
		return nil, 0
	}
	s.inc.reset()
	if !m.memEnabled {
		// INC-only mode (original Triad single-monitor configuration):
		// a sustained deviation is treated as TSC tampering.
		return m.onDiscrepancy, rel
	}
	// Dual mode: a sustained INC shift alone is ambiguous — TSC scaling
	// or DVFS. Re-baseline INC and report a frequency change; if the
	// cause was actually TSC tampering, the frequency-independent
	// memory monitor flags it within its own windows.
	return m.onFreqChange, rel
}

// judgeMem steps s with one memory count, as judgeINC does.
//
//triad:hotpath
func (m *RateMonitor) judgeMem(s *monitorState, count float64) (func(rel float64), float64) {
	rel, ok := s.mem.observe(count)
	if !ok || !s.mem.strike(rel > m.memTol) {
		return nil, 0
	}
	// The memory rate is DVFS-independent: a sustained deviation here
	// is TSC manipulation, full stop.
	s.mem.reset()
	s.inc.reset()
	return m.onDiscrepancy, rel
}
