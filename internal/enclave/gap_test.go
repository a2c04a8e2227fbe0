package enclave

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
)

// crossingTol is the tolerance at which a monitor's learnt INC baseline
// b puts the quiet bound xINC at x: quietBounds solved for the
// tolerance.
func crossingTol(p *SimPlatform, x float64) float64 {
	b := p.mon.m.state.inc.baseline
	ideal, _ := p.idealCounts(p.mon.span)
	return (x*p.incModel.NoiseSigma + math.Abs(ideal-b) + math.Abs(p.incModel.OutlierOffset) + quietMargin*b) / b
}

// crossingBound is the x with 2Q(x) = pc, by bisection on math.Erfc.
func crossingBound(pc float64) float64 {
	lo, hi := 0.0, 40.0
	for range 200 {
		if mid := (lo + hi) / 2; math.Erfc(mid/math.Sqrt2) > pc {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TestQuietGapArmsAndCommits plans a quiet gap on an INC-only core at a
// chance of a crossing per window of 0, 1e-14 and 1e-2, and requires
// the loop's timer at the end of the crossing window — the head's end
// plus the gap in whole spans — when that lies within simulated time,
// and unarmed otherwise: with no crossing at all, and for a gap of
// ~1e14 windows, which no int64 of nanoseconds reaches. An AEX a few
// windows on must commit exactly the windows that ended by then, and
// the timer must follow the head by the gap that is left.
func TestQuietGapArmsAndCommits(t *testing.T) {
	for _, want := range []float64{0, 1e-14, 1e-2} {
		t.Run(fmt.Sprint(want), func(t *testing.T) {
			sched, ps := monitoredCores(1, false)
			p := ps[0]
			l := &p.mon
			sched.RunUntil(simtime.FromSeconds(1)) // past warm-up and baseline learning
			p.touchMonitor()
			if want > 0 {
				l.m.incTol = crossingTol(p, crossingBound(want))
			}
			// Replan until the gap leaves room for three windows before
			// its crossing one.
			for p.replanMonitor(); l.quiet && l.due < 3; p.replanMonitor() {
			}
			if !l.quiet {
				t.Fatal("no quiet gap planned")
			}
			if _, _, _, pc, _ := p.quietLaw(); math.Abs(pc-want) > 1e-6*want {
				t.Fatalf("a crossing per window has chance %v, want %v", pc, want)
			}
			checkArmed := func() {
				t.Helper()
				last := p.maxDue()
				at, armed := sched.NextAt()
				switch {
				case want == 0 && l.due <= last:
					t.Errorf("a gap of %d windows with no chance of a crossing", l.due)
				case l.due <= last && (!armed || at != l.end.Add(time.Duration(l.due)*l.span)):
					t.Errorf("timer at %v (armed %v), want the end of the window %d after the head ending at %v", at, armed, l.due, l.end)
				case l.due > last && armed:
					t.Errorf("timer armed at %v for a gap of %d windows, past the last instant", at, l.due)
				}
			}
			checkArmed()
			t.Logf("gap of %d windows", l.due)
			measured, due, end := l.m.state.inc.measured, l.due, l.end
			aex := end.Add(2*l.span + l.span/2)
			sched.RunUntil(aex)
			p.FireAEX()
			if got := l.m.state.inc.measured - measured; got != 3 {
				t.Errorf("an AEX inside the gap's fourth window committed %d windows, want 3", got)
			}
			if l.due != due-3 || l.end != aex.Add(l.span) || !l.quiet {
				t.Errorf("after the AEX: gap %d (quiet %v), head ending at %v; want %d, %v", l.due, l.quiet, l.end, due-3, aex.Add(l.span))
			}
			checkArmed()
		})
	}
}

// gapVariant is the tight oracle variant's INC model — one window in
// ten an outlier — with both counters' quiet bounds a few sigmas wide:
// a window's normals cross one with a chance of about 1e-2.
func gapVariant() (INCModel, MonitorConfig) {
	m := PaperINCModel()
	m.OutlierProb = 0.1
	return m, MonitorConfig{
		INCTicks:      15e6,
		INCTol:        (math.Abs(m.OutlierOffset) + 3.2*m.NoiseSigma) / simtime.PaperINCPer15MTicks,
		EnableMem:     true,
		MemTol:        0.032,
		OnDiscrepancy: func(float64) {},
	}
}

// crossing is one seed's first quiet gap: the quiet windows before the
// first whose normals cross a bound, that window's counts, and the
// chance of a crossing per window.
type crossing struct {
	index    int
	inc, mem float64
	pc       float64
}

// lazyCrossing runs the monitoring loop on seed up to its first quiet
// gap and through its crossing window. It also returns how many windows
// came before the gap, the bounds and the baselines the gap was planned
// at; ok is false when no gap is planned in the first second.
func lazyCrossing(seed uint64) (c crossing, head int, x, base [2]float64, ok bool) {
	model, cfg := gapVariant()
	sched := sim.NewScheduler()
	net := simnet.New(sched, sim.NewRNG(0), simnet.Link{Base: time.Millisecond})
	p := NewSimPlatform(sched, sim.NewRNG(seed), net, SimConfig{Addr: 1, TSC: simtime.NewTSC(simtime.NominalTSCHz, 7e9), INCModel: model})
	NewRateMonitor(p, cfg).Start()
	l := &p.mon
	passed, gap, done := 0, false, false
	onPass(p, func(_ simtime.Instant, inc, mem float64) {
		if gap && !l.quiet && !done {
			c.inc, c.mem, done = inc, mem, true
		}
		passed++
	})
	for !l.quiet {
		if sched.Now() > simtime.FromSeconds(1) || !sched.Step() {
			return c, 0, x, base, false
		}
	}
	head, gap = passed, true
	var pc float64
	x[0], x[1], _, pc, _ = p.quietLaw()
	base = [2]float64{l.m.state.inc.baseline, l.m.state.mem.baseline}
	c.index, c.pc = l.due, pc
	sched.Step()
	if !done {
		panic("the gap's firing judged no crossing window")
	}
	return c, head, x, base, true
}

// eagerCrossing runs the eager reference on seed and returns the first
// window from the head-th on whose normals cross the bounds x, indexed
// from the head-th, with the baselines learnt before it.
func eagerCrossing(seed uint64, head int, x [2]float64) (c crossing, base [2]float64) {
	model, cfg := gapVariant()
	sched := sim.NewScheduler()
	e := newEagerCore(sched, sim.NewRNG(seed), simtime.NewTSC(simtime.NominalTSCHz, 7e9), model, cfg)
	w, found := 0, false
	var zINC float64
	e.counted = func(counter string, count, z float64) {
		if counter == "inc" {
			zINC, c.inc = z, count
			return // the window's memory count comes next
		}
		c.mem = count
		if w == head {
			base = [2]float64{e.incState.baseline, e.memState.baseline}
		}
		if w >= head && !found && (math.Abs(zINC) >= x[0] || math.Abs(z) >= x[1]) {
			c.index, found = w-head, true
		}
		w++
	}
	e.start()
	for !found && sched.Step() {
	}
	return c, base
}

// TestQuietGapMatchesEagerLaw checks the quiet gap's sampler against
// the eager reference, which draws every window. On each seed both
// sides share the exact path up to the lazy loop's first gap, and so
// its bounds; from there the lazy loop draws the gap and its crossing
// window, and the eager side draws windows until one crosses. Over
// 10000 seeds — at a chance of a crossing per window near 1e-2 — the
// first-crossing indices, mapped through each seed's geometric law onto
// [0, 1) and put in 20 bins, must pass a chi-square test of homogeneity
// (19 degrees of freedom), and the crossing windows' INC and memory
// counts two-sample Kolmogorov-Smirnov tests, each at α = 0.001. A gap
// drawn with its chance of a crossing 10 % off, or a crossing window
// drawn without its conditioning, fails them.
func TestQuietGapMatchesEagerLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("10000 seeds on both sides")
	}
	const (
		samples = 10000
		bins    = 20
		chi2Max = 43.82 // the χ² law's 0.999 quantile at 19 degrees of freedom
		ksC     = 1.949 // sqrt(-ln(0.001/2)/2): the K-S critical value's factor at α = 0.001
	)
	var lazyBins, eagerBins [bins]int
	var lazyINC, eagerINC, lazyMem, eagerMem []float64
	meanPC, skipped := 0.0, 0
	for seed := uint64(1); len(lazyINC) < samples; seed++ {
		lz, head, x, base, ok := lazyCrossing(seed)
		if !ok {
			skipped++ // an outlier in the baseline: its bound is never positive
			continue
		}
		eg, eBase := eagerCrossing(seed, head, x)
		if eBase != base {
			t.Fatalf("seed %d: the eager side learnt baselines %v, the lazy one %v", seed, eBase, base)
		}
		bin := func(k int) int {
			return min(int((1-math.Pow(1-lz.pc, float64(k)))*bins), bins-1)
		}
		lazyBins[bin(lz.index)]++
		eagerBins[bin(eg.index)]++
		lazyINC, eagerINC = append(lazyINC, lz.inc), append(eagerINC, eg.inc)
		lazyMem, eagerMem = append(lazyMem, lz.mem), append(eagerMem, eg.mem)
		meanPC += lz.pc / samples
	}
	t.Logf("%d seeds, %d without a gap; mean chance of a crossing %.4f", samples+skipped, skipped, meanPC)
	chi2 := 0.0
	for i := range lazyBins {
		if n := lazyBins[i] + eagerBins[i]; n > 0 {
			d := float64(lazyBins[i] - eagerBins[i])
			chi2 += d * d / float64(n)
		}
	}
	t.Logf("first-crossing index: χ² %.2f over %d bins (lazy %v, eager %v)", chi2, bins, lazyBins, eagerBins)
	if chi2 > chi2Max {
		t.Errorf("first-crossing index: χ² %.2f, over the 0.999 quantile %.2f", chi2, chi2Max)
	}
	dMax := ksC * math.Sqrt(2.0/samples)
	for _, c := range []struct {
		name        string
		lazy, eager []float64
	}{{"INC", lazyINC, eagerINC}, {"memory", lazyMem, eagerMem}} {
		d := ksDistance(c.lazy, c.eager)
		t.Logf("%s counts of the crossing window: K-S distance %.4f (critical %.4f)", c.name, d, dMax)
		if d > dMax {
			t.Errorf("%s counts of the crossing window: K-S distance %.4f, over the critical %.4f", c.name, d, dMax)
		}
	}
}

// ksDistance is the two-sample Kolmogorov-Smirnov statistic: the
// largest gap between the two samples' empirical distribution
// functions. It sorts both.
func ksDistance(a, b []float64) float64 {
	slices.Sort(a)
	slices.Sort(b)
	d := 0.0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}
