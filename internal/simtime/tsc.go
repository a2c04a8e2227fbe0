package simtime

import (
	"fmt"
	"time"
)

// NominalTSCHz is the TSC rate of the paper's evaluation machine as
// measured by the OS at boot time: 2899.999 MHz.
const NominalTSCHz = 2899.999e6

// TSC models one core's TimeStamp Counter as seen from inside a guest
// (the enclave). The host TSC advances at a fixed physical rate; a
// malicious hypervisor may additionally scale the guest-visible rate or
// jump the guest-visible value, which is exactly the attacker capability
// the paper's Section III-A grants ("a hypervisor virtualizing the TSC may
// change its value's offset and scaling factor").
//
// The guest view is piecewise linear: between manipulations,
//
//	guest(t) = base + scale * hostHz * (t - baseAt).
//
// TSC is not safe for concurrent use; in the simulation all accesses are
// serialized by the event loop.
type TSC struct {
	hostHz float64 // physical tick rate, ticks per reference second
	view           // the guest view in force
	// prior is the view the latest manipulation replaced (the same as
	// the current one until there has been a manipulation).
	prior view
	gen   uint64 // manipulations applied so far

	// observers are notified after every manipulation (scale change or
	// jump): in-enclave code that waits on a TSC target — monitoring
	// windows, tick deadlines — reaches it at a different real time
	// once the guest view bends.
	observers []func(at Instant)
}

// view is one linear piece of the guest view.
type view struct {
	scale  float64 // hypervisor scaling factor applied to the guest view
	base   float64 // guest ticks at baseAt
	baseAt Instant
}

// at evaluates the piece at reference time t, for a TSC ticking at
// hostHz. Before baseAt it holds the value it has there.
func (v view) at(hostHz float64, t Instant) uint64 {
	if t < v.baseAt {
		t = v.baseAt
	}
	dt := t.Sub(v.baseAt).Seconds()
	g := v.base + v.scale*hostHz*dt
	if g < 0 {
		g = 0
	}
	return uint64(g)
}

// NewTSC creates a TSC whose physical rate is hostHz ticks per reference
// second, starting from startTicks at the epoch, with no manipulation.
func NewTSC(hostHz float64, startTicks uint64) *TSC {
	if hostHz <= 0 {
		panic(fmt.Sprintf("simtime: non-positive TSC rate %v", hostHz))
	}
	start := view{scale: 1, base: float64(startTicks), baseAt: Epoch}
	return &TSC{hostHz: hostHz, view: start, prior: start}
}

// HostHz reports the physical tick rate in ticks per reference second.
func (c *TSC) HostHz() float64 { return c.hostHz }

// Scale reports the hypervisor scaling factor currently applied.
func (c *TSC) Scale() float64 { return c.scale }

// Generation counts the manipulations (SetScale, Jump) applied so far.
// The guest view is one fixed line between two of them, so anything
// computed from it alone — how long the guest takes to advance by a
// given number of ticks — stays valid for as long as the generation
// does.
func (c *TSC) Generation() uint64 { return c.gen }

// ReadAt returns the guest-visible TSC value at reference time t.
// Reading at a time before the last manipulation returns the value as of
// that manipulation; the guest view never runs backwards.
func (c *TSC) ReadAt(t Instant) uint64 { return c.view.at(c.hostHz, t) }

// ReadPriorAt returns what ReadAt(t) returned before the latest
// manipulation. An observer that put off reading the TSC until a
// manipulation made the old value matter recovers it here.
func (c *TSC) ReadPriorAt(t Instant) uint64 { return c.prior.at(c.hostHz, t) }

// rebase folds the guest view up to time t into the base so a subsequent
// manipulation takes effect from t while keeping the view continuous.
// Every manipulation starts here, which makes it a new generation.
func (c *TSC) rebase(t Instant) {
	c.prior = c.view
	c.base = float64(c.ReadAt(t))
	c.baseAt = t
	c.gen++
}

// Observe registers a manipulation observer. Observers run after the
// manipulation is applied.
func (c *TSC) Observe(fn func(at Instant)) {
	c.observers = append(c.observers, fn)
}

func (c *TSC) notify(t Instant) {
	for _, fn := range c.observers {
		fn(t)
	}
}

// SetScale applies a hypervisor scaling factor from reference time t
// onward. The guest view stays continuous at t (hypervisors adjust the
// offset on a scale change so the guest does not observe a jump).
func (c *TSC) SetScale(scale float64, t Instant) {
	if scale <= 0 {
		panic(fmt.Sprintf("simtime: non-positive TSC scale %v", scale))
	}
	c.rebase(t)
	c.scale = scale
	c.notify(t)
}

// Jump offsets the guest-visible TSC by delta ticks at reference time t.
// Negative deltas move the guest TSC backwards (clamped at zero), the
// "jump back in time" manipulation the monitoring thread must detect.
func (c *TSC) Jump(delta int64, t Instant) {
	c.rebase(t)
	c.base += float64(delta)
	if c.base < 0 {
		c.base = 0
	}
	c.notify(t)
}

// TimeOfReaching returns the reference instant at which the guest TSC
// will reach the absolute target value, assuming no further
// manipulation. If the target is already passed, it returns from.
func (c *TSC) TimeOfReaching(target uint64, from Instant) Instant {
	cur := c.ReadAt(from)
	if cur >= target {
		return from
	}
	seconds := float64(target-cur) / (c.scale * c.hostHz)
	return from.Add(time.Duration(seconds * float64(time.Second)))
}

// TimeOfTicksAfter returns the reference instant at which the guest TSC
// will have advanced by ticks beyond its value at from, assuming no
// further manipulation. This is how in-enclave TSC-deadline timers are
// mapped onto the simulation's event queue.
func (c *TSC) TimeOfTicksAfter(from Instant, ticks uint64) Instant {
	if from < c.baseAt {
		from = c.baseAt
	}
	seconds := float64(ticks) / (c.scale * c.hostHz)
	return from.Add(time.Duration(seconds * float64(time.Second)))
}

// GuestHz reports the apparent guest tick rate (scale * hostHz).
func (c *TSC) GuestHz() float64 { return c.scale * c.hostHz }

// Core models the execution core the TSC-monitoring enclave thread is
// pinned to. With the "performance" frequency-scaling governor the core
// runs at a fixed maximum frequency, which is what makes INC-instruction
// counting a reliable TSC cross-check (paper §IV-A.1).
type Core struct {
	// FreqHz is the core's cycle rate. The paper's machine runs the
	// monitoring core at 3500 MHz under the performance governor.
	FreqHz float64
	// CyclesPerINC is the core-cycle cost of one monitoring-loop
	// iteration (TSC read + compare + counter increment). The paper's
	// measured mean of 632182 INC per 15e6 TSC ticks implies ~28.64
	// cycles per iteration on its machine.
	CyclesPerINC float64
}

// PaperCoreHz is the monitoring core's fixed frequency on the paper's
// machine under the performance governor: 3500 MHz.
const PaperCoreHz = 3500e6

// PaperINCPer15MTicks is the paper's measured mean INC count while the
// TSC advances by 15e6 ticks (§IV-A.1, outliers removed).
const PaperINCPer15MTicks = 632182

// PaperCyclesPerINC is the per-iteration cycle cost that reproduces the
// paper's measured INC counts on its 3500 MHz / 2899.999 MHz machine.
const PaperCyclesPerINC = 15e6 * (PaperCoreHz / NominalTSCHz) / PaperINCPer15MTicks

// PaperCore is the monitoring core of the paper's evaluation machine.
func PaperCore() Core {
	return Core{FreqHz: PaperCoreHz, CyclesPerINC: PaperCyclesPerINC}
}

// INCPerTicks returns the ideal number of monitoring-loop iterations
// ("INC instructions" in the paper's terminology) executed while the
// *host* TSC advances by ticks. The paper's headline figure: counting
// until the TSC incremented by 15e6 at 2899.999 MHz / 3500 MHz yields a
// mean of 632182 INC.
func (c Core) INCPerTicks(ticks float64, tscHostHz float64) float64 {
	cycles := c.CyclesPerINC
	if cycles <= 0 {
		cycles = 1
	}
	return ticks * c.FreqHz / (tscHostHz * cycles)
}
