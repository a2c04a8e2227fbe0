package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
)

// published is the trusted clock as the loop last published it — the
// protocol state and the anchor formula's three terms — for readers on
// other goroutines. It is a seqlock: a publish makes seq odd, stores
// the fields and makes it even again, and a reader retries until it has
// loaded every field between two equal even loads of seq. Publishing
// and reading allocate nothing.
type published struct {
	seq      atomic.Uint64
	state    atomic.Int64
	fCalib   atomic.Uint64 // math.Float64bits
	refNanos atomic.Int64
	refTSC   atomic.Uint64
}

// publish copies the loop's state and anchor to the shared snapshot.
// Every mutation of them calls it before returning to the platform.
func (e *Engine) publish() {
	p := &e.pub
	p.seq.Add(1)
	p.state.Store(int64(e.state))
	p.fCalib.Store(math.Float64bits(e.fCalib))
	p.refNanos.Store(e.refNanos)
	p.refTSC.Store(e.refTSC)
	p.seq.Add(1)
}

// clockAt is the anchor formula, now = refNanos + (tsc - refTSC)/fCalib,
// frozen at the anchor when the TSC sits behind it (a backwards jump the
// monitor has not yet caught) rather than going back in time.
func clockAt(refNanos int64, refTSC uint64, fCalib float64, tsc uint64) int64 {
	if tsc < refTSC {
		return refNanos
	}
	return refNanos + int64(float64(tsc-refTSC)/fCalib*1e9)
}

// serve advances the serving clamp to the least value above both the
// reading and everything served before, counts the serve, and returns
// that value. The clamp is one atomic strict-max (monotonic.Atomic)
// shared by the loop (peer answers, Node.TrustedNow) and every
// SharedClock reader, so served timestamps are unique and strictly
// increasing across all of them.
//
//triad:hotpath
func (e *Engine) serve(reading int64) int64 {
	ts := e.lastServed.Advance(reading)
	e.served.Add(1)
	return ts
}

// readShared takes one consistent reading of the published clock: the
// state and rate, and — while the state serves — the anchor formula at
// one ReadTSC. An AEX the platform has handed over but the engine has
// not yet handled turns a serving state into StateTainted: that is the
// state the handler moves it to, and a read must not act on a clock
// whose continuity is already known to be severed.
//
//triad:hotpath
func (e *Engine) readShared() (s State, nanos int64, fCalib float64) {
	p := &e.pub
	for {
		seq := p.seq.Load()
		if seq&1 == 0 {
			s = State(p.state.Load())
			fCalib = math.Float64frombits(p.fCalib.Load())
			nanos = 0
			if s.Serving() {
				// Checked inside the window: an AEX handed over before this
				// read began is either still pending here or already
				// handled, and then its publish fails the seq check below.
				if e.gate != nil && e.gate.AEXPending() {
					s = StateTainted
				} else {
					nanos = clockAt(p.refNanos.Load(), p.refTSC.Load(), fCalib, e.platform.ReadTSC())
				}
			}
			if p.seq.Load() == seq {
				return s, nanos, fCalib
			}
		}
		runtime.Gosched() // a publish is in flight on the loop
	}
}

// SharedClock reads a node's trusted clock from any goroutine, without
// a round trip through the platform's dispatch loop: every read is a
// lock-free load of the snapshot the loop publishes at each mutation,
// one ReadTSC and the anchor formula. It needs a platform whose ReadTSC
// is safe off the loop (the live transport's is; simulated platforms
// are single-threaded and read it on the loop). A SharedClock is a
// small value; copying it is cheap and it satisfies the serve, tsa and
// commit Clock interfaces.
type SharedClock struct{ e *Engine }

// SharedClock returns the node's off-loop clock reader.
func (n *Node) SharedClock() SharedClock { return SharedClock{n.e} }

// TrustedNow serves one trusted timestamp, as Node.TrustedNow does on
// the loop: it fails with ErrUnavailable unless the published state
// serves and no AEX is pending, and it advances the node's one serving
// clamp and its Served counter.
//
//triad:hotpath
func (c SharedClock) TrustedNow() (int64, error) {
	s, nanos, _ := c.e.readShared()
	if !s.Serving() {
		return 0, unavailable(s)
	}
	return c.e.serve(nanos), nil
}

// Reading reports the trusted clock without serving: the current
// reading, never below what the node has already served, and whether a
// TrustedNow would have succeeded. It moves neither the clamp nor the
// Served counter — the form for status pages and monitoring scrapes.
func (c SharedClock) Reading() (nanos int64, available bool) {
	s, nanos, _ := c.e.readShared()
	if !s.Serving() {
		return 0, false
	}
	return max(nanos, c.e.lastServed.Load()), true
}

// State reports the published protocol state (StateTainted from the
// moment an AEX is handed to the platform while the node serves).
func (c SharedClock) State() State {
	s, _, _ := c.e.readShared()
	return s
}

// FCalib reports the published calibrated rate (0 before the first
// calibration completes).
func (c SharedClock) FCalib() float64 {
	_, _, f := c.e.readShared()
	return f
}

// unavailableErrs holds one ErrUnavailable wrapper per state, built
// once, so a refused read allocates nothing.
var unavailableErrs = func() (errs [StateDegraded + 1]error) {
	for s := range errs {
		errs[s] = fmt.Errorf("%w: state %s", ErrUnavailable, State(s))
	}
	return errs
}()

// unavailable is the refusal for a read in state s.
func unavailable(s State) error {
	if s >= 0 && int(s) < len(unavailableErrs) {
		return unavailableErrs[s]
	}
	return ErrUnavailable
}
