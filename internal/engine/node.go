package engine

import "triadtime/internal/simnet"

// Node is the handle on a running Triad participant of any variant —
// what core.NewNode and resilient.NewNode return and what the live
// runtime, the lab and the experiment harness hold. It is the observer
// surface only: the mutators policies drive the engine with (SetState,
// ShiftReference, ...) are not reachable through it.
//
// Like the engine behind it, a Node has no locking: call it from the
// platform's dispatch context (in the simulation: from scheduler
// events; live: via the transport's Do). The one exception is the
// SharedClock it hands out, which reads the trusted clock from any
// goroutine.
type Node struct{ e *Engine }

// Node returns the engine's application-facing handle.
func (e *Engine) Node() *Node { return &Node{e} }

// Start launches the protocol: full calibration with the Time
// Authority, rate monitoring (unless disabled), and the recovery
// policy's steady-state machinery. Starting a started node is a no-op.
func (n *Node) Start() {
	e := n.e
	if e.state != StateInit {
		return
	}
	e.setState(StateFullCalib)
	e.pol.Calibration.Start(e)
	if !e.cfg.DisableMonitor {
		e.startMonitor()
	}
	e.pol.Recovery.OnStart(e)
}

// Addr reports the node's network address.
func (n *Node) Addr() simnet.Addr { return n.e.cfg.Addr }

// State reports the node's protocol state.
func (n *Node) State() State { return n.e.state }

// FCalib reports the calibrated TSC rate in ticks per reference second,
// or 0 before the first calibration completes.
func (n *Node) FCalib() float64 { return n.e.fCalib }

// Counters returns a snapshot of the protocol counters (the
// hardening-only fields stay zero on original-protocol nodes).
func (n *Node) Counters() Counters {
	c := n.e.counters
	c.Served = n.e.served.Load()
	return c
}

// TAReferences reports the Time Authority references the node adopted,
// Counters().TAReferences, without copying the other counters.
func (n *Node) TAReferences() int { return n.e.counters.TAReferences }

// TrustedNow serves one trusted timestamp (nanoseconds on the Time
// Authority's timeline). It fails with ErrUnavailable while the node
// is tainted or calibrating. Served timestamps are strictly monotonic.
func (n *Node) TrustedNow() (int64, error) {
	e := n.e
	if !e.state.Serving() {
		return 0, unavailable(e.state)
	}
	return e.serveTimestamp(), nil
}

// ClockReading reports the internal clock without availability
// checking or monotonic bumping. Instrumentation only (the experiment
// harness samples drift with it); applications must use TrustedNow.
func (n *Node) ClockReading() (int64, bool) {
	if n.e.fCalib == 0 {
		return 0, false
	}
	return n.e.ClockNow(), true
}
