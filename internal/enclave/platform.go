// Package enclave defines the execution environment a Triad node runs
// in — the view from inside the TEE — and provides the simulated
// implementation used by all experiments.
//
// The protocol logic in internal/core is written exclusively against the
// Platform interface: in-enclave TSC reads, AEX-Notify callbacks,
// INC-instruction rate measurements, datagram I/O, and TSC-denominated
// timers. That is precisely the paper's trust boundary: everything else
// (scheduling, interrupts, the network, the hypervisor's view of the
// TSC) belongs to the attacker.
package enclave

import "triadtime/internal/simnet"

// CancelFunc cancels a pending timer, authoritatively: once it returns
// the timer never fires, even if it was already due. Calling it after
// the timer fired or was already cancelled is a no-op.
type CancelFunc func()

// AEXGate is implemented by a platform that hands AEXs to its dispatch
// loop from other goroutines (the live transport). AEXPending reports,
// from any goroutine, whether an AEX has been handed over that the AEX
// handler has not finished handling: readers of the trusted clock off
// the loop refuse to serve while it does, so a taint is visible the
// moment it is raised, not when the loop gets to it.
type AEXGate interface {
	AEXPending() bool
}

// Platform is the enclave's window on the world. Implementations: the
// discrete-event simulation (SimPlatform) and the live UDP runtime
// (internal/transport).
//
// Platforms are event-driven: handlers are invoked by the platform, and
// all Platform methods must be called from platform-dispatched callbacks
// (or before the platform starts). Implementations serialize delivery,
// so node logic needs no locking.
type Platform interface {
	// ReadTSC returns the guest-visible TimeStamp Counter. With SGX2
	// semantics, reading it does not exit the enclave; the value is
	// whatever the (possibly malicious) hypervisor exposes.
	ReadTSC() uint64

	// BootTSCHz is the TSC frequency the OS measured at boot time
	// (2899.999 MHz on the paper's machine). It is a hint from outside
	// the TCB: the protocol may use it to size timeouts, but trusted
	// rates must come from calibration against the Time Authority.
	BootTSCHz() float64

	// Send transmits an encrypted datagram. Delivery is best-effort:
	// the attacker may delay or drop it.
	Send(to simnet.Addr, payload []byte)

	// AfterTicks schedules fn once the guest TSC has advanced by ticks.
	// This models an in-enclave spin/deadline on the TSC, the only
	// "timer" an enclave can have without trusting the OS.
	AfterTicks(ticks uint64, fn func()) CancelFunc

	// SetAEXHandler registers the AEX-Notify callback: it runs when the
	// enclave's monitoring thread resumes after an Asynchronous Enclave
	// Exit. There is exactly one handler; later calls replace it.
	SetAEXHandler(fn func())

	// SetMessageHandler registers the datagram delivery callback.
	// There is exactly one handler; later calls replace it.
	SetMessageHandler(fn func(from simnet.Addr, payload []byte))

	// StartMonitor runs m on the monitoring thread: back-to-back
	// windows of m.Ticks() guest ticks, each counting loop iterations
	// ("INC instructions") and, when m.MemEnabled(), memory accesses
	// (whose rate is set by the memory subsystem, not the core's DVFS
	// state: the paper's §IV-A.1 answer to RQ A.1), judged by m in
	// completion order. An AEX discards the window in flight and the
	// next starts at once. One monitor per platform: a second panics.
	StartMonitor(m *RateMonitor)
}
