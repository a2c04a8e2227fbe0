// Package engine is the protocol machinery shared by every Triad
// variant: the trusted-clock state and its monotonic serving, the
// Init/FullCalib/RefCalib/Tainted/OK state machine, sealed datagram
// dispatch (AEAD sealing, opening, replay windows), every
// request/response exchange — the Time Authority Round and the peer
// Gather, with their sequence numbers, deadlines, AEX-epoch stamping,
// RTT midpoint and response routing — the TSC rate monitor, and the
// protocol counters.
//
// Variant behaviour — what to ask the authorities for and what to make
// of the readings, how to recover from a taint, which peer timestamps
// to believe, whether to gossip — is injected through the small
// interfaces in policy.go. A protocol line is a Policies value plus
// a Config that embeds this package's and adds its own knobs:
// internal/core is the paper's original protocol, internal/resilient
// the Section V hardened one, internal/ntpdisc the NTP-style discipline
// (which adds no knobs). Every constructor returns the one Node
// handle; the engine fires one set of observation hooks (Events) and
// keeps one set of Counters, so the live runtime, the lab, and the
// experiment harness observe any variant through the same surface.
package engine

import (
	"errors"
	"sync/atomic"
	"time"

	"triadtime/internal/enclave"
	"triadtime/internal/monotonic"
	"triadtime/internal/simnet"
	"triadtime/internal/wire"
)

// ErrUnavailable is returned by TrustedNow while the node cannot serve
// trusted timestamps (tainted or calibrating).
var ErrUnavailable = errors.New("trusted time unavailable")

// Engine is the variant-independent half of a Triad node, and the
// surface policies drive it through; applications hold its Node handle
// instead. It is event-driven: after Node.Start, all work happens in
// callbacks the Platform dispatches (datagram deliveries, AEX
// notifications, timer and INC-measurement completions). Platforms
// serialize callbacks, so the engine has no internal locking; the only
// state other goroutines touch is the published clock snapshot and the
// serving clamp, both atomic (see SharedClock).
type Engine struct {
	cfg      Config
	platform enclave.Platform
	// gate is the platform's pending-AEX signal, nil on platforms that
	// deliver every AEX on the loop that raised it (the simulation).
	gate   enclave.AEXGate
	sealer *wire.Sealer
	opener *wire.Opener
	events *Events
	// senders holds everyone this node accepts datagrams from — its peers
	// and authorities — with their roles and replay windows, so a
	// delivery costs one lookup by sender identity.
	senders senderTable

	pol Policies

	state State

	// Trusted clock: now = refNanos + (tsc - refTSC)/fCalib. The loop
	// owns these; pub is their published copy for SharedClock readers.
	fCalib   float64 // estimated guest-TSC ticks per reference second
	refNanos int64
	refTSC   uint64
	pub      published
	// lastServed is the strictly-increasing serving clamp (uniqueness of
	// served timestamps), advanced only by serve; served counts the
	// timestamps it handed out.
	lastServed monotonic.Atomic
	served     atomic.Uint64

	// aexEpoch is bumped on every AEX; it stamps in-flight measurements.
	aexEpoch monotonic.Value[uint64]
	seq      uint64 // request sequence numbers

	// rounds is the open set of Time Authority exchanges, a slice because
	// it holds a handful at most and is scanned on every response.
	rounds  []*Round
	gather  *Gather
	monitor *enclave.RateMonitor

	// sealBuf/openBuf are the endpoint's datagram scratch: every sealed
	// send reuses sealBuf (safe because both transports are done with
	// the bytes when Send returns — the simulated network copies the
	// payload into its delivery pool, the live one writes it to the
	// socket) and every open decrypts into openBuf, so the dispatch and
	// gather paths allocate nothing per datagram.
	sealBuf []byte
	openBuf []byte

	counters Counters
}

// New creates an engine bound to the platform running the given
// variant, under multi-authority quorum calibration when two or more
// authorities are configured. It installs itself as the platform's AEX
// and message handler; Node().Start begins the protocol. Errors carry
// no package prefix so variants wrap them under their own name.
func New(platform enclave.Platform, cfg Config, pol Policies) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if pol.Calibration == nil || pol.Recovery == nil || pol.Filter == nil {
		return nil, errors.New("engine policies incomplete")
	}
	if len(cfg.Authorities) >= 2 {
		pol = pol.withQuorum()
	}
	sealer, err := wire.NewSealer(cfg.Key, uint32(cfg.Addr))
	if err != nil {
		return nil, err
	}
	opener, err := wire.NewOpener(cfg.Key)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		platform: platform,
		sealer:   sealer,
		opener:   opener,
		events:   &cfg.Events,
		senders:  newSenderTable(cfg.Peers, cfg.Authorities),
		pol:      pol,
		state:    StateInit,
		sealBuf:  make([]byte, 0, wire.SealedSize),
		openBuf:  make([]byte, 0, wire.MarshaledSize),
	}
	e.gate, _ = platform.(enclave.AEXGate)
	e.publish()
	platform.SetAEXHandler(e.onAEX)
	platform.SetMessageHandler(e.onDatagram)
	return e, nil
}

// Addr reports the node's network address.
func (e *Engine) Addr() simnet.Addr { return e.cfg.Addr }

// Authority reports the Time Authority's address (the first configured
// authority on multi-authority nodes).
func (e *Engine) Authority() simnet.Addr { return e.cfg.Authority }

// PeerAddrs returns the configured peers in broadcast order. The
// slice is shared; callers must not mutate it.
func (e *Engine) PeerAddrs() []simnet.Addr { return e.cfg.Peers }

// Platform exposes the enclave platform to policies (TSC reads,
// timers).
func (e *Engine) Platform() enclave.Platform { return e.platform }

// Events exposes the observation hooks, which may be replaced
// mid-session by instrumentation.
func (e *Engine) Events() *Events { return e.events }

// State reports the protocol state.
func (e *Engine) State() State { return e.state }

// SetState transitions the protocol state, firing StateChanged.
func (e *Engine) SetState(s State) { e.setState(s) }

// FCalib reports the calibrated TSC rate in ticks per reference
// second, or 0 before the first calibration completes.
func (e *Engine) FCalib() float64 { return e.fCalib }

// TATimeout reports how long policies wait for a Time Authority
// response beyond any requested sleep (Config.TATimeout, defaulted).
func (e *Engine) TATimeout() time.Duration { return e.cfg.TATimeout }

// nextSeq allocates a request sequence number.
func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// Counters exposes the protocol counters for policy updates.
func (e *Engine) Counters() *Counters { return &e.counters }

// ClockNow converts the current TSC to trusted nanoseconds. Callers
// must ensure a calibration has completed (fCalib != 0). When the TSC
// sits behind the anchor — a backwards jump the monitor has not yet
// caught — the clock freezes rather than going back in time.
func (e *Engine) ClockNow() int64 {
	return clockAt(e.refNanos, e.refTSC, e.fCalib, e.platform.ReadTSC())
}

// ReferenceNanos reports the current reference anchor — the latest
// TA- or peer-anchored trusted time. The hardened gossip layer stamps
// chimer reports with it as a credibility signal.
func (e *Engine) ReferenceNanos() int64 { return e.refNanos }

// serveTimestamp returns the current clock reading bumped to stay
// strictly monotonic across everything this node has ever served.
func (e *Engine) serveTimestamp() int64 { return e.serve(e.ClockNow()) }

func (e *Engine) setState(s State) {
	if s == e.state {
		return
	}
	old := e.state
	e.state = s
	e.publish()
	e.events.stateChanged(old, s)
}

// TicksFor converts a wall duration to guest ticks using the
// boot-time frequency hint. Used only to size timeouts and windows,
// never for trusted time.
func (e *Engine) TicksFor(d time.Duration) uint64 {
	return e.TicksForSeconds(d.Seconds())
}

// TicksForSeconds is TicksFor on a seconds value (hardened windows are
// tracked as float seconds).
func (e *Engine) TicksForSeconds(sec float64) uint64 {
	return uint64(sec * e.platform.BootTSCHz())
}

// DurationFor is TicksFor's inverse: the wall duration of a span of
// guest ticks by the boot-time frequency hint. Used only to age short
// spans, never for trusted time.
func (e *Engine) DurationFor(ticks uint64) time.Duration {
	return time.Duration(float64(ticks) / e.platform.BootTSCHz() * 1e9)
}

// SendSealed seals msg under this node's wire identity and sends it.
// The sealed bytes live in the engine's scratch buffer, which the next
// SendSealed reuses; transports must be done with the payload when Send
// returns (both are).
func (e *Engine) SendSealed(to simnet.Addr, msg wire.Message) {
	e.sealBuf = e.sealer.SealAppend(e.sealBuf[:0], msg)
	e.platform.Send(to, e.sealBuf)
}

// Broadcast seals msg once and sends the same datagram to every peer,
// in broadcast order. One seal serves them all: a Message names no
// destination and every receiver keeps its own replay window, so a copy
// is as good as a fresh seal to each peer — and an attacker could
// already move one peer's copy to another. The sender's nonce counter
// advances once per broadcast, not once per peer.
func (e *Engine) Broadcast(msg wire.Message) {
	e.sealBuf = e.sealer.SealAppend(e.sealBuf[:0], msg)
	for _, p := range e.cfg.Peers {
		e.platform.Send(p, e.sealBuf)
	}
}

// CompleteCalibration installs a finished full calibration — rate and
// reference anchor — and moves the node to StateOK, firing
// TAReference then Calibrated in the order the trace battery pins.
func (e *Engine) CompleteCalibration(fCalib float64, refNanos int64, refTSC uint64) {
	e.fCalib = fCalib
	e.refNanos = refNanos
	e.refTSC = refTSC
	e.publish()
	e.counters.TAReferences++
	e.events.taReference()
	e.events.calibrated(fCalib)
	e.setState(StateOK)
}

// AdoptTAReference installs a reference-only Time Authority anchor
// (RefCalib completion) and moves the node to StateOK.
func (e *Engine) AdoptTAReference(refNanos int64, refTSC uint64) {
	e.refNanos = refNanos
	e.refTSC = refTSC
	e.publish()
	e.counters.TAReferences++
	e.events.taReference()
	e.setState(StateOK)
}

// AdoptPeerReference installs a peer-derived anchor (untaint) and
// moves the node to StateOK. jumpNanos is the forward jump reported to
// observers (0 when the local clock was kept).
func (e *Engine) AdoptPeerReference(from uint32, refNanos int64, refTSC uint64, jumpNanos int64) {
	e.refNanos = refNanos
	e.refTSC = refTSC
	e.publish()
	e.counters.PeerUntaints++
	e.events.peerUntaint(from, jumpNanos)
	e.setState(StateOK)
}

// EmitDiscrepancy fires the Discrepancy observation hook (hardened
// probes report clock divergence through it).
func (e *Engine) EmitDiscrepancy(rel float64) { e.events.discrepancy(rel) }

// ShiftReference moves the reference anchor by delta nanoseconds — a
// fault-injection hook for tests and attack drills (a compromised or
// skewed clock).
func (e *Engine) ShiftReference(delta int64) {
	e.refNanos += delta
	e.publish()
}

// ScaleRate multiplies the calibrated rate by factor — the
// fault-injection analogue of a miscalibration.
func (e *Engine) ScaleRate(factor float64) {
	e.fCalib *= factor
	e.publish()
}

// onDatagram authenticates and dispatches one delivered datagram. The
// network-level source is ignored: trust keys off the authenticated
// wire-layer sender identity — an attacker can spoof addresses but
// not the AEAD. One lookup by that identity finds the sender's roles
// and replay window; a datagram from anyone who is neither a peer nor
// an authority could only be dropped, so it is dropped unopened.
//
//triad:hotpath
func (e *Engine) onDatagram(_ simnet.Addr, payload []byte) {
	id, ok := wire.DatagramSender(payload)
	if !ok {
		return
	}
	from := e.senders.find(id)
	if from == nil {
		return
	}
	msg, err := e.opener.OpenWindowInto(&from.window, e.openBuf, payload)
	if err != nil {
		return // tampered, replayed, or malformed: drop
	}
	switch msg.Kind {
	case wire.KindTimeResponse:
		if !from.authority {
			return
		}
		e.onTimeResponse(simnet.Addr(id), msg)
	case wire.KindPeerTimeRequest:
		if !from.peer {
			return
		}
		e.onPeerTimeRequest(simnet.Addr(id), msg)
	case wire.KindPeerTimeResponse:
		if !from.peer {
			return
		}
		e.onPeerTimeResponse(id, msg)
	case wire.KindChimerReport:
		if e.pol.Gossip == nil || !from.peer {
			return
		}
		e.pol.Gossip.OnChimerReport(e, id, msg)
	case wire.KindTimeRequest:
		// Nodes are not the Time Authority; ignore.
	case wire.KindStampRequest, wire.KindStampResponse,
		wire.KindCommitLock, wire.KindCommitUnlock, wire.KindCommitStatus:
		// Serving-layer traffic — timestamp and commitment families —
		// rides its own client channel (wire client framing), never the
		// engine's datagram path; drop.
	default:
		// Unknown kind: Unmarshal bounds-checks kinds, but an explicit
		// drop keeps the dispatch total if new kinds are added.
	}
}

// onPeerTimeRequest answers a peer's untaint request if, and only if,
// this node's own timestamp is currently trustworthy (tainted peers
// stay silent, paper §III-D).
func (e *Engine) onPeerTimeRequest(from simnet.Addr, msg wire.Message) {
	if e.state != StateOK {
		return
	}
	e.SendSealed(from, wire.Message{
		Kind:      wire.KindPeerTimeResponse,
		Seq:       msg.Seq,
		TimeNanos: e.serveTimestamp(),
	})
}

// onAEX is the AEX-Notify handler: time continuity was severed.
func (e *Engine) onAEX() {
	e.aexEpoch.Next()
	switch e.state {
	case StateOK, StateDegraded:
		e.pol.Recovery.OnTaint(e)
	case StateFullCalib:
		e.pol.Calibration.OnAEX(e)
	case StateTainted, StateRefCalib, StateInit:
		// Already tainted/recovering; nothing changes.
	}
	// Publish even when the state did not move: a SharedClock read that
	// overlapped this AEX retries and sees it.
	e.publish()
}

// startMonitor builds and starts the rate monitor: a dedicated
// enclave thread cross-checks the guest TSC against the core's
// instruction rate (INC counting, §IV-A.1) and — when the variant's
// MemMonitor is set — against the frequency-independent memory-access
// rate, which closes the masking attack where the OS changes the
// core's DVFS point in proportion to a TSC scaling.
func (e *Engine) startMonitor() {
	mc := enclave.MonitorConfig{
		INCTicks:      e.cfg.MonitorTicks,
		INCTol:        e.cfg.MonitorTolerance,
		EnableMem:     e.pol.MemMonitor,
		MemTol:        e.pol.MemTolerance,
		OnDiscrepancy: e.onDiscrepancy,
		// A core-frequency change is legal OS behaviour; the INC
		// baseline re-learns. Surface it for observability only.
		OnFreqChange: e.events.freqChange,
	}
	e.monitor = enclave.NewRateMonitor(e.platform, mc)
	e.monitor.Start()
}

// onDiscrepancy reacts to detected TSC tampering: the calibrated
// clock can no longer be trusted, so the node re-learns both rate and
// reference from the Time Authority, and the monitor re-baselines
// against the (possibly still manipulated) new TSC relationship.
func (e *Engine) onDiscrepancy(rel float64) {
	e.events.discrepancy(rel)
	e.monitor.Reset()
	if e.state == StateFullCalib {
		return // already recalibrating
	}
	e.pol.Recovery.Cancel(e)
	e.setState(StateFullCalib)
	e.pol.Calibration.Start(e)
}
