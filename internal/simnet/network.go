// Package simnet simulates the UDP network connecting Triad nodes and
// the Time Authority. Links have configurable base delay, jitter and
// loss; middleboxes can observe ciphertext datagrams and add delay or
// drop them, which is exactly the attacker position of the paper's
// threat model (control of the OS / network path, no access to message
// contents).
package simnet

import (
	"fmt"
	"time"

	"triadtime/internal/sim"
	"triadtime/internal/simtime"
)

// Addr identifies an endpoint. It doubles as the wire-layer sender ID.
// The network indexes its endpoints by address, so a simulation numbers
// them densely from small integers.
type Addr uint32

// Packet is one datagram in flight. Payload is ciphertext: middleboxes
// may inspect its length and endpoints, never plaintext.
type Packet struct {
	From, To Addr
	Payload  []byte
	SentAt   simtime.Instant
}

// Handler consumes datagrams delivered to a registered endpoint. The
// Payload slice is only valid for the duration of the callback: the
// network recycles delivery buffers, so a handler that needs the bytes
// later must copy them.
type Handler func(pkt Packet)

// Verdict is a middlebox's decision about one packet.
type Verdict struct {
	// ExtraDelay is added on top of the link's natural delay.
	ExtraDelay time.Duration
	// Drop discards the packet entirely.
	Drop bool
	// Duplicate delivers a second copy of the packet after an
	// additional resample of the link delay (replay/duplication
	// attacks; the wire layer's anti-replay window must absorb it).
	// The copy carries its own payload buffer, so a handler mutating
	// or recycling the original's bytes cannot corrupt the replay.
	Duplicate bool
}

// Middlebox observes packets traversing the network and may delay or
// drop them. Boxes run in attach order; their extra delays accumulate.
type Middlebox interface {
	// Process inspects a packet at the moment it is sent. now is the
	// current reference time (the attacker runs outside the TCB and has
	// an accurate clock of its own). Boxes see every sent packet,
	// including ones the lossy link subsequently drops; the Payload
	// slice must not be retained past the call.
	Process(now simtime.Instant, pkt Packet) Verdict
}

// Link is the delay/loss model of one directed endpoint pair.
type Link struct {
	// Base is the minimum one-way delay.
	Base time.Duration
	// JitterSigma is the sigma of a lognormal jitter term added to Base;
	// its scale is JitterScale. Zero sigma disables jitter.
	JitterSigma float64
	// JitterScale is the magnitude of the jitter term: the added delay is
	// JitterScale * LogNormal(0, JitterSigma). Defaults to 20µs if zero
	// while JitterSigma is set.
	JitterScale time.Duration
	// LossProb is the probability a packet is dropped in transit.
	LossProb float64
}

// DefaultLink is the LAN-like link model used by the experiments: 100µs
// base one-way delay with a lognormal jitter tail. Over Triad's ≤1s
// calibration windows this jitter alone produces the paper's O(100ppm)
// calibration errors.
func DefaultLink() Link {
	return Link{
		Base:        100 * time.Microsecond,
		JitterSigma: 1.0,
		JitterScale: 20 * time.Microsecond,
	}
}

// Network is the simulated datagram fabric.
type Network struct {
	sched       *sim.Scheduler
	rng         *sim.RNG
	handlers    []Handler // indexed by Addr, nil where none is registered
	defaultLink Link
	links       map[[2]Addr]Link
	policy      LinkPolicy
	boxes       []Middlebox

	sent       int
	delivered  int
	lostLink   int // dropped by a lossy link in transit
	droppedBox int // dropped by a middlebox verdict
	unrouted   int // delivered to an address with no handler

	// freePending recycles in-flight delivery records (and their payload
	// buffers) so steady-state delivery allocates nothing; the pool's
	// size is bounded by the maximum number of simultaneously in-flight
	// packets.
	freePending *pendingPacket
}

// pendingPacket is one scheduled delivery. Its fire closure is built
// once, when the record first enters the pool, and reused for every
// delivery the record carries afterwards; buf is the record's owned
// payload storage.
type pendingPacket struct {
	n    *Network
	pkt  Packet
	buf  []byte
	fire func()
	next *pendingPacket
}

// New creates a network on the scheduler with the given default link
// model applied to every endpoint pair that has no specific override.
func New(sched *sim.Scheduler, rng *sim.RNG, defaultLink Link) *Network {
	return &Network{
		sched:       sched,
		rng:         rng,
		defaultLink: defaultLink,
		links:       make(map[[2]Addr]Link),
	}
}

// Register installs the delivery handler for an address. Registering an
// address twice is a configuration bug and panics. The handler table
// grows to the largest address registered.
func (n *Network) Register(a Addr, h Handler) {
	if int(a) < len(n.handlers) && n.handlers[a] != nil {
		panic(fmt.Sprintf("simnet: address %d registered twice", a))
	}
	if grow := int(a) + 1 - len(n.handlers); grow > 0 {
		n.handlers = append(n.handlers, make([]Handler, grow)...)
	}
	n.handlers[a] = h
}

// handler returns the handler registered for a, nil if there is none.
func (n *Network) handler(a Addr) Handler {
	if int(a) < len(n.handlers) {
		return n.handlers[a]
	}
	return nil
}

// SetLink overrides the link model for the directed pair from -> to.
func (n *Network) SetLink(from, to Addr, l Link) {
	n.links[[2]Addr{from, to}] = l
}

// LinkPolicy computes a link model for a directed endpoint pair.
// Returning ok=false falls through to the network's default link.
type LinkPolicy func(from, to Addr) (Link, bool)

// SetLinkPolicy installs a computed link model, consulted for pairs
// without an explicit SetLink override. This is how region-structured
// topologies model O(n²) endpoint pairs without materializing a
// per-pair map: the policy derives the delay from the pair's region
// coordinates at send time.
func (n *Network) SetLinkPolicy(p LinkPolicy) { n.policy = p }

// AttachMiddlebox adds a middlebox. Boxes see every packet on the
// network in attach order; a box interested in one node's traffic
// filters by Packet endpoints.
func (n *Network) AttachMiddlebox(b Middlebox) {
	n.boxes = append(n.boxes, b)
}

// Send injects a datagram. Semantics are UDP-like: no delivery
// guarantee, no error to the sender on loss or unknown destination.
// The payload is copied into a network-owned buffer when a delivery is
// scheduled, so the caller may reuse its buffer as soon as Send returns.
func (n *Network) Send(from, to Addr, payload []byte) {
	n.sent++
	now := n.sched.Now()
	pkt := Packet{From: from, To: to, Payload: payload, SentAt: now}

	link, ok := n.links[[2]Addr{from, to}]
	if !ok && n.policy != nil {
		link, ok = n.policy(from, to)
	}
	if !ok {
		link = n.defaultLink
	}
	if link.LossProb > 0 && n.rng.Float64() < link.LossProb {
		// The link loses the packet in transit, but an attacker
		// middlebox sits on the path and still observes it — hiding
		// lossy-link traffic from the attacker would weaken the threat
		// model. The verdicts are moot: the packet is gone either way,
		// and the loss is accounted to the link, not the box.
		for _, b := range n.boxes {
			b.Process(now, pkt)
		}
		n.lostLink++
		return
	}
	delay := n.sampleDelay(link)
	duplicate := false
	for _, b := range n.boxes {
		v := b.Process(now, pkt)
		if v.Drop {
			n.droppedBox++
			return
		}
		if v.ExtraDelay > 0 {
			delay += v.ExtraDelay
		}
		duplicate = duplicate || v.Duplicate
	}
	n.deliver(pkt, delay)
	if duplicate {
		// deliver copies the payload per scheduled delivery, so the
		// duplicate owns its bytes: a handler that mutates or recycles
		// the original's buffer cannot corrupt the replayed copy.
		n.deliver(pkt, delay+n.sampleDelay(link))
	}
}

// sampleDelay draws one traversal delay from the link model.
func (n *Network) sampleDelay(link Link) time.Duration {
	delay := link.Base
	if link.JitterSigma > 0 {
		scale := link.JitterScale
		if scale == 0 {
			scale = 20 * time.Microsecond
		}
		delay += time.Duration(float64(scale) * n.rng.LogNormal(0, link.JitterSigma))
	}
	return delay
}

// deliver schedules one delivery through a pooled pending-packet
// record: the payload is copied into the record's own buffer and the
// record's pre-built fire closure is handed to the scheduler, so the
// steady-state path allocates nothing.
//
//triad:hotpath
func (n *Network) deliver(pkt Packet, delay time.Duration) {
	pp := n.freePending
	if pp == nil {
		pp = &pendingPacket{n: n} //triad:nolint:hotpath pool growth happens only until the in-flight high-water mark; steady state reuses
		pp.fire = pp.deliverNow
	} else {
		n.freePending = pp.next
		pp.next = nil
	}
	pp.buf = append(pp.buf[:0], pkt.Payload...)
	pp.pkt = pkt
	pp.pkt.Payload = pp.buf
	n.sched.After(simtime.FromDuration(delay), pp.fire)
}

// deliverNow hands the packet to its destination handler and returns
// the record to the pool. The record is recycled only after the handler
// returns: a handler that sends (scheduling new deliveries) re-enters
// deliver while this record's payload is still live.
//
//triad:hotpath
func (pp *pendingPacket) deliverNow() {
	n := pp.n
	pkt := pp.pkt
	if h := n.handler(pkt.To); h != nil {
		n.delivered++
		h(pkt)
	} else {
		n.unrouted++
	}
	pp.pkt = Packet{}
	pp.next = n.freePending
	n.freePending = pp
}

// Stats reports cumulative sent/delivered/dropped packet counts.
// dropped aggregates every way a packet can die; DropStats separates
// them.
func (n *Network) Stats() (sent, delivered, dropped int) {
	return n.sent, n.delivered, n.lostLink + n.droppedBox + n.unrouted
}

// DropStats breaks the drop count down by cause: lostLink counts lossy
// links losing packets in transit, droppedBox counts middlebox Drop
// verdicts, and unrouted counts deliveries to unregistered addresses.
func (n *Network) DropStats() (lostLink, droppedBox, unrouted int) {
	return n.lostLink, n.droppedBox, n.unrouted
}
