package resilient

import (
	"time"

	"triadtime/internal/engine"
	"triadtime/internal/wire"
)

// True-chimer gossip (paper §V): each hardened node publishes which
// cluster members it currently considers true-chimers, learned from
// interval-consistency evidence during untainting and probes. A peer
// accredited by a strict majority of reporters may untaint a node on
// its own — peers' consistency testimony substitutes for a same-moment
// majority — so the cluster relies on the Time Authority less often,
// without ever accrediting a lone fast clock (honest observers mark it
// a false-ticker, and its self-serving report is one vote).

// maxGossipID is the highest node identity representable in the
// report's 64-bit chimer bitmask.
const maxGossipID = 64

// gossipView is the node's chimer bookkeeping; the sent/received/
// adoption tallies live in the engine's Counters.
type gossipView struct {
	// own is this node's view: bit id-1 set = node id seen consistent.
	own uint64
	// views holds the latest report bitmask per reporter identity.
	views map[uint32]uint64
	// lastTA is the freshest TA-anchored timestamp per reporter (the
	// §V credibility signal; currently informational).
	lastTA map[uint32]int64
}

func bitFor(id uint32) uint64 {
	if id == 0 || id > maxGossipID {
		return 0
	}
	return 1 << (id - 1)
}

// markChimer records consistency evidence about a peer.
func (p *policy) markChimer(id uint32, consistent bool) {
	if !p.cfg.EnableGossip {
		return
	}
	bit := bitFor(id)
	if bit == 0 {
		return
	}
	if consistent {
		p.gossip.own |= bit
	} else {
		p.gossip.own &^= bit
	}
}

// broadcastChimerReport publishes the current view to all peers. It
// rides the in-TCB deadline, so views refresh at probe cadence.
func (p *policy) broadcastChimerReport(e *engine.Engine) {
	if !p.cfg.EnableGossip || len(p.cfg.Peers) == 0 {
		return
	}
	c := e.Counters()
	c.GossipSent++
	e.Broadcast(wire.Message{
		Kind:      wire.KindChimerReport,
		Seq:       uint64(c.GossipSent),
		Sleep:     time.Duration(e.ReferenceNanos()), // latest TA-anchored time
		TimeNanos: int64(p.gossip.own),
	})
}

// gossipHook ingests peers' published views; it is installed only when
// gossip is enabled, so a disabled node drops reports in the engine.
type gossipHook struct{ p *policy }

// OnChimerReport ingests a peer's published view.
func (h gossipHook) OnChimerReport(e *engine.Engine, from uint32, msg wire.Message) {
	g := &h.p.gossip
	if g.views == nil {
		g.views = make(map[uint32]uint64)
		g.lastTA = make(map[uint32]int64)
	}
	g.views[from] = uint64(msg.TimeNanos)
	g.lastTA[from] = int64(msg.Sleep)
	e.Counters().GossipReceived++
}

// accredited reports whether a strict majority of the cluster's
// reporters (this node plus every peer view received) currently marks
// id as a true-chimer.
func (p *policy) accredited(id uint32) bool {
	if !p.cfg.EnableGossip {
		return false
	}
	bit := bitFor(id)
	if bit == 0 {
		return false
	}
	clusterSize := len(p.cfg.Peers) + 1
	votes := 0
	if p.gossip.own&bit != 0 {
		votes++
	}
	for reporter, view := range p.gossip.views { //triad:nolint:simdet commutative vote sum — iteration order cannot affect the count
		if reporter == id {
			continue // no self-accreditation: the §V credibility rule
		}
		if view&bit != 0 {
			votes++
		}
	}
	return votes*2 > clusterSize
}
