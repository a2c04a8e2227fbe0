package engine

import (
	"triadtime/internal/enclave"
	"triadtime/internal/wire"
)

// PeerSample is one peer's timestamp gathered during recovery or a
// self-check probe. The arrival TSC lets decision points age-adjust
// the timestamp: gathering may wait out the full PeerTimeout, and
// adopting a stale reading as "now" would skew the clock into the
// past (and compound across adoption chains).
type PeerSample struct {
	From       uint32
	TS         int64
	ArrivalTSC uint64
}

// Gather is one broadcast-and-collect of peer timestamps: the taint
// recovery gather, or a hardened self-check probe's peer half. An
// engine has at most one open; the engine owns its sequence number,
// deadline and response routing.
type Gather struct {
	e         *Engine
	seq       uint64
	samples   []PeerSample
	immediate bool // first response closes the window
	timer     enclave.CancelFunc
	done      func([]PeerSample)
}

// GatherPeers broadcasts a timestamp request to all peers and arms the
// PeerTimeout deadline, replacing any gather still open. done runs
// once with the samples collected (possibly none) — at the deadline, or
// on the first response when immediate — unless the gather is cancelled
// first; the gather is no longer open by then.
func (e *Engine) GatherPeers(immediate bool, done func([]PeerSample)) *Gather {
	e.CancelGather()
	g := &Gather{e: e, seq: e.nextSeq(), immediate: immediate, done: done}
	e.gather = g
	e.Broadcast(wire.Message{Kind: wire.KindPeerTimeRequest, Seq: g.seq})
	g.timer = e.platform.AfterTicks(e.TicksFor(e.cfg.PeerTimeout), func() {
		g.timer = nil
		g.close()
	})
	return g
}

// Cancel drops the gather if it is still open (timer included); late
// responses are ignored by sequence-number mismatch. Nil-safe.
func (g *Gather) Cancel() {
	if g == nil || g.e.gather != g {
		return
	}
	if g.timer != nil {
		g.timer()
	}
	g.e.gather = nil
}

func (g *Gather) close() {
	g.Cancel()
	g.done(g.samples)
}

// CancelGather drops any gather in flight, whoever began it.
func (e *Engine) CancelGather() { e.gather.Cancel() }

// BeginPeerGather starts taint recovery from the peers: gather their
// timestamps for as long as the PeerFilter says, then hand the samples
// to the filter — or fall back to the recovery policy's reference
// calibration when no peer had an untainted timestamp for us (at once,
// with no peers configured). Call while StateTainted.
func (e *Engine) BeginPeerGather() {
	if len(e.cfg.Peers) == 0 {
		e.pol.Recovery.StartRefCalib(e)
		return
	}
	e.GatherPeers(e.pol.Filter.Immediate(), func(samples []PeerSample) {
		switch {
		case e.state != StateTainted:
		case len(samples) == 0:
			e.pol.Recovery.StartRefCalib(e)
		default:
			e.pol.Filter.Decide(e, samples)
		}
	})
}

// onPeerTimeResponse adds one authenticated peer timestamp to the open
// gather if it answers it; anything else is stale and dropped.
func (e *Engine) onPeerTimeResponse(from uint32, msg wire.Message) {
	g := e.gather
	if g == nil || msg.Seq != g.seq {
		return
	}
	g.samples = append(g.samples, PeerSample{From: from, TS: msg.TimeNanos, ArrivalTSC: e.platform.ReadTSC()})
	if g.immediate {
		g.close()
	}
}
