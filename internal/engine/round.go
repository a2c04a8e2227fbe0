package engine

import (
	"time"

	"triadtime/internal/enclave"
	"triadtime/internal/simnet"
	"triadtime/internal/wire"
)

// Reading is one authority's answer in a Round: its reference time and
// the local TSC at request send and response receipt.
type Reading struct {
	From      simnet.Addr
	TimeNanos int64
	SentTSC   uint64
	RecvTSC   uint64

	seq      uint64
	answered bool
}

// RTTTicks is the observed roundtrip in guest ticks (requested sleep
// included).
func (r Reading) RTTTicks() uint64 { return r.RecvTSC - r.SentTSC }

// MidTSC is the roundtrip midpoint, the instant a sleep-free reading is
// anchored at (the authority reads its clock one one-way before the
// receive).
func (r Reading) MidTSC() float64 {
	return float64(r.SentTSC) + float64(r.RTTTicks())/2
}

// Round is one Time Authority exchange: a TimeRequest fanned out to a
// set of authorities, closing when every one answered or the deadline
// passed. The engine owns the sequence numbers, send/receive TSC stamps,
// the AEX epoch at send, the deadline and the response routing; the
// policy that began the round gets the outcome in its close handler.
type Round struct {
	e        *Engine
	readings []Reading // one slot per authority, in the order asked
	pending  int
	epoch    uint64 // AEX epoch at send
	timer    enclave.CancelFunc
	done     func(*Round)
}

// BeginRound sends a TimeRequest (asking the authority to sleep before
// answering; 0 for an immediate answer) to each address in to and arms
// the deadline. done runs exactly once, on the last answer or at the
// deadline, unless the round is cancelled first; the round has left the
// engine's open set by then, so done may begin the next one.
func (e *Engine) BeginRound(to []simnet.Addr, sleep, timeout time.Duration, done func(*Round)) *Round {
	r := &Round{
		e:        e,
		readings: make([]Reading, len(to)),
		pending:  len(to),
		epoch:    e.aexEpoch,
		done:     done,
	}
	for i, a := range to {
		// Each authority gets its own sequence number and sealed copy
		// (GCM nonces are single-use).
		r.readings[i] = Reading{From: a, seq: e.nextSeq(), SentTSC: e.platform.ReadTSC()}
		e.SendSealed(a, wire.Message{Kind: wire.KindTimeRequest, Seq: r.readings[i].seq, Sleep: sleep})
	}
	r.timer = e.platform.AfterTicks(e.TicksFor(timeout), func() {
		r.timer = nil
		r.close()
	})
	e.rounds = append(e.rounds, r)
	return r
}

// Cancel abandons the round: its close handler will not run and late
// answers are dropped. Cancelling a nil, closed or already cancelled
// round is a no-op.
func (r *Round) Cancel() {
	if r != nil {
		r.leave()
	}
}

// Readings returns the answers in the order the authorities were
// asked. Valid once the round has closed.
func (r *Round) Readings() []Reading { return r.readings }

// First returns the first answer, if any — the answer of a
// one-authority round.
func (r *Round) First() (Reading, bool) {
	if len(r.readings) == 0 {
		return Reading{}, false
	}
	return r.readings[0], true
}

// Severed reports whether an AEX fired since the round was sent: its
// roundtrips are then not bounded by uninterrupted execution, and an
// attacker could have manipulated the TSC during the exit.
func (r *Round) Severed() bool { return r.e.aexEpoch != r.epoch }

// close ends an open round: keep only the answered readings and run
// the close handler.
func (r *Round) close() {
	if !r.leave() {
		return
	}
	answered := r.readings[:0]
	for _, rd := range r.readings {
		if rd.answered {
			answered = append(answered, rd)
		}
	}
	r.readings = answered
	r.done(r)
}

// leave removes the round from the engine's open set and disarms its
// deadline, reporting whether it was open.
func (r *Round) leave() bool {
	for i, open := range r.e.rounds {
		if open != r {
			continue
		}
		r.e.rounds = append(r.e.rounds[:i], r.e.rounds[i+1:]...)
		if r.timer != nil {
			r.timer()
			r.timer = nil
		}
		return true
	}
	return false
}

// onTimeResponse routes one authenticated authority response to the
// open round that asked for it: the sender identity and the sequence
// number must both match an unanswered slot. Anything else — stale,
// duplicate, or the right number from the wrong authority — is dropped.
func (e *Engine) onTimeResponse(from simnet.Addr, msg wire.Message) {
	for _, r := range e.rounds {
		for i := range r.readings {
			rd := &r.readings[i]
			if rd.From != from || rd.seq != msg.Seq || rd.answered {
				continue
			}
			rd.answered = true
			rd.TimeNanos = msg.TimeNanos
			rd.RecvTSC = e.platform.ReadTSC()
			if r.pending--; r.pending == 0 {
				r.close()
			}
			return
		}
	}
}
