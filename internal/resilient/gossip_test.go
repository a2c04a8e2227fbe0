package resilient

import (
	"testing"
	"time"

	"triadtime/internal/core"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
)

func gossipRig(t *testing.T, nodes int) *rig {
	t.Helper()
	return newRig(t, nodes, func(_ int, cfg *Config) {
		cfg.EnableGossip = true
	})
}

func TestGossipBuildsAccreditation(t *testing.T) {
	r := gossipRig(t, 3)
	r.startAll()
	// Several deadline periods: probes gather consistency evidence and
	// reports circulate.
	r.run(2 * time.Minute)
	for i, n := range r.nodes {
		if c := n.Counters(); c.GossipSent == 0 || c.GossipReceived == 0 {
			t.Fatalf("node %d gossip sent/received = %d/%d", i+1, c.GossipSent, c.GossipReceived)
		}
		for _, peer := range r.pols[i].cfg.Peers {
			if !r.pols[i].accredited(uint32(peer)) {
				t.Errorf("node %d: honest peer %d not accredited", i+1, peer)
			}
		}
	}
}

func TestGossipNeverAccreditsFastClock(t *testing.T) {
	// Node 5 models a Byzantine participant: it holds the cluster key
	// and answers protocol messages, but none of the honest refresh
	// triggers run (a hardened node would self-heal within one in-TCB
	// deadline — that is tested elsewhere; gossip safety must hold even
	// against a participant that does not).
	r := newRig(t, 5, func(i int, cfg *Config) {
		cfg.EnableGossip = true
		if i == 4 {
			cfg.DisableDeadline = true
			cfg.DisableMonitor = true
		}
	})
	r.startAll()
	r.run(90 * time.Second)
	// Compromise node 5's clock after everyone calibrated honestly.
	r.engines[4].ShiftReference(10 * int64(time.Second))
	r.run(3 * time.Minute)
	for i := 0; i < 4; i++ {
		if r.pols[i].accredited(5) {
			t.Errorf("node %d accredits the fast clock", i+1)
		}
		// Honest peers stay accredited.
		for peer := uint32(1); peer <= 4; peer++ {
			if peer == uint32(i+1) {
				continue
			}
			if !r.pols[i].accredited(peer) {
				t.Errorf("node %d lost accreditation of honest peer %d", i+1, peer)
			}
		}
	}
	// And the fast clock's self-promoting reports do not help it: its
	// own vote is excluded and honest votes are against.
}

func TestGossipAccreditedPeerUntaintsAlone(t *testing.T) {
	r := gossipRig(t, 3)
	box := &muzzleAll{}
	r.net.AttachMiddlebox(box)
	r.startAll()
	r.run(2 * time.Minute) // accreditation established

	victim := r.nodes[0]
	taBefore := victim.Counters().TAReferences
	adoptionsBefore := victim.Counters().GossipAdoptions
	// Silence node 3 entirely: a taint on node 1 now yields a single
	// answer (node 2) — no same-moment majority.
	box.muted = 3
	r.platforms[0].FireAEX()
	r.run(2 * time.Second)

	if victim.State() != core.StateOK {
		t.Fatalf("victim state = %v", victim.State())
	}
	adoptions := victim.Counters().GossipAdoptions
	if adoptions != adoptionsBefore+1 {
		t.Errorf("gossip adoptions = %d, want %d", adoptions, adoptionsBefore+1)
	}
	if victim.Counters().TAReferences != taBefore {
		t.Error("victim fell back to the TA despite an accredited responder")
	}
	// The clock stayed honest.
	reading, _ := victim.ClockReading()
	if off := time.Duration(reading - int64(r.sched.Now())); off < -50*time.Millisecond || off > 50*time.Millisecond {
		t.Errorf("clock off reference by %v after gossip adoption", off)
	}
}

func TestGossipRefusesUnaccreditedSingleAnswer(t *testing.T) {
	// Without gossip history (fresh cluster), a single answer must
	// still fall through to the TA.
	r := gossipRig(t, 3)
	box := &muzzleAll{}
	r.net.AttachMiddlebox(box)
	r.startAll()
	r.run(10 * time.Second) // calibrated, but no probe rounds yet
	victim := r.nodes[0]
	taBefore := victim.Counters().TAReferences
	box.muted = 3
	r.platforms[0].FireAEX()
	r.run(2 * time.Second)
	if victim.State() != core.StateOK {
		t.Fatalf("victim state = %v", victim.State())
	}
	if victim.Counters().TAReferences != taBefore+1 {
		t.Errorf("TA refs = %d, want %d (no accreditation yet)", victim.Counters().TAReferences, taBefore+1)
	}
}

func TestGossipFastClockCannotUntaintViaAccreditation(t *testing.T) {
	// Even while the compromised node is still "accredited" from its
	// honest past, its future disjoint answers are not adopted once
	// honest evidence marks it false — and before that, an adoption
	// from a disagreeing accredited set is refused.
	r := newRig(t, 3, func(i int, cfg *Config) {
		cfg.EnableGossip = true
		if i == 2 {
			cfg.DisableDeadline = true // Byzantine participant: no self-heal
			cfg.DisableMonitor = true
		}
	})
	r.startAll()
	r.run(2 * time.Minute) // accreditation established everywhere
	r.engines[2].ShiftReference(10 * int64(time.Second))
	// Let probes observe the now-fast clock: honest nodes revoke.
	r.run(30 * time.Second)
	if r.pols[0].accredited(3) || r.pols[1].accredited(3) {
		t.Fatal("fast clock still accredited after probe evidence")
	}
	// A taint on node 1 with node 2 muzzled leaves only node 3's
	// answer: unaccredited -> TA, clock stays honest.
	box := &muzzleAll{muted: 2}
	r.net.AttachMiddlebox(box)
	taBefore := r.nodes[0].Counters().TAReferences
	r.platforms[0].FireAEX()
	r.run(2 * time.Second)
	if r.nodes[0].Counters().TAReferences != taBefore+1 {
		t.Error("victim did not use the TA against the lone fast clock")
	}
	reading, _ := r.nodes[0].ClockReading()
	if off := time.Duration(reading - int64(r.sched.Now())); off > 50*time.Millisecond {
		t.Errorf("victim infected: %v", off)
	}
}

// muzzleAll drops every packet sent by the muted node.
type muzzleAll struct {
	muted simnet.Addr
}

func (b *muzzleAll) Process(_ simtime.Instant, p simnet.Packet) simnet.Verdict {
	return simnet.Verdict{Drop: b.muted != 0 && p.From == b.muted}
}

func TestBitFor(t *testing.T) {
	if bitFor(0) != 0 || bitFor(65) != 0 {
		t.Error("out-of-range ids must map to no bit")
	}
	if bitFor(1) != 1 || bitFor(64) != 1<<63 {
		t.Error("bit mapping wrong")
	}
}

func TestGossipDisabledIsInert(t *testing.T) {
	r := newRig(t, 3, nil) // gossip off
	r.startAll()
	r.run(2 * time.Minute)
	for i, n := range r.nodes {
		if c := n.Counters(); c.GossipSent != 0 || c.GossipReceived != 0 || c.GossipAdoptions != 0 {
			t.Errorf("node %d gossip active while disabled: %d/%d/%d", i+1, c.GossipSent, c.GossipReceived, c.GossipAdoptions)
		}
		if r.pols[i].accredited(uint32((i+1)%3) + 1) {
			t.Errorf("node %d accredits with gossip disabled", i+1)
		}
	}
}
