package experiment

import (
	"errors"
	"testing"
	"time"

	"triadtime/internal/core"
	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
)

// chaosBox is an adversarial network: random extra delays, drops and
// duplications on every packet — the strongest Dolev-Yao-style network
// behaviour short of forging (which the AEAD prevents).
type chaosBox struct {
	rng      *sim.RNG
	dropProb float64
	dupProb  float64
	maxDelay time.Duration
	active   bool
}

func (b *chaosBox) Process(_ simtime.Instant, _ simnet.Packet) simnet.Verdict {
	if !b.active {
		return simnet.Verdict{}
	}
	v := simnet.Verdict{}
	if b.rng.Float64() < b.dropProb {
		v.Drop = true
		return v
	}
	if b.rng.Float64() < b.dupProb {
		v.Duplicate = true
	}
	v.ExtraDelay = time.Duration(b.rng.Float64() * float64(b.maxDelay))
	return v
}

// TestChaosMonotonicityAndRecovery drives the cluster through an
// adversarial network phase (random delay up to 50ms, 10% loss, 10%
// duplication) under Triad-like AEXs, asserting the protocol's safety
// invariant — strictly monotonic served timestamps — and liveness
// recovery once the chaos ends.
func TestChaosMonotonicityAndRecovery(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		c, err := NewCluster(ClusterConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Nodes {
			c.SetEnv(i, EnvTriadLike)
		}
		box := &chaosBox{
			rng:      sim.NewRNG(seed * 131),
			dropProb: 0.10,
			dupProb:  0.10,
			maxDelay: 50 * time.Millisecond,
		}
		c.Net.AttachMiddlebox(box)
		c.Start()
		c.RunFor(30 * time.Second) // calibrate cleanly
		box.active = true

		last := make([]int64, len(c.Nodes))
		served := 0
		probe := c.RNG.Fork(999)
		for step := 0; step < 600; step++ {
			c.RunFor(time.Duration(probe.IntN(400)) * time.Millisecond)
			for i, n := range c.Nodes {
				ts, err := n.TrustedNow()
				if errors.Is(err, core.ErrUnavailable) {
					continue
				}
				if err != nil {
					t.Fatalf("seed %d: unexpected error: %v", seed, err)
				}
				served++
				if ts <= last[i] {
					t.Fatalf("seed %d node %d: monotonicity violated under chaos (%d after %d)",
						seed, i+1, ts, last[i])
				}
				last[i] = ts
			}
		}
		if served == 0 {
			t.Fatalf("seed %d: nothing served during chaos", seed)
		}

		// Liveness: with the chaos over, every node is serving within a
		// machine-AEX-free grace period.
		box.active = false
		c.RunFor(10 * time.Second)
		for i, n := range c.Nodes {
			if _, err := n.TrustedNow(); err != nil {
				// One more chance: a taint can be in flight.
				c.RunFor(5 * time.Second)
				if _, err := n.TrustedNow(); err != nil {
					t.Errorf("seed %d node %d never recovered: %v", seed, i+1, err)
				}
			}
		}
	}
}

// TestChaosHardenedCluster runs the same adversarial network against
// the hardened protocol.
func TestChaosHardenedCluster(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 5, Protocol: Hardened(nil)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Nodes {
		c.SetEnv(i, EnvTriadLike)
	}
	box := &chaosBox{
		rng:      sim.NewRNG(555),
		dropProb: 0.05,
		dupProb:  0.10,
		maxDelay: 3 * time.Millisecond, // below the RTT bound: chaos, not DoS
	}
	c.Net.AttachMiddlebox(box)
	box.active = true
	c.Start()
	c.RunFor(3 * time.Minute)

	last := make([]int64, len(c.Nodes))
	served := 0
	for step := 0; step < 200; step++ {
		c.RunFor(250 * time.Millisecond)
		for i, n := range c.Nodes {
			ts, err := n.TrustedNow()
			if err != nil {
				continue
			}
			served++
			if ts <= last[i] {
				t.Fatalf("node %d: monotonicity violated (%d after %d)", i+1, ts, last[i])
			}
			last[i] = ts
		}
	}
	if served == 0 {
		t.Fatal("hardened cluster served nothing under chaos")
	}
}
