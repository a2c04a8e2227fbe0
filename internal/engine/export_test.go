package engine

import "triadtime/internal/simnet"

// Exports for the external test package, which — unlike this one — can
// import the variant packages built on the engine.

// NewFakePlatform returns round_test.go's scripted platform.
func NewFakePlatform() *fakePlatform { return &fakePlatform{tsc: 1000} }

// Destinations lists where the datagrams sent so far went, in order.
func (p *fakePlatform) Destinations() []simnet.Addr {
	to := make([]simnet.Addr, len(p.sent))
	for i, s := range p.sent {
		to[i] = s.to
	}
	return to
}

// ResolvedConfig returns the shared configuration the node runs with,
// defaults applied.
func (n *Node) ResolvedConfig() Config { return n.e.cfg }
