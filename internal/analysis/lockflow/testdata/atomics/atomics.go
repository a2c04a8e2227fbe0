// Package atomics is outside lockflow's serve/transport scope: the ban
// on function-style sync/atomic applies module-wide. Each flagged call
// is one half of a mixed plain/atomic access — the plain halves compile
// and race; with typed atomics they would not compile at all.
package atomics

import "sync/atomic"

// Counters is shared mutable state.
type Counters struct {
	Served  uint64 // atomic in Bump, plain in Snapshot
	Held    uint64 // plain in LeakHeld, atomic in HoldCount
	Dropped uint64 // plain everywhere: fine
	Typed   atomic.Uint64
}

func Bump(c *Counters) {
	atomic.AddUint64(&c.Served, 1) // want `function-style atomic\.AddUint64`
}

func Snapshot(c *Counters) uint64 { return c.Served }

func LeakHeld(c *Counters) uint64 { return c.Held }

func HoldCount(c *Counters) uint64 {
	return atomic.LoadUint64(&c.Held) // want `function-style atomic\.LoadUint64`
}

func Drop(c *Counters) { c.Dropped++ }

// Typed atomics are the sanctioned form.
func BumpTyped(c *Counters) uint64 { return c.Typed.Add(1) }

type mixedLocal struct {
	n int64
}

func bumpLocal(m *mixedLocal) {
	atomic.AddInt64(&m.n, 1) // want `function-style atomic\.AddInt64`
}

func readLocal(m *mixedLocal) int64 { return m.n }

func bumpSuppressed(m *mixedLocal) {
	//triad:nolint:lockflow pins the suppression path for the atomic rule
	atomic.AddInt64(&m.n, 1)
}
