// Package monotonic holds the numbers the protocol's safety argument
// needs never to go backwards: fencing epochs, high-water marks, nonce
// counters and the serving clamp. They only move through Raise (a max)
// and Next (a strict increment), or Advance for the shared atomic
// clamp, so no store can rewind one. Both types hold a noCopy marker
// (Atomic through its atomic.Int64): the one overwrite the compiler
// still allows, x.F = y.F, copies the marker, and go vet's copylocks
// check reports it.
//
// What a type cannot refuse is a narrowing conversion of a Load, such
// as uint32(x.Load()), which wraps a value that never went back.
package monotonic

import (
	"math"
	"sync/atomic"
)

// noCopy makes go vet's copylocks check report any copy of a struct
// that holds it.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Value is a number that never decreases. The zero value is ready and
// reads 0. A Value is not safe for concurrent use; its owner's lock, or
// single ownership, guards it.
type Value[T int64 | uint64] struct {
	_ noCopy
	v T
}

// Load returns the current value.
//
//triad:hotpath
func (m *Value[T]) Load() T { return m.v }

// Raise moves the value up to v, and reports whether it moved; a v at
// or below the current value changes nothing.
//
//triad:hotpath
func (m *Value[T]) Raise(v T) bool {
	if v <= m.v {
		return false
	}
	m.v = v
	return true
}

// Next increments the value and returns the result. It panics rather
// than wrap around.
//
//triad:hotpath
func (m *Value[T]) Next() T {
	if m.v+1 < m.v {
		panic("monotonic: Next overflows")
	}
	m.v++
	return m.v
}

// Atomic is a strictly increasing int64 shared across goroutines: the
// serving clamp that makes every timestamp a node hands out unique.
// The zero value is ready and reads 0.
type Atomic struct {
	v atomic.Int64
}

// Load returns the current value.
//
//triad:hotpath
func (a *Atomic) Load() int64 { return a.v.Load() }

// Advance moves the value to the least number above both reading and
// the current value, and returns it. Concurrent callers each get a
// distinct result, and results only increase. It panics rather than
// wrap around.
//
//triad:hotpath
func (a *Atomic) Advance(reading int64) int64 {
	for {
		last := a.v.Load()
		if last == math.MaxInt64 {
			panic("monotonic: Advance overflows")
		}
		next := max(reading, last+1)
		if a.v.CompareAndSwap(last, next) {
			return next
		}
	}
}
