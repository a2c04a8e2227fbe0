// Package serve is in lockflow's guarded scope (its import path ends
// in "serve"): locks must be released before channel sends and
// TrustedNow calls.
package serve

import "sync"

type clock interface {
	TrustedNow() (int64, error)
}

// batch mirrors the transport layer's batched-send surface: methods
// that park the caller in the netpoller against a full socket buffer.
type batch interface {
	SendBatch(n int) (int, error)
	Sendmmsg(n int) (int, error)
	WriteTo(p []byte, addr string) (int, error)
}

type shard struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	q   []int64
	out chan int64
}

// Bad blocks twice while holding the shard lock.
func Bad(s *shard, c clock) {
	s.mu.Lock()
	n, _ := c.TrustedNow() // want `TrustedNow call while holding s\.mu`
	s.out <- n             // want `channel send while holding s\.mu`
	s.mu.Unlock()
}

// DeferBad holds to function end via defer.
func DeferBad(s *shard, c clock) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, _ := c.TrustedNow() // want `TrustedNow call while holding s\.mu`
	return n
}

// RLockBad covers reader locks.
func RLockBad(s *shard, c clock) int64 {
	s.rw.RLock()
	n, _ := c.TrustedNow() // want `TrustedNow call while holding s\.rw`
	s.rw.RUnlock()
	return n
}

// SelectSend covers sends inside select clauses.
func SelectSend(s *shard, done chan struct{}) {
	s.mu.Lock()
	select {
	case s.out <- 1: // want `channel send while holding s\.mu`
	case <-done:
	}
	s.mu.Unlock()
}

// SendBatchBad transmits a batch while holding the shard lock — the
// exact shape the sharded serving path must never regress into.
func SendBatchBad(s *shard, b batch) {
	s.mu.Lock()
	b.SendBatch(len(s.q)) // want `SendBatch call while holding s\.mu`
	s.mu.Unlock()
}

// SendmmsgBad covers a raw batched syscall wrapper under a deferred
// unlock (held to function end).
func SendmmsgBad(s *shard, b batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b.Sendmmsg(1) // want `Sendmmsg call while holding s\.mu`
}

// WriteToBad covers the stdlib per-datagram path under a reader lock.
func WriteToBad(s *shard, b batch, p []byte) {
	s.rw.RLock()
	b.WriteTo(p, "client") // want `WriteTo call while holding s\.rw`
	s.rw.RUnlock()
}

// SendBatchGood is the discipline the drain loops follow: snapshot
// under the lock, release, then transmit.
func SendBatchGood(s *shard, b batch) {
	s.mu.Lock()
	n := len(s.q)
	s.mu.Unlock()
	b.SendBatch(n)
}

// Good is the repo's own discipline: collect under the lock, release,
// then read trusted time and send.
func Good(s *shard, c clock) {
	s.mu.Lock()
	s.q = append(s.q, 1)
	s.mu.Unlock()
	n, _ := c.TrustedNow()
	s.out <- n
}

// GoodDefer never blocks under its deferred lock.
func GoodDefer(s *shard) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q)
}

// AliasGood locks through a pointer alias and unlocks through the
// field directly: value-flow canonicalization pairs the two, so the
// blocking call after the unlock is clean.
func AliasGood(s *shard, c clock) {
	mu := &s.mu
	mu.Lock()
	s.q = append(s.q, 1)
	s.mu.Unlock()
	n, _ := c.TrustedNow()
	s.out <- n
}

// AliasBad blocks while holding a lock taken through an alias.
func AliasBad(s *shard, c clock) {
	mu := &s.mu
	mu.Lock()
	n, _ := c.TrustedNow() // want `TrustedNow call while holding s\.mu`
	_ = n
	mu.Unlock()
}
