// Package wire mimics the real wire package's stateful crypto types:
// a Sealer with a nonce counter and an Opener with replay windows.
package wire

// Sealer consumes one nonce counter value per seal.
type Sealer struct {
	counter uint64
}

// NewSealer returns a fresh sealer.
func NewSealer() *Sealer { return &Sealer{} }

// Seal consumes a nonce.
func (s *Sealer) Seal() uint64 {
	s.counter++
	return s.counter
}

// Opener tracks per-sender replay windows.
type Opener struct {
	windows map[uint32]uint64
}

// ReplayWindow is one sender's window, kept by an endpoint itself.
type ReplayWindow struct {
	max uint64
}

// Accept records a counter.
func (w *ReplayWindow) Accept(counter uint64) bool {
	if counter <= w.max {
		return false
	}
	w.max = counter
	return true
}

// NewOpener returns a fresh opener.
func NewOpener() *Opener { return &Opener{windows: map[uint32]uint64{}} }

// Accept records a counter.
func (o *Opener) Accept(sender uint32, counter uint64) bool {
	if o.windows[sender] >= counter {
		return false
	}
	o.windows[sender] = counter
	return true
}
