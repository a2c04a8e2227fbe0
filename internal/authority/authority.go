// Package authority implements Triad's Time Authority (TA): the root of
// trust for reference time, standing in for an NTP-grade time server.
//
// The TA's contract is the one the paper's calibration protocol relies
// on: upon a TimeRequest carrying a requested sleep s, wait s, then
// respond with the reference time read at send time. Requests with s=0
// are answered immediately. All traffic is AES-256-GCM protected, so a
// network attacker can delay responses but neither read s nor forge
// timestamps.
package authority

import (
	"fmt"
	"sync"
	"time"

	"triadtime/internal/wire"
)

// MaxSleep bounds the sleep a client may request, protecting the TA
// from resource-exhaustion via absurd wait times.
const MaxSleep = 10 * time.Second

// Clock supplies the TA's reference time in nanoseconds.
type Clock func() int64

// Authority is the transport-independent TA logic. Bindings (SimBinding
// here, the UDP server in server.go) feed it datagrams and schedule its
// delayed replies. It is safe for concurrent use: the live server
// processes requests and fires delayed replies on separate goroutines
// while operators read the served counters.
type Authority struct {
	mu     sync.Mutex
	opener *wire.Opener
	sealer *wire.Sealer
	clock  Clock
	served map[uint32]int
	// openBuf is the request-side plaintext scratch (guarded by mu, like
	// the opener itself). Replies still seal into fresh buffers: a reply
	// builder runs after its sleep, possibly concurrently with later
	// builders, and the returned bytes outlive the lock.
	openBuf []byte
}

// New creates a Time Authority using the cluster's pre-shared key, the
// TA's own wire sender ID, and a reference clock.
func New(key []byte, senderID uint32, clock Clock) (*Authority, error) {
	opener, err := wire.NewOpener(key)
	if err != nil {
		return nil, fmt.Errorf("authority: %w", err)
	}
	sealer, err := wire.NewSealer(key, senderID)
	if err != nil {
		return nil, fmt.Errorf("authority: %w", err)
	}
	return &Authority{
		opener:  opener,
		sealer:  sealer,
		clock:   clock,
		served:  make(map[uint32]int),
		openBuf: make([]byte, 0, wire.MarshaledSize),
	}, nil
}

// Process authenticates and decodes one incoming datagram. For a valid
// TimeRequest it returns the sleep to observe (clamped to MaxSleep) and
// a reply builder that must be invoked after that sleep: the builder
// reads the clock at call time and seals the response. For anything
// else (tampered, replayed, or non-request messages) ok is false and
// the datagram is dropped, mirroring a hardened server's behaviour.
func (a *Authority) Process(datagram []byte) (sleep time.Duration, reply func() []byte, ok bool) {
	a.mu.Lock()
	msg, sender, err := a.opener.OpenInto(a.openBuf, datagram)
	a.mu.Unlock()
	if err != nil || msg.Kind != wire.KindTimeRequest {
		return 0, nil, false
	}
	sleep = msg.Sleep
	if sleep < 0 {
		sleep = 0
	}
	if sleep > MaxSleep {
		sleep = MaxSleep
	}
	seq := msg.Seq
	reply = func() []byte {
		a.mu.Lock()
		a.served[sender]++
		sealed := a.sealer.SealAppend(make([]byte, 0, wire.SealedSize), wire.Message{
			Kind:      wire.KindTimeResponse,
			Seq:       seq,
			TimeNanos: a.clock(),
		})
		a.mu.Unlock()
		return sealed
	}
	return sleep, reply, true
}

// Served reports how many responses have been sent to the given sender,
// the quantity Figure 2b tracks per node.
func (a *Authority) Served(sender uint32) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.served[sender]
}

// TotalServed reports the total number of responses sent.
func (a *Authority) TotalServed() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	for _, n := range a.served {
		total += n
	}
	return total
}
