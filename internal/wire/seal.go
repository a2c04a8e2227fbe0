package wire

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
)

// KeySize is the AES-256 key size in bytes.
const KeySize = 32

// nonceSize is the AES-GCM nonce size: 4-byte sender ID + 8-byte counter.
const nonceSize = 12

// gcmOverhead is the AES-GCM authentication tag size. newAEAD asserts
// the constructed AEAD agrees.
const gcmOverhead = 16

// SealedOverhead is what sealing adds to any plaintext: the nonce in
// front and the authentication tag behind. Sized-buffer arithmetic for
// the variable-plaintext datagrams (SealDatagramAppend) hangs off it.
const SealedOverhead = nonceSize + gcmOverhead

// SealedSize is the exact on-the-wire size of a sealed protocol
// datagram: nonce || ciphertext || tag. Fixed because messages are
// fixed-size (see MarshaledSize); useful for sizing reusable buffers.
const SealedSize = SealedOverhead + MarshaledSize

// Errors returned by Open.
var (
	// ErrAuthFailed is returned when a datagram fails AEAD
	// authentication (tampered, truncated, or wrong key).
	ErrAuthFailed = errors.New("wire: authentication failed")
	// ErrReplay is returned when a datagram's nonce counter was already
	// accepted from that sender.
	ErrReplay = errors.New("wire: replayed message")
)

// Sealer encrypts outgoing datagrams for one sender identity. Each seal
// consumes one nonce counter value; a Sealer must not be shared across
// concurrent goroutines without external synchronization (the simulation
// is single-threaded; the live transport wraps it in a mutex).
type Sealer struct {
	aead     cipher.AEAD
	senderID uint32
	counter  uint64
	// nonce/plain are per-sealer scratch so the append-style hot path
	// never allocates; single-goroutine use is already the type's
	// contract (the counter would race first).
	nonce [nonceSize]byte
	plain [MarshaledSize]byte
}

// NewSealer creates a sealer for the given 32-byte pre-shared cluster key
// and unique sender identity. Two senders must never share an identity:
// nonce reuse under the same key would void all confidentiality.
func NewSealer(key []byte, senderID uint32) (*Sealer, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	return &Sealer{aead: aead, senderID: senderID}, nil
}

// SenderID reports the sealer's sender identity.
func (s *Sealer) SenderID() uint32 { return s.senderID }

// NewSealerShard creates one of a node's concurrent sealers. A node
// that seals from several goroutines (drain shards, shed paths) gives
// each its own sealer under the shared key; nonce uniqueness then
// requires each sealer to own a disjoint nonce space, which this
// constructor provides by deriving the sender identity base+shard.
// The caller reserves a contiguous identity range [base, base+shards)
// for the node — identities are cheap (32-bit space) and receivers
// track replay windows per identity, so shards neither collide with
// each other nor perturb one another's windows. shard must be below
// shards and base+shard must not wrap the 32-bit identity space.
func NewSealerShard(key []byte, base uint32, shard, shards int) (*Sealer, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("wire: sealer shard count %d must be positive", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("wire: sealer shard %d out of range [0,%d)", shard, shards)
	}
	if uint64(base)+uint64(shards-1) > uint64(^uint32(0)) {
		return nil, fmt.Errorf("wire: sealer shard range [%d,%d+%d) wraps the 32-bit sender-ID space", base, base, shards)
	}
	return NewSealer(key, base+uint32(shard))
}

// SealAppend encrypts and authenticates a message, appending the sealed
// datagram (nonce || ciphertext || tag, exactly SealedSize bytes) to dst
// and returning the extended slice. When dst has SealedSize spare
// capacity the call performs no heap allocation, which is what keeps the
// simulation's dispatch paths allocation-free: callers hold one scratch
// buffer per endpoint and reseal into it for every send.
//
//triad:hotpath
func (s *Sealer) SealAppend(dst []byte, m Message) []byte {
	m.MarshalInto(s.plain[:])
	return s.SealDatagramAppend(dst, s.plain[:])
}

// SealDatagramAppend seals an arbitrary-length plaintext datagram,
// appending nonce || ciphertext || tag (len(plaintext)+SealedOverhead
// bytes) to dst and returning the extended slice. It is the
// variable-size counterpart of SealAppend, used by the client-facing
// serving messages (TimeRequest/TimeResponse), which are larger than
// the fixed protocol Message. Like SealAppend, the call performs no
// heap allocation when dst has enough spare capacity.
//
//triad:hotpath
func (s *Sealer) SealDatagramAppend(dst, plaintext []byte) []byte {
	s.counter++
	binary.BigEndian.PutUint32(s.nonce[:4], s.senderID)
	binary.BigEndian.PutUint64(s.nonce[4:], s.counter)
	dst = append(dst, s.nonce[:]...)
	return s.aead.Seal(dst, s.nonce[:], plaintext, nil)
}

// Opener decrypts incoming datagrams and rejects replays. One Opener
// guards one receiving endpoint; it tracks a sliding replay window per
// sender, unless the endpoint keeps the windows itself (OpenWindowInto).
type Opener struct {
	aead    cipher.AEAD
	windows map[uint32]*ReplayWindow
}

// NewOpener creates an opener for the given 32-byte pre-shared key.
func NewOpener(key []byte) (*Opener, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	return &Opener{aead: aead, windows: make(map[uint32]*ReplayWindow)}, nil
}

// DatagramSender reports the sender identity a sealed datagram claims,
// and false when b is too short to be one. The claim is not yet
// authenticated, but it is bound: the identity is part of the nonce, so
// the datagram opens only as that sender's. An endpoint that keeps
// per-sender state looks it up once by this identity — the replay
// window included — and hands the window to OpenWindowInto.
func DatagramSender(b []byte) (uint32, bool) {
	if len(b) < SealedOverhead {
		return 0, false
	}
	return binary.BigEndian.Uint32(b[:4]), true
}

// OpenWindowInto is OpenInto for an endpoint that keeps its senders'
// replay windows itself: w is the window of the sender DatagramSender
// reports for b. It authenticates and decrypts b into scratch's spare
// capacity, then enforces w.
//
//triad:hotpath
func (o *Opener) OpenWindowInto(w *ReplayWindow, scratch []byte, b []byte) (Message, error) {
	plain, _, counter, err := o.open(scratch, b)
	if err != nil {
		return Message{}, err
	}
	if !w.accept(counter) {
		return Message{}, ErrReplay
	}
	return Unmarshal(plain)
}

// OpenInto authenticates and decrypts a datagram produced by
// SealAppend, returning the message and the claimed (and authenticated)
// sender identity. The decrypted plaintext is written into scratch's
// spare capacity (scratch may be nil, in which case a buffer is
// allocated). With cap(scratch) >=
// MarshaledSize the steady-state path performs no heap allocation. The
// plaintext never escapes — the returned Message is a value — so one
// scratch buffer per receiving endpoint suffices.
//
//triad:hotpath
func (o *Opener) OpenInto(scratch []byte, b []byte) (Message, uint32, error) {
	plain, sender, err := o.OpenDatagramInto(scratch, b)
	if err != nil {
		return Message{}, 0, err
	}
	m, err := Unmarshal(plain)
	if err != nil {
		return Message{}, 0, err
	}
	return m, sender, nil
}

// OpenDatagramInto authenticates and decrypts any sealed datagram
// (fixed protocol Message or variable client datagram), enforcing the
// per-sender anti-replay window, and returns the raw plaintext with
// the authenticated sender identity. The plaintext is written into
// scratch's spare capacity (scratch may be nil); it aliases that
// buffer, so callers decode before reusing it. Kind-specific decoding
// is the caller's: the serving layer follows with UnmarshalTimeRequest
// where the protocol engine would use Unmarshal.
//
//triad:hotpath
func (o *Opener) OpenDatagramInto(scratch []byte, b []byte) ([]byte, uint32, error) {
	plain, sender, counter, err := o.open(scratch, b)
	if err != nil {
		return nil, 0, err
	}
	w := o.windows[sender]
	if w == nil {
		w = &ReplayWindow{} //triad:nolint:hotpath one-time allocation on the first datagram from a never-seen sender
		o.windows[sender] = w
	}
	if !w.accept(counter) {
		// The bare sentinel: a replay is attacker-triggered, so rejecting
		// one must not format or allocate.
		return nil, 0, ErrReplay
	}
	return plain, sender, nil
}

// open authenticates and decrypts b into scratch's spare capacity and
// returns the plaintext with the nonce's sender identity and counter;
// the replay check is the caller's.
//
//triad:hotpath
func (o *Opener) open(scratch []byte, b []byte) ([]byte, uint32, uint64, error) {
	if len(b) < SealedOverhead {
		return nil, 0, 0, ErrAuthFailed
	}
	nonce := b[:nonceSize]
	plain, err := o.aead.Open(scratch[:0], nonce, b[nonceSize:], nil)
	if err != nil {
		return nil, 0, 0, ErrAuthFailed
	}
	return plain, binary.BigEndian.Uint32(nonce[:4]), binary.BigEndian.Uint64(nonce[4:]), nil
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("wire: key must be %d bytes, got %d", KeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("wire: new cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("wire: new GCM: %w", err)
	}
	if aead.Overhead() != gcmOverhead {
		return nil, fmt.Errorf("wire: unexpected AEAD overhead %d", aead.Overhead())
	}
	return aead, nil
}

// ReplayWindow is one sender's 64-entry sliding anti-replay window (RFC
// 6479 style): it accepts each counter at most once and tolerates
// reordering within the window, which matters because the network (or
// the attacker) may reorder UDP datagrams. The zero value is ready for
// use; copying one in use forks it, so it flows by pointer.
type ReplayWindow struct {
	max    uint64
	bitmap uint64
}

func (w *ReplayWindow) accept(counter uint64) bool {
	if counter == 0 {
		return false // counters start at 1
	}
	switch {
	case counter > w.max:
		shift := counter - w.max
		if shift >= 64 {
			w.bitmap = 1
		} else {
			w.bitmap = w.bitmap<<shift | 1
		}
		w.max = counter
		return true
	case w.max-counter >= 64:
		return false // too old to verify
	default:
		bit := uint64(1) << (w.max - counter)
		if w.bitmap&bit != 0 {
			return false
		}
		w.bitmap |= bit
		return true
	}
}
