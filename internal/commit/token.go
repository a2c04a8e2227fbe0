// Package commit implements time-locked commitments and persistent
// trusted leases on top of a Triad trusted clock — the product surface
// the paper's introduction motivates (TSA-style sealing, T-Lease-style
// exclusive grants) turned into a servable subsystem.
//
// A Vault mints commitment tokens that say "this hash is sealed until
// trusted time T" and later vouches for their unlock: the unlock is
// granted only when the trusted clock has provably passed T, refused
// while the clock cannot vouch (Tainted, calibrating, or Degraded
// holdover — Degraded serves timestamps but never vouches), and fenced
// across restarts for lease-mode tokens via a persisted monotonic
// anchor (last-seen trusted nanos + epoch counter, fsync'd), following
// T-Lease's reboot-detection design: every restart bumps the epoch, so
// a lease granted before a crash can never race its post-restart
// successor, and an anchor file rolled back to an older copy is
// detected the moment a token from a newer epoch appears.
package commit

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Clock supplies trusted timestamps in nanoseconds. The node handle of
// either protocol variant (engine.Node) and the triadtime façade both
// provide a compatible method.
type Clock interface {
	TrustedNow() (int64, error)
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() (int64, error)

// TrustedNow implements Clock.
func (f ClockFunc) TrustedNow() (int64, error) { return f() }

// HashSize is the commitment hash size (SHA-256 of the sealed data;
// the vault never sees the data itself).
const HashSize = sha256.Size

// nonceSize makes tokens over the same (hash, unlock time) pair
// distinct and untransferable between requests.
const nonceSize = 16

// macSize is the HMAC-SHA256 tag size.
const macSize = sha256.Size

// TokenSize is the fixed serialized token size: hash + unlock + issued
// + epoch + flags + nonce + mac. internal/wire carries exactly this
// many bytes in commit datagrams (wire.CommitTokenSize; internal/serve
// asserts the two agree at compile time).
const TokenSize = HashSize + 8 + 8 + 8 + 1 + nonceSize + macSize

// Token flags.
const (
	// FlagLease marks a lease-mode token: valid only in the anchor
	// epoch it was minted in, so a restart fences it. Plain commitment
	// tokens stay unlockable across restarts.
	FlagLease uint8 = 1 << 0
)

// Token is one time-locked commitment: Hash is sealed until trusted
// time reaches UnlockNanos. The MAC binds every field to the vault
// key, so tokens are self-authenticating — the vault keeps no per-token
// state, only the anchor.
type Token struct {
	Hash        [HashSize]byte
	UnlockNanos int64
	// IssuedNanos is the trusted time the lock was minted at.
	IssuedNanos int64
	// Epoch is the anchor epoch the token was minted in — the fencing
	// generation a lease-mode token must match at unlock.
	Epoch uint64
	Flags uint8
	Nonce [nonceSize]byte
	MAC   [macSize]byte
}

// Lease reports whether the token is lease-mode (epoch-fenced).
func (t Token) Lease() bool { return t.Flags&FlagLease != 0 }

// UnlockTime returns the unlock instant on the trusted timeline (Unix
// for live deployments).
func (t Token) UnlockTime() time.Time { return time.Unix(0, t.UnlockNanos) }

// Marshal serializes the token.
func (t Token) Marshal() []byte {
	out := make([]byte, TokenSize)
	t.MarshalInto(out)
	return out
}

// MarshalInto serializes the token into b, which must be at least
// TokenSize bytes. The allocation-free form of Marshal, for response
// paths that embed tokens in preallocated datagram buffers.
func (t Token) MarshalInto(b []byte) {
	_ = b[TokenSize-1] // bounds hint
	copy(b, t.Hash[:])
	binary.BigEndian.PutUint64(b[HashSize:], uint64(t.UnlockNanos))
	binary.BigEndian.PutUint64(b[HashSize+8:], uint64(t.IssuedNanos))
	binary.BigEndian.PutUint64(b[HashSize+16:], t.Epoch)
	b[HashSize+24] = t.Flags
	copy(b[HashSize+25:], t.Nonce[:])
	copy(b[HashSize+25+nonceSize:], t.MAC[:])
}

// ErrTokenEncoding is returned for malformed serialized tokens.
var ErrTokenEncoding = errors.New("commit: malformed token")

// UnmarshalToken parses a token produced by Marshal. Authentication is
// separate: parsing succeeds for any correctly-sized buffer, and the
// vault's MAC check decides trust.
func UnmarshalToken(b []byte) (Token, error) {
	if len(b) != TokenSize {
		return Token{}, fmt.Errorf("%w: %d bytes, want %d", ErrTokenEncoding, len(b), TokenSize)
	}
	var t Token
	copy(t.Hash[:], b[:HashSize])
	t.UnlockNanos = int64(binary.BigEndian.Uint64(b[HashSize:]))
	t.IssuedNanos = int64(binary.BigEndian.Uint64(b[HashSize+8:]))
	t.Epoch = binary.BigEndian.Uint64(b[HashSize+16:])
	t.Flags = b[HashSize+24]
	copy(t.Nonce[:], b[HashSize+25:])
	copy(t.MAC[:], b[HashSize+25+nonceSize:])
	return t, nil
}
