// Package tsa builds an RFC3161-style TimeStamping Authority on top of
// a trusted-time source: it issues compact, MAC-authenticated tokens
// binding a document hash to a trusted timestamp. TimeStamping
// Authorities are the first motivating use-case of the paper's
// introduction — their value collapses if the host can manipulate the
// clock, which is exactly what Triad-style trusted time prevents.
//
// The package is transport- and protocol-agnostic: any Clock works —
// a simulated or live Triad node (original or hardened), or a plain
// system clock for tests.
package tsa

import (
	"crypto/hmac"
	"crypto/rand"
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

// HashSize is the document hash size (SHA-256).
const HashSize = sha256.Size

// nonceSize makes tokens over the same (document, nanosecond) pair
// distinct and untransferable between requests.
const nonceSize = 16

// macSize is the HMAC-SHA256 tag size.
const macSize = sha256.Size

// TokenSize is the fixed serialized token size.
const TokenSize = HashSize + 8 + nonceSize + macSize

// Token binds a document hash to a trusted timestamp.
type Token struct {
	Hash  [HashSize]byte
	Nanos int64
	Nonce [nonceSize]byte
	MAC   [macSize]byte
}

// Time returns the token's timestamp on the authority timeline (Unix
// for live deployments).
func (t Token) Time() time.Time { return time.Unix(0, t.Nanos) }

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
	binary.BigEndian.PutUint64(b[HashSize:], uint64(t.Nanos))
	copy(b[HashSize+8:], t.Nonce[:])
	copy(b[HashSize+8+nonceSize:], t.MAC[:])
}

// ErrTokenEncoding is returned for malformed serialized tokens.
var ErrTokenEncoding = errors.New("tsa: malformed token")

// Unmarshal parses a token produced by Marshal.
func Unmarshal(b []byte) (Token, error) {
	if len(b) != TokenSize {
		return Token{}, fmt.Errorf("%w: %d bytes, want %d", ErrTokenEncoding, len(b), TokenSize)
	}
	var t Token
	copy(t.Hash[:], b[:HashSize])
	t.Nanos = int64(binary.BigEndian.Uint64(b[HashSize:]))
	copy(t.Nonce[:], b[HashSize+8:])
	copy(t.MAC[:], b[HashSize+8+nonceSize:])
	return t, nil
}

// Stamper issues and verifies timestamp tokens.
type Stamper struct {
	clock Clock
	key   []byte
	// randRead is swapped in tests for determinism.
	randRead func([]byte) (int, error)
}

// New creates a stamper. The key authenticates tokens; anyone holding
// it can verify (and forge), so share it only with verifiers you trust
// — or run the stamper inside the TEE alongside the Triad node.
func New(clock Clock, key []byte) (*Stamper, error) {
	if clock == nil {
		return nil, errors.New("tsa: clock is required")
	}
	if len(key) < 16 {
		return nil, fmt.Errorf("tsa: key too short (%d bytes, want >= 16)", len(key))
	}
	cp := make([]byte, len(key))
	copy(cp, key)
	return &Stamper{clock: clock, key: cp, randRead: rand.Read}, nil
}

// Issue binds the document to the current trusted time. It fails when
// trusted time is unavailable (the Triad node is tainted/calibrating);
// callers retry, as with any availability-gated trusted service.
func (s *Stamper) Issue(document []byte) (Token, error) {
	nanos, err := s.clock.TrustedNow()
	if err != nil {
		return Token{}, fmt.Errorf("tsa: %w", err)
	}
	return s.IssueAt(sha256.Sum256(document), nanos)
}

// IssueAt binds an already-computed document hash to a trusted
// timestamp the caller obtained. It is the batching form of Issue: the
// serving subsystem reads trusted time once per batch and stamps every
// token in the batch against that read, instead of one clock call per
// request. The caller vouches that nanos came from the trusted clock —
// the token is only as trustworthy as its timestamp source.
func (s *Stamper) IssueAt(hash [HashSize]byte, nanos int64) (Token, error) {
	t := Token{Hash: hash, Nanos: nanos}
	if _, err := s.randRead(t.Nonce[:]); err != nil {
		return Token{}, fmt.Errorf("tsa: nonce: %w", err)
	}
	copy(t.MAC[:], s.mac(t))
	return t, nil
}

// Verify checks that the token authentically binds the document.
func (s *Stamper) Verify(document []byte, t Token) bool {
	if sha256.Sum256(document) != t.Hash {
		return false
	}
	return hmac.Equal(t.MAC[:], s.mac(t))
}

// VerifyBytes parses and verifies a serialized token.
func (s *Stamper) VerifyBytes(document, token []byte) (Token, bool) {
	t, err := Unmarshal(token)
	if err != nil {
		return Token{}, false
	}
	return t, s.Verify(document, t)
}

func (s *Stamper) mac(t Token) []byte {
	m := hmac.New(sha256.New, s.key)
	m.Write(t.Hash[:])
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(t.Nanos))
	m.Write(buf[:])
	m.Write(t.Nonce[:])
	return m.Sum(nil)
}
