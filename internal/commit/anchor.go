package commit

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"triadtime/internal/monotonic"
)

// anchorState is the vault's persisted identity: the fencing epoch,
// the highest trusted time the vault has vouched against, and how many
// times the vault has been reopened. It is the whole of the vault's
// durable state — tokens are self-authenticating, so the anchor is the
// only thing that must survive a crash for the T-Lease fencing
// guarantees to hold. None of the three may move backwards: a rewound
// epoch revalidates fenced tokens, a rewound high-water mark hides a
// clock rollback, and a rewound restart count falsifies the audit trail.
type anchorState struct {
	Epoch     monotonic.Value[uint64]
	LastNanos monotonic.Value[int64]
	Restarts  monotonic.Value[uint64]
}

// Anchor file format: magic(4) + version(1) + epoch(8) + lastNanos(8)
// + restarts(8) + hmac-sha256(32). The MAC (keyed by the vault key,
// domain-separated from token MACs) makes a hand-edited or
// cross-deployment anchor indistinguishable from a torn write: both
// fail authentication and are refused, never silently reset.
const (
	anchorVersion = 1
	anchorSize    = 4 + 1 + 8 + 8 + 8 + macSize
)

var anchorMagic = [4]byte{'T', 'R', 'A', 'N'}

// anchorMACLabel domain-separates anchor MACs from token MACs under
// the shared vault key.
const anchorMACLabel = "triad-commit-anchor-v1"

// Errors surfaced by anchor persistence.
var (
	// ErrNoAnchor is returned by a Store whose location holds no anchor
	// yet (first boot).
	ErrNoAnchor = errors.New("commit: no anchor")
	// ErrAnchorCorrupt is returned when a stored anchor fails to decode
	// or authenticate — a torn write, a tampered file, or an anchor
	// written under a different key. The vault refuses to start rather
	// than guess an epoch.
	ErrAnchorCorrupt = errors.New("commit: anchor corrupt or tampered")
	// ErrAnchorFuture is returned when a loaded anchor's last-seen
	// trusted time is ahead of the trusted clock — the anchor was
	// replayed from a different timeline or the clock rolled back;
	// either way the vault's monotonic history cannot be trusted.
	ErrAnchorFuture = errors.New("commit: anchor is from the future")
)

// encodeAnchor serializes and MACs the state into b (anchorSize
// bytes). mac must be the vault's anchor HMAC instance; the caller
// holds the vault mutex. Allocation-free.
func encodeAnchor(b *[anchorSize]byte, st *anchorState, key []byte) {
	copy(b[:], anchorMagic[:])
	b[4] = anchorVersion
	binary.BigEndian.PutUint64(b[5:], st.Epoch.Load())
	binary.BigEndian.PutUint64(b[13:], uint64(st.LastNanos.Load()))
	binary.BigEndian.PutUint64(b[21:], st.Restarts.Load())
	m := hmac.New(sha256.New, key)
	m.Write([]byte(anchorMACLabel))
	m.Write(b[:29])
	m.Sum(b[29:29])
}

// decodeAnchor parses and authenticates a stored anchor into st, which
// must be fresh (zero). A high-water mark below zero is refused as
// corrupt: the mark starts at zero and only rises, so no vault wrote it.
func decodeAnchor(b []byte, key []byte, st *anchorState) error {
	if len(b) != anchorSize || [4]byte(b[:4]) != anchorMagic || b[4] != anchorVersion {
		return fmt.Errorf("%w: %d bytes", ErrAnchorCorrupt, len(b))
	}
	m := hmac.New(sha256.New, key)
	m.Write([]byte(anchorMACLabel))
	m.Write(b[:29])
	if !hmac.Equal(m.Sum(nil), b[29:]) {
		return fmt.Errorf("%w: bad MAC", ErrAnchorCorrupt)
	}
	lastNanos := int64(binary.BigEndian.Uint64(b[13:]))
	if lastNanos < 0 {
		return fmt.Errorf("%w: negative high-water mark %d", ErrAnchorCorrupt, lastNanos)
	}
	st.Epoch.Raise(binary.BigEndian.Uint64(b[5:]))
	st.LastNanos.Raise(lastNanos)
	st.Restarts.Raise(binary.BigEndian.Uint64(b[21:]))
	return nil
}

// Store persists the anchor. Save must be atomic and durable: a crash
// between Saves must leave the previous anchor readable, never a torn
// mix (the fencing argument depends on it).
type Store interface {
	// Load returns the stored anchor bytes, or ErrNoAnchor when the
	// location holds none yet.
	Load() ([]byte, error)
	// Save durably replaces the stored anchor.
	Save(b []byte) error
}

// FileStore persists the anchor in a single file, replaced atomically
// (write temp in the same directory, fsync, rename, fsync directory) —
// the standard crash-safe small-state idiom, so a crash mid-write
// leaves either the old anchor or the new one, never a torn file. A
// leftover temp file from a crashed write is ignored and overwritten.
type FileStore struct {
	path string
}

// NewFileStore creates a file-backed anchor store at path.
func NewFileStore(path string) *FileStore { return &FileStore{path: path} }

// Path returns the anchor file location.
func (s *FileStore) Path() string { return s.path }

// Load implements Store.
func (s *FileStore) Load() ([]byte, error) {
	b, err := os.ReadFile(s.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoAnchor
	}
	return b, err
}

// Save implements Store.
func (s *FileStore) Save(b []byte) error {
	tmp := s.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return err
	}
	// Fsync the directory so the rename itself survives a crash.
	dir, err := os.Open(filepath.Dir(s.path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// MemStore is an in-memory Store for simulations and tests. Safe for
// concurrent use.
type MemStore struct {
	mu  sync.Mutex
	b   []byte
	set bool
	// FailSaves, while positive, makes that many Saves fail — for
	// exercising the vault's persistence-error accounting.
	FailSaves int
}

// Load implements Store.
func (s *MemStore) Load() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.set {
		return nil, ErrNoAnchor
	}
	return append([]byte(nil), s.b...), nil
}

// Save implements Store.
func (s *MemStore) Save(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.FailSaves > 0 {
		s.FailSaves--
		return errors.New("commit: memstore save failed (injected)")
	}
	if cap(s.b) < len(b) {
		s.b = make([]byte, len(b))
	}
	s.b = s.b[:len(b)]
	copy(s.b, b)
	s.set = true
	return nil
}

// Snapshot returns a copy of the stored bytes (for tests that replay
// or roll back anchors).
func (s *MemStore) Snapshot() ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.set {
		return nil, false
	}
	return append([]byte(nil), s.b...), true
}

// Restore overwrites the stored bytes (for tests that replay or roll
// back anchors).
func (s *MemStore) Restore(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b = append(s.b[:0], b...)
	s.set = true
}
