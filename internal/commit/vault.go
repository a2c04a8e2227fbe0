package commit

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
	"time"

	"triadtime/internal/monotonic"
)

// Verdict is a vault operation's disposition. Values align 1:1 with
// wire.CommitVerdict (internal/serve asserts the correspondence at
// compile time); Overloaded exists only at the wire layer, since
// shedding happens before the vault is consulted.
type Verdict uint8

// Operation verdicts.
const (
	// OK: lock minted / unlock granted / status says unlockable now.
	OK Verdict = 1
	// Sealed: the token is authentic but trusted time has not reached
	// its unlock time.
	Sealed Verdict = 2
	// Fenced: the token's epoch is not this vault incarnation's — a
	// lease-mode token from before a restart, or any token from a
	// future epoch (which proves the anchor was rolled back).
	Fenced Verdict = 3
	// BadToken: authentication failed or the request was malformed.
	BadToken Verdict = 4
	// Unavailable: the trusted clock cannot vouch — unavailable,
	// contradicting persisted history, or in Degraded holdover.
	Unavailable Verdict = 5
)

// String names the verdict for logs and tables.
func (v Verdict) String() string {
	switch v {
	case OK:
		return "ok"
	case Sealed:
		return "sealed"
	case Fenced:
		return "fenced"
	case BadToken:
		return "bad-token"
	case Unavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// tokenMACLabel domain-separates token MACs from anchor MACs (and from
// tsa token MACs, which may share the key in deployments that reuse
// the TSA key for the vault).
const tokenMACLabel = "triad-commit-token-v1"

// Config configures a Vault.
type Config struct {
	// Clock is the trusted time source (required). It may be
	// unavailable at construction (node still calibrating); the vault
	// defers clock-dependent checks until the first read succeeds.
	Clock Clock
	// Vouch reports whether the clock may currently vouch for an
	// unlock decision. A quorum-calibrated node in Degraded holdover
	// still serves timestamps but must not vouch (paper §VI); wire this
	// to `state == OK`. nil means "vouch whenever the clock answers".
	Vouch func() bool
	// Key authenticates tokens and the anchor (>= 16 bytes). Reusing
	// the TSA key is safe: MACs are domain-separated.
	Key []byte
	// Store persists the anchor. nil means a fresh in-memory store
	// (no restart survival — simulations and tests).
	Store Store
	// Rand sources token nonces; nil means crypto/rand. Simulations
	// swap in a deterministic reader.
	Rand func([]byte) (int, error)
	// MaxLockDur bounds how far in the future a lock may seal
	// (0 means 24h).
	MaxLockDur time.Duration
	// RollbackSlack is how far trusted time may read below the
	// persisted high-water mark before the vault declares a clock
	// rollback (0 means 50ms; quorum recalibration can step a node's
	// timeline slightly). Negative disables the check.
	RollbackSlack time.Duration
	// FlushInterval is how much trusted time may pass between
	// high-water-mark persists (0 means 1s). Epoch changes always
	// persist immediately.
	FlushInterval time.Duration
}

// Counters is a snapshot of the vault's monotonic event counts.
type Counters struct {
	LocksIssued    uint64
	UnlocksGranted uint64
	// Refused unlocks, by reason. Early = trusted time not yet at the
	// unlock time; Fenced = epoch fencing; Degraded = the clock
	// answered but may not vouch (holdover); Unavailable = no trusted
	// time or history contradiction; Forged = MAC failure.
	UnlocksRefusedEarly       uint64
	UnlocksRefusedFenced      uint64
	UnlocksRefusedDegraded    uint64
	UnlocksRefusedUnavailable uint64
	UnlocksRefusedForged      uint64
	StatusQueries             uint64
	// AnchorRollbacks counts authentic tokens seen from a future epoch
	// — proof the anchor file was rolled back to an older copy. Each
	// detection re-fences past the token's epoch.
	AnchorRollbacks uint64
	// ClockRollbacks counts trusted reads below the persisted
	// high-water mark (beyond RollbackSlack).
	ClockRollbacks uint64
	// PersistErrors counts failed anchor Saves after construction (the
	// vault keeps serving on its in-memory state; the gap is visible
	// here and in /metrics).
	PersistErrors uint64
	// Restarts is how many times this vault identity has been reopened
	// from a persisted anchor.
	Restarts uint64
}

// Vault mints and vouches for time-locked commitment tokens. Safe for
// concurrent use — the serving layer drives it from every shard.
type Vault struct {
	clock      Clock
	vouch      func() bool
	key        []byte
	store      Store
	randRead   func([]byte) (int, error)
	maxLock    int64
	slack      int64
	flushEvery int64

	mu sync.Mutex
	// st is the live anchor state; st.LastNanos is the in-memory
	// high-water mark, persisted at least every flushEvery of trusted
	// time (epoch changes persist immediately).
	st anchorState
	// persistedNanos is the durable image of st.LastNanos.
	persistedNanos monotonic.Value[int64]
	// anchorChecked flips once the loaded anchor has been validated
	// against a live trusted read (deferred when the clock was not yet
	// calibrated at Open).
	anchorChecked bool
	tokenMAC      hash.Hash // reused under mu for zero-alloc mint/verify
	tokenLabel    []byte    // tokenMACLabel, pre-converted off the hot path
	numBuf        [25]byte  // fixed-field MAC input scratch, reused under mu
	tokScratch    Token     // MAC computation operand; slices of a stack
	// token handed to the hash interface would force the caller's copy
	// to escape, so the hot path stages tokens here instead
	macBuf    [macSize]byte
	anchorBuf [anchorSize]byte
	c         Counters
}

// Open creates a vault, loading (or initializing) its anchor. A loaded
// anchor has its epoch bumped before any token is minted — the restart
// fence — and the bumped state is persisted before Open returns, so a
// crash right after Open cannot reuse an epoch. A corrupt or tampered
// anchor is refused (ErrAnchorCorrupt); an anchor ahead of an
// available trusted clock is refused (ErrAnchorFuture).
func Open(cfg Config) (*Vault, error) {
	if cfg.Clock == nil {
		return nil, errors.New("commit: clock is required")
	}
	if len(cfg.Key) < 16 {
		return nil, fmt.Errorf("commit: key too short (%d bytes, want >= 16)", len(cfg.Key))
	}
	if cfg.Store == nil {
		cfg.Store = &MemStore{}
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Read
	}
	if cfg.MaxLockDur <= 0 {
		cfg.MaxLockDur = 24 * time.Hour
	}
	slack := cfg.RollbackSlack
	if slack == 0 {
		slack = 50 * time.Millisecond
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = time.Second
	}
	key := make([]byte, len(cfg.Key))
	copy(key, cfg.Key)
	v := &Vault{
		clock:      cfg.Clock,
		vouch:      cfg.Vouch,
		key:        key,
		store:      cfg.Store,
		randRead:   cfg.Rand,
		maxLock:    int64(cfg.MaxLockDur),
		slack:      int64(slack),
		flushEvery: int64(cfg.FlushInterval),
		tokenMAC:   hmac.New(sha256.New, key),
		tokenLabel: []byte(tokenMACLabel),
	}
	if slack < 0 {
		v.slack = -1
	}

	raw, err := v.store.Load()
	switch {
	case errors.Is(err, ErrNoAnchor):
		v.st.Epoch.Next()
		v.anchorChecked = true // nothing to check against
	case err != nil:
		return nil, fmt.Errorf("commit: loading anchor: %w", err)
	default:
		if err := decodeAnchor(raw, v.key, &v.st); err != nil {
			return nil, err
		}
		// The restart fence: a new incarnation, a new epoch. Every
		// lease-mode token minted before this instant is now fenced.
		v.st.Epoch.Next()
		v.st.Restarts.Next()
		// If the clock can already answer, validate the anchor against
		// it now; otherwise the first successful read does it.
		if now, err := v.clock.TrustedNow(); err == nil {
			if last := v.st.LastNanos.Load(); v.slack >= 0 && now+v.slack < last {
				return nil, fmt.Errorf("%w: anchor at %d, trusted now %d", ErrAnchorFuture, last, now)
			}
			v.anchorChecked = true
			v.st.LastNanos.Raise(now)
		}
	}
	v.c.Restarts = v.st.Restarts.Load()
	if err := v.persistLocked(); err != nil {
		return nil, fmt.Errorf("commit: persisting anchor: %w", err)
	}
	return v, nil
}

// persistLocked writes the current anchor state through the store.
// Caller holds v.mu (or is still constructing the vault).
func (v *Vault) persistLocked() error {
	encodeAnchor(&v.anchorBuf, &v.st, v.key)
	if err := v.store.Save(v.anchorBuf[:]); err != nil {
		return err
	}
	v.persistedNanos.Raise(v.st.LastNanos.Load())
	return nil
}

// flushLocked persists the anchor if forced or if the high-water mark
// has advanced past the flush interval. A failed Save is counted
// (PersistErrors) and the vault keeps serving on its in-memory state.
func (v *Vault) flushLocked(force bool) {
	if !force && v.st.LastNanos.Load()-v.persistedNanos.Load() < v.flushEvery {
		return
	}
	if err := v.persistLocked(); err != nil {
		v.c.PersistErrors++
	}
}

// nowLocked reads trusted time, maintains the monotonic high-water
// mark, and performs the deferred anchor-vs-clock validation and the
// clock-rollback check. ok=false means the read cannot be vouched
// against persisted history.
func (v *Vault) nowLocked() (now int64, ok bool) {
	now, err := v.clock.TrustedNow()
	if err != nil {
		return 0, false
	}
	if v.slack >= 0 && now+v.slack < v.st.LastNanos.Load() {
		// The trusted clock reads below history this vault already
		// vouched against: a rolled-back clock, or an anchor replayed
		// from the future. Either way, refuse to vouch.
		v.c.ClockRollbacks++
		return now, false
	}
	v.anchorChecked = true
	if v.st.LastNanos.Raise(now) {
		v.flushLocked(false)
	}
	return now, true
}

// macScratchLocked computes the MAC of v.tokScratch into v.macBuf.
// Caller holds v.mu and has staged the token in v.tokScratch.
// Allocation-free: the HMAC instance is reused, and every slice handed
// to the hash interface belongs to the vault, not the caller's stack.
func (v *Vault) macScratchLocked() {
	t := &v.tokScratch
	m := v.tokenMAC
	m.Reset()
	m.Write(v.tokenLabel)
	m.Write(t.Hash[:])
	binary.BigEndian.PutUint64(v.numBuf[0:], uint64(t.UnlockNanos))
	binary.BigEndian.PutUint64(v.numBuf[8:], uint64(t.IssuedNanos))
	binary.BigEndian.PutUint64(v.numBuf[16:], t.Epoch)
	v.numBuf[24] = t.Flags
	m.Write(v.numBuf[:])
	m.Write(t.Nonce[:])
	m.Sum(v.macBuf[:0])
}

// Lock mints a token sealing hash until unlockNanos of trusted time.
// Minting is allowed whenever the clock answers — even in Degraded
// holdover, since a lock promises nothing about time having passed —
// but the unlock time must be in the future and within MaxLockDur.
// flags may include FlagLease for an epoch-fenced lease-mode token.
func (v *Vault) Lock(hashVal [HashSize]byte, unlockNanos int64, flags uint8) (Token, Verdict) {
	v.mu.Lock()
	defer v.mu.Unlock()
	now, ok := v.nowLocked()
	if !ok {
		return Token{}, Unavailable
	}
	if unlockNanos <= now || unlockNanos-now > v.maxLock {
		return Token{}, BadToken
	}
	v.tokScratch = Token{
		Hash:        hashVal,
		UnlockNanos: unlockNanos,
		IssuedNanos: now,
		Epoch:       v.st.Epoch.Load(),
		Flags:       flags & FlagLease,
	}
	if _, err := v.randRead(v.tokScratch.Nonce[:]); err != nil {
		return Token{}, Unavailable
	}
	v.macScratchLocked()
	v.tokScratch.MAC = v.macBuf
	v.c.LocksIssued++
	return v.tokScratch, OK
}

// Unlock vouches that trusted time has passed the token's unlock time.
// It returns the trusted now the decision was made against (0 when the
// clock could not answer) and the verdict; OK means the unlock is
// granted. The refusal ladder, in order: forged token, fencing (which
// also detects anchor rollback), clock unavailability or history
// contradiction, Degraded holdover (the clock answers but may not
// vouch), and finally "too early" (Sealed).
//
//triad:hotpath
func (v *Vault) Unlock(t Token) (int64, Verdict) {
	return v.decide(t, true)
}

// Status evaluates a token without consuming an unlock: the same
// verdict ladder as Unlock (OK = "unlockable right now"), counted
// separately.
func (v *Vault) Status(t Token) (int64, Verdict) {
	return v.decide(t, false)
}

func (v *Vault) decide(t Token, isUnlock bool) (int64, Verdict) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !isUnlock {
		v.c.StatusQueries++
	}
	v.tokScratch = t
	v.macScratchLocked()
	if !hmac.Equal(v.macBuf[:], v.tokScratch.MAC[:]) {
		if isUnlock {
			v.c.UnlocksRefusedForged++
		}
		return 0, BadToken
	}
	// An authentic token from a future epoch is proof the anchor was
	// rolled back to an older copy: this incarnation's epoch was
	// derived from stale state. Re-fence past the evidence and persist
	// immediately, so the stolen epochs can never be reissued.
	if t.Epoch > v.st.Epoch.Load() {
		v.c.AnchorRollbacks++
		v.st.Epoch.Raise(t.Epoch + 1)
		v.flushLocked(true)
		if isUnlock {
			v.c.UnlocksRefusedFenced++
		}
		return 0, Fenced
	}
	if t.Lease() && t.Epoch != v.st.Epoch.Load() {
		// A lease-mode token from a previous incarnation: fenced by the
		// restart bump, exactly T-Lease's stale-holder guarantee.
		if isUnlock {
			v.c.UnlocksRefusedFenced++
		}
		return 0, Fenced
	}
	now, ok := v.nowLocked()
	if !ok {
		if isUnlock {
			v.c.UnlocksRefusedUnavailable++
		}
		return now, Unavailable
	}
	if now < t.UnlockNanos {
		if isUnlock {
			v.c.UnlocksRefusedEarly++
		}
		return now, Sealed
	}
	if v.vouch != nil && !v.vouch() {
		// Degraded holdover: timestamps still flow, but the node must
		// not vouch that real time has passed the unlock bound.
		if isUnlock {
			v.c.UnlocksRefusedDegraded++
		}
		return now, Unavailable
	}
	if isUnlock {
		v.c.UnlocksGranted++
	}
	return now, OK
}

// Epoch returns the current fencing epoch.
func (v *Vault) Epoch() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.st.Epoch.Load()
}

// Counters returns a snapshot of the vault's event counts.
func (v *Vault) Counters() Counters {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.c
}

// Flush persists the current anchor state immediately (shutdown path).
func (v *Vault) Flush() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.persistLocked()
}
