package commit

import (
	"errors"
	"testing"
	"time"
)

// scriptClock is a hand-driven trusted clock.
type scriptClock struct {
	nanos int64
	err   error
}

func (c *scriptClock) TrustedNow() (int64, error) {
	if c.err != nil {
		return 0, c.err
	}
	return c.nanos, nil
}

func testVaultKey() []byte {
	k := make([]byte, 32)
	for i := range k {
		k[i] = byte(i + 1)
	}
	return k
}

// detRand is a deterministic nonce source.
func detRand() func([]byte) (int, error) {
	var ctr byte
	return func(b []byte) (int, error) {
		for i := range b {
			ctr++
			b[i] = ctr
		}
		return len(b), nil
	}
}

func testHash() [HashSize]byte {
	var h [HashSize]byte
	for i := range h {
		h[i] = byte(i * 7)
	}
	return h
}

func openTestVault(t *testing.T, clk Clock, store Store, vouch func() bool) *Vault {
	t.Helper()
	v, err := Open(Config{
		Clock:         clk,
		Vouch:         vouch,
		Key:           testVaultKey(),
		Store:         store,
		Rand:          detRand(),
		RollbackSlack: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestLockUnlockBasics(t *testing.T) {
	clk := &scriptClock{nanos: 1000}
	v := openTestVault(t, clk, nil, nil)

	tok, vd := v.Lock(testHash(), 5000, 0)
	if vd != OK {
		t.Fatalf("lock verdict %v", vd)
	}
	if tok.IssuedNanos != 1000 || tok.UnlockNanos != 5000 || tok.Epoch != 1 || tok.Lease() {
		t.Fatalf("minted token %+v", tok)
	}

	// Too early: sealed, with the deciding trusted now reported.
	if now, vd := v.Unlock(tok); vd != Sealed || now != 1000 {
		t.Fatalf("early unlock: now=%d verdict=%v", now, vd)
	}
	if _, vd := v.Status(tok); vd != Sealed {
		t.Fatalf("early status not sealed")
	}

	clk.nanos = 5000
	if now, vd := v.Unlock(tok); vd != OK || now != 5000 {
		t.Fatalf("due unlock: now=%d verdict=%v", now, vd)
	}
	if _, vd := v.Status(tok); vd != OK {
		t.Fatalf("due status not ok")
	}

	c := v.Counters()
	if c.LocksIssued != 1 || c.UnlocksGranted != 1 || c.UnlocksRefusedEarly != 1 || c.StatusQueries != 2 {
		t.Fatalf("counters %+v", c)
	}
}

func TestLockValidation(t *testing.T) {
	clk := &scriptClock{nanos: int64(time.Hour)}
	v, err := Open(Config{Clock: clk, Key: testVaultKey(), Rand: detRand(), MaxLockDur: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, vd := v.Lock(testHash(), clk.nanos, 0); vd != BadToken {
		t.Fatalf("lock at now accepted: %v", vd)
	}
	if _, vd := v.Lock(testHash(), clk.nanos-1, 0); vd != BadToken {
		t.Fatalf("lock in the past accepted: %v", vd)
	}
	if _, vd := v.Lock(testHash(), clk.nanos+int64(time.Minute)+1, 0); vd != BadToken {
		t.Fatalf("lock beyond MaxLockDur accepted: %v", vd)
	}
	clk.err = errors.New("calibrating")
	if _, vd := v.Lock(testHash(), clk.nanos+1, 0); vd != Unavailable {
		t.Fatalf("lock without clock: %v", vd)
	}
}

func TestForgedTokenRefused(t *testing.T) {
	clk := &scriptClock{nanos: 1000}
	v := openTestVault(t, clk, nil, nil)
	tok, _ := v.Lock(testHash(), 2000, 0)
	clk.nanos = 3000

	mutations := map[string]func(*Token){
		"mac bit":    func(t *Token) { t.MAC[0] ^= 1 },
		"hash":       func(t *Token) { t.Hash[5] ^= 1 },
		"unlock":     func(t *Token) { t.UnlockNanos = 1 }, // rewind the seal
		"epoch":      func(t *Token) { t.Epoch = 0 },
		"flags":      func(t *Token) { t.Flags |= FlagLease },
		"nonce":      func(t *Token) { t.Nonce[0] ^= 1 },
		"issued":     func(t *Token) { t.IssuedNanos++ },
		"zero token": func(t *Token) { *t = Token{} },
	}
	for name, mutate := range mutations {
		bad := tok
		mutate(&bad)
		if _, vd := v.Unlock(bad); vd != BadToken {
			t.Errorf("%s mutation: verdict %v, want BadToken", name, vd)
		}
	}
	if c := v.Counters(); c.UnlocksRefusedForged != uint64(len(mutations)) {
		t.Fatalf("forged count %d, want %d", c.UnlocksRefusedForged, len(mutations))
	}
	// The genuine token still unlocks.
	if _, vd := v.Unlock(tok); vd != OK {
		t.Fatalf("genuine token refused after forgeries")
	}
}

func TestDegradedHoldoverNeverVouches(t *testing.T) {
	clk := &scriptClock{nanos: 1000}
	vouching := true
	v := openTestVault(t, clk, nil, func() bool { return vouching })

	tok, vd := v.Lock(testHash(), 2000, 0)
	if vd != OK {
		t.Fatalf("lock in OK state: %v", vd)
	}
	vouching = false // node drops to Degraded holdover

	// Locks may still be minted (a lock promises nothing about time
	// having passed)...
	if _, vd := v.Lock(testHash(), 3000, 0); vd != OK {
		t.Fatalf("lock in holdover: %v", vd)
	}
	// ...refusing early is always safe...
	if _, vd := v.Unlock(tok); vd != Sealed {
		t.Fatalf("early unlock in holdover: %v", vd)
	}
	// ...but once the holdover clock claims T has passed, the vault
	// must not vouch for it.
	clk.nanos = 2500
	if _, vd := v.Unlock(tok); vd != Unavailable {
		t.Fatalf("holdover unlock: %v, want Unavailable", vd)
	}
	if c := v.Counters(); c.UnlocksRefusedDegraded != 1 {
		t.Fatalf("degraded refusals %d", c.UnlocksRefusedDegraded)
	}
	vouching = true
	if _, vd := v.Unlock(tok); vd != OK {
		t.Fatalf("unlock after recovery: %v", vd)
	}
}

// TestLeaseFenceAcrossRestart is the T-Lease core: a lease-mode token
// minted before a restart is fenced by the epoch bump, while a plain
// commitment survives.
func TestLeaseFenceAcrossRestart(t *testing.T) {
	store := &MemStore{}
	clk := &scriptClock{nanos: 1000}

	v1 := openTestVault(t, clk, store, nil)
	leaseTok, vd := v1.Lock(testHash(), 2000, FlagLease)
	if vd != OK || !leaseTok.Lease() || leaseTok.Epoch != 1 {
		t.Fatalf("lease lock: %+v %v", leaseTok, vd)
	}
	plainTok, _ := v1.Lock(testHash(), 2000, 0)

	// "Restart": reopen from the persisted anchor.
	clk.nanos = 3000
	v2 := openTestVault(t, clk, store, nil)
	if e := v2.Epoch(); e != 2 {
		t.Fatalf("post-restart epoch %d, want 2", e)
	}
	if c := v2.Counters(); c.Restarts != 1 {
		t.Fatalf("restarts %d", c.Restarts)
	}

	// The stale lease holder is fenced even though its time has passed.
	if _, vd := v2.Unlock(leaseTok); vd != Fenced {
		t.Fatalf("stale lease unlock: %v, want Fenced", vd)
	}
	// The plain commitment still unlocks: restarts do not unseal or
	// destroy commitments.
	if _, vd := v2.Unlock(plainTok); vd != OK {
		t.Fatalf("plain commitment after restart: %v, want OK", vd)
	}
	if c := v2.Counters(); c.UnlocksRefusedFenced != 1 {
		t.Fatalf("fenced refusals %d", c.UnlocksRefusedFenced)
	}

	// And a fresh lease in the new epoch works.
	clk.nanos = 3500
	newLease, _ := v2.Lock(testHash(), 4000, FlagLease)
	clk.nanos = 4000
	if _, vd := v2.Unlock(newLease); vd != OK {
		t.Fatalf("new-epoch lease refused: %v", vd)
	}
}

// TestAnchorRollbackDetected rolls the anchor file back to an older
// copy: the reopened vault derives a stale epoch, and the first
// authentic token from a newer epoch exposes the rollback. The vault
// must detect it, re-fence past the evidence, and persist the fence.
func TestAnchorRollbackDetected(t *testing.T) {
	store := &MemStore{}
	clk := &scriptClock{nanos: 1000}

	openTestVault(t, clk, store, nil) // epoch 1
	oldAnchor, ok := store.Snapshot()
	if !ok {
		t.Fatal("no anchor persisted")
	}

	v2 := openTestVault(t, clk, store, nil) // epoch 2
	tok2, vd := v2.Lock(testHash(), 2000, 0)
	if vd != OK || tok2.Epoch != 2 {
		t.Fatalf("epoch-2 lock: %+v %v", tok2, vd)
	}

	// The attack: restore the epoch-1 anchor and restart. The vault
	// re-derives epoch 2 from stale state — a reused fencing epoch.
	store.Restore(oldAnchor)
	clk.nanos = 3000
	v3 := openTestVault(t, clk, store, nil)
	if e := v3.Epoch(); e != 2 {
		t.Fatalf("rolled-back reopen epoch %d, want 2 (stale)", e)
	}
	// Mint in the (stolen) epoch 2, then present the other incarnation's
	// epoch-2 token… still indistinguishable. But any epoch-3+ token —
	// here, from a third legitimate restart the attacker erased —
	// proves the rollback.
	store2 := &MemStore{}
	b, _ := store.Snapshot()
	store2.Restore(b)
	v4 := openTestVault(t, clk, store2, nil) // epoch 3, legitimate timeline
	tok3, _ := v4.Lock(testHash(), 4000, 0)
	if tok3.Epoch != 3 {
		t.Fatalf("epoch-3 token: %+v", tok3)
	}

	// v3 (epoch 2, on the rolled-back anchor) sees the epoch-3 token.
	if _, vd := v3.Unlock(tok3); vd != Fenced {
		t.Fatalf("future-epoch token verdict %v, want Fenced", vd)
	}
	c := v3.Counters()
	if c.AnchorRollbacks != 1 {
		t.Fatalf("anchor rollbacks %d, want 1", c.AnchorRollbacks)
	}
	// Re-fenced past the evidence…
	if e := v3.Epoch(); e != 4 {
		t.Fatalf("re-fenced epoch %d, want 4", e)
	}
	// …and the fence is durable: a reopen lands beyond it.
	v5 := openTestVault(t, clk, store, nil)
	if e := v5.Epoch(); e != 5 {
		t.Fatalf("post-fence reopen epoch %d, want 5", e)
	}
}

// TestFutureAnchorRefused replays an anchor whose high-water mark is
// ahead of the trusted clock: the vault must refuse to start (clock
// available) or refuse to vouch (clock arrives later).
func TestFutureAnchorRefused(t *testing.T) {
	store := &MemStore{}
	clk := &scriptClock{nanos: int64(time.Hour)}
	v1 := openTestVault(t, clk, store, nil)
	if _, vd := v1.Lock(testHash(), clk.nanos+1000, 0); vd != OK {
		t.Fatal("seed lock failed")
	}
	if err := v1.Flush(); err != nil {
		t.Fatal(err)
	}

	// Replayed into a deployment whose trusted clock is far behind.
	clk2 := &scriptClock{nanos: 1000}
	_, err := Open(Config{Clock: clk2, Key: testVaultKey(), Store: store, Rand: detRand(), RollbackSlack: time.Millisecond})
	if !errors.Is(err, ErrAnchorFuture) {
		t.Fatalf("future anchor accepted: %v", err)
	}

	// With the clock unavailable at open, the refusal is deferred to
	// the first read: every operation refuses until trusted time
	// catches up with the anchor's history.
	clk3 := &scriptClock{err: errors.New("calibrating")}
	v2, err := Open(Config{Clock: clk3, Key: testVaultKey(), Store: store, Rand: detRand(), RollbackSlack: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	clk3.err = nil
	clk3.nanos = 1000
	if _, vd := v2.Lock(testHash(), 2000, 0); vd != Unavailable {
		t.Fatalf("lock under future anchor: %v", vd)
	}
	if c := v2.Counters(); c.ClockRollbacks != 1 {
		t.Fatalf("clock rollbacks %d", c.ClockRollbacks)
	}
	// Once trusted time passes the anchor's history, service resumes.
	clk3.nanos = int64(time.Hour) + 5000
	if _, vd := v2.Lock(testHash(), clk3.nanos+1000, 0); vd != OK {
		t.Fatalf("lock after catch-up: %v", vd)
	}
}

// TestClockRollbackRefused steps the trusted clock backward past the
// slack: the vault has already vouched against later history and must
// stop vouching.
func TestClockRollbackRefused(t *testing.T) {
	clk := &scriptClock{nanos: int64(time.Second)}
	v := openTestVault(t, clk, nil, nil)
	tok, _ := v.Lock(testHash(), clk.nanos+100, 0)

	clk.nanos += 200
	if _, vd := v.Unlock(tok); vd != OK {
		t.Fatal("pre-rollback unlock failed")
	}

	clk.nanos -= 100 // a 100ns step back, within the 1ms slack: tolerated
	if _, vd := v.Status(tok); vd != OK {
		t.Fatal("within-slack status refused")
	}

	clk.nanos -= int64(2 * time.Millisecond) // beyond slack
	if _, vd := v.Unlock(tok); vd != Unavailable {
		t.Fatalf("rolled-back clock unlock: %v", vd)
	}
	if c := v.Counters(); c.ClockRollbacks != 1 || c.UnlocksRefusedUnavailable != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestPersistAmortization(t *testing.T) {
	store := &MemStore{}
	clk := &scriptClock{nanos: 0}
	v, err := Open(Config{
		Clock: clk, Key: testVaultKey(), Store: store, Rand: detRand(),
		FlushInterval: time.Second, RollbackSlack: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lastPersisted := func() int64 {
		t.Helper()
		b, ok := store.Snapshot()
		if !ok {
			t.Fatal("no anchor")
		}
		var st anchorState
		if err := decodeAnchor(b, testVaultKey(), &st); err != nil {
			t.Fatal(err)
		}
		return st.LastNanos.Load()
	}

	clk.nanos = int64(100 * time.Millisecond)
	v.Lock(testHash(), clk.nanos+1000, 0)
	if got := lastPersisted(); got != 0 {
		t.Fatalf("high-water persisted too eagerly: %d", got)
	}
	clk.nanos = int64(2 * time.Second)
	v.Lock(testHash(), clk.nanos+1000, 0)
	if got := lastPersisted(); got != clk.nanos {
		t.Fatalf("high-water not persisted after interval: %d, want %d", got, clk.nanos)
	}
}

func TestPersistErrorCounted(t *testing.T) {
	store := &MemStore{}
	clk := &scriptClock{nanos: 0}
	v, err := Open(Config{
		Clock: clk, Key: testVaultKey(), Store: store, Rand: detRand(),
		FlushInterval: time.Second, RollbackSlack: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	store.FailSaves = 1
	clk.nanos = int64(2 * time.Second)
	if _, vd := v.Lock(testHash(), clk.nanos+1000, 0); vd != OK {
		t.Fatal("lock should survive a failed amortized persist")
	}
	if c := v.Counters(); c.PersistErrors != 1 {
		t.Fatalf("persist errors %d", c.PersistErrors)
	}
}

// TestVaultZeroAllocSteadyState gates the unlock/status hot path: the
// serving layer decides every commit request under the vault mutex, so
// per-op allocation would show up at six figures of req/s.
func TestVaultZeroAllocSteadyState(t *testing.T) {
	clk := &scriptClock{nanos: 1000}
	v := openTestVault(t, clk, nil, nil)
	tok, _ := v.Lock(testHash(), 2000, 0)
	clk.nanos = 3000
	if _, vd := v.Unlock(tok); vd != OK {
		t.Fatal("warmup unlock failed")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, vd := v.Unlock(tok); vd != OK {
			t.Fatal("unlock failed")
		}
		if _, vd := v.Status(tok); vd != OK {
			t.Fatal("status failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("unlock+status allocated %.1f times per op", allocs)
	}
}

func BenchmarkCommitUnlockThroughput(b *testing.B) {
	clk := &scriptClock{nanos: 1000}
	v, err := Open(Config{Clock: clk, Key: testVaultKey(), Rand: detRand(), RollbackSlack: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	tok, vd := v.Lock(testHash(), 2000, 0)
	if vd != OK {
		b.Fatal("lock failed")
	}
	clk.nanos = 3000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, vd := v.Unlock(tok); vd != OK {
			b.Fatal("unlock failed")
		}
	}
}

func BenchmarkCommitLock(b *testing.B) {
	clk := &scriptClock{nanos: 1000}
	v, err := Open(Config{Clock: clk, Key: testVaultKey(), Rand: detRand(), RollbackSlack: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	h := testHash()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, vd := v.Lock(h, 2000, 0); vd != OK {
			b.Fatal("lock failed")
		}
	}
}
