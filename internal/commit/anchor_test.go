package commit

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestFileStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	store := NewFileStore(filepath.Join(dir, "anchor"))
	if _, err := store.Load(); !errors.Is(err, ErrNoAnchor) {
		t.Fatalf("empty store: %v", err)
	}
	clk := &scriptClock{nanos: 1000}
	v1, err := Open(Config{Clock: clk, Key: testVaultKey(), Store: store, Rand: detRand(), RollbackSlack: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	leaseTok, _ := v1.Lock(testHash(), 2000, FlagLease)

	// A real reopen from disk fences the lease holder.
	clk.nanos = 3000
	v2, err := Open(Config{Clock: clk, Key: testVaultKey(), Store: NewFileStore(store.Path()), Rand: detRand(), RollbackSlack: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Epoch() != 2 {
		t.Fatalf("epoch %d after reopen", v2.Epoch())
	}
	if _, vd := v2.Unlock(leaseTok); vd != Fenced {
		t.Fatalf("stale lease verdict %v", vd)
	}
}

// TestFileStoreTornTempWrite simulates a crash mid-Save: the temp file
// holds a partial write, the rename never happened. Load must still
// return the previous anchor, and the next Save must clean up.
func TestFileStoreTornTempWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "anchor")
	store := NewFileStore(path)

	good := anchorBytes(7, 123, 3, testVaultKey())
	if err := store.Save(good[:]); err != nil {
		t.Fatal(err)
	}
	// The crash: a torn temp file next to the good anchor.
	if err := os.WriteFile(path+".tmp", good[:10], 0o600); err != nil {
		t.Fatal(err)
	}

	raw, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	var st anchorState
	if err := decodeAnchor(raw, testVaultKey(), &st); err != nil || st.Epoch.Load() != 7 || st.LastNanos.Load() != 123 {
		t.Fatalf("post-crash load: epoch %d, last %d, %v", st.Epoch.Load(), st.LastNanos.Load(), err)
	}

	// And a vault opens fine over the torn remnant.
	clk := &scriptClock{nanos: 1000}
	v, err := Open(Config{Clock: clk, Key: testVaultKey(), Store: store, Rand: detRand(), RollbackSlack: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch() != 8 {
		t.Fatalf("epoch %d, want 8", v.Epoch())
	}
}

// TestTornAnchorRefused covers the other crash mode — a non-atomic
// store that exposes a torn or tampered anchor. The vault must refuse
// to guess an epoch.
func TestTornAnchorRefused(t *testing.T) {
	good := anchorBytes(7, 123, 0, testVaultKey())
	clk := &scriptClock{nanos: 1000}

	cases := map[string][]byte{
		"truncated":   good[:anchorSize-5],
		"extended":    append(append([]byte(nil), good[:]...), 0),
		"flipped mac": func() []byte { b := append([]byte(nil), good[:]...); b[anchorSize-1] ^= 1; return b }(),
		"flipped body": func() []byte {
			b := append([]byte(nil), good[:]...)
			b[6] ^= 1
			return b
		}(),
		"bad magic": func() []byte { b := append([]byte(nil), good[:]...); b[0] = 'X'; return b }(),
		"empty":     {},
	}
	for name, raw := range cases {
		store := &MemStore{}
		store.Restore(raw)
		_, err := Open(Config{Clock: clk, Key: testVaultKey(), Store: store, Rand: detRand()})
		if !errors.Is(err, ErrAnchorCorrupt) {
			t.Errorf("%s anchor: %v, want ErrAnchorCorrupt", name, err)
		}
	}

	// An anchor written under a different key is equally refused.
	otherKey := testVaultKey()
	otherKey[0] ^= 0xFF
	foreign := anchorBytes(1, 0, 0, otherKey)
	store := &MemStore{}
	store.Restore(foreign[:])
	if _, err := Open(Config{Clock: clk, Key: testVaultKey(), Store: store, Rand: detRand()}); !errors.Is(err, ErrAnchorCorrupt) {
		t.Errorf("foreign-key anchor: %v, want ErrAnchorCorrupt", err)
	}
}

// anchorBytes encodes the anchor with the given fields under key.
func anchorBytes(epoch uint64, lastNanos int64, restarts uint64, key []byte) [anchorSize]byte {
	var st anchorState
	st.Epoch.Raise(epoch)
	st.LastNanos.Raise(lastNanos)
	st.Restarts.Raise(restarts)
	var b [anchorSize]byte
	encodeAnchor(&b, &st, key)
	return b
}

func TestAnchorEncodeDecodeRoundtrip(t *testing.T) {
	states := []struct {
		epoch     uint64
		lastNanos int64
		restarts  uint64
	}{
		{},
		{epoch: 1},
		{^uint64(0), math.MaxInt64, ^uint64(0)},
		{42, 1719412345678901234, 7},
	}
	for _, want := range states {
		b := anchorBytes(want.epoch, want.lastNanos, want.restarts, testVaultKey())
		var got anchorState
		err := decodeAnchor(b[:], testVaultKey(), &got)
		if err != nil || got.Epoch.Load() != want.epoch || got.LastNanos.Load() != want.lastNanos || got.Restarts.Load() != want.restarts {
			t.Errorf("roundtrip %+v: got epoch %d, last %d, restarts %d, %v",
				want, got.Epoch.Load(), got.LastNanos.Load(), got.Restarts.Load(), err)
		}
	}
}

// TestAnchorNegativeHighWaterRefused: an authentic anchor whose
// high-water mark is below zero cannot come from a vault (the mark
// starts at zero and only rises), so it is refused like a tampered one.
func TestAnchorNegativeHighWaterRefused(t *testing.T) {
	b := anchorBytes(3, 0, 0, testVaultKey())
	binary.BigEndian.PutUint64(b[13:], math.MaxUint64) // int64(-1)
	m := hmac.New(sha256.New, testVaultKey())
	m.Write([]byte(anchorMACLabel))
	m.Write(b[:29])
	m.Sum(b[29:29])
	var st anchorState
	if err := decodeAnchor(b[:], testVaultKey(), &st); !errors.Is(err, ErrAnchorCorrupt) {
		t.Fatalf("negative high-water mark: %v, want ErrAnchorCorrupt", err)
	}
}

// TestAnchorBytesGolden pins the anchor encoding for a fixed state and
// key: layout, byte order and MAC.
func TestAnchorBytesGolden(t *testing.T) {
	const want = "5452414e01000000000000002a17dc946b269caff20000000000000007f5d82a49107fdddf5a67c9607f579e8f99815f206d5e38ee53c2161189363d31"
	b := anchorBytes(42, 1719412345678901234, 7, testVaultKey())
	if got := hex.EncodeToString(b[:]); got != want {
		t.Fatalf("anchor bytes = %s, want %s", got, want)
	}
}
