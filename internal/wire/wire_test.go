package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func testKey() []byte {
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(i * 7)
	}
	return key
}

func TestMessageRoundtrip(t *testing.T) {
	tests := []Message{
		{Kind: KindTimeRequest, Seq: 1, Sleep: time.Second},
		{Kind: KindTimeRequest, Seq: 2, Sleep: 0},
		{Kind: KindTimeResponse, Seq: 2, TimeNanos: 123456789},
		{Kind: KindPeerTimeRequest, Seq: 99},
		{Kind: KindPeerTimeResponse, Seq: 99, TimeNanos: -5}, // negative survives
		{Kind: KindChimerReport, Seq: 3, Sleep: 12345, TimeNanos: 0b1011},
	}
	for _, m := range tests {
		t.Run(m.Kind.String(), func(t *testing.T) {
			got, err := Unmarshal(m.Marshal())
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if got != m {
				t.Errorf("roundtrip = %+v, want %+v", got, m)
			}
		})
	}
}

func TestMessageFixedSize(t *testing.T) {
	// All kinds encode to the same length so an observer cannot classify
	// messages by size (the attacker must use timing, as in the paper).
	sizes := map[int]bool{}
	for _, m := range []Message{
		{Kind: KindTimeRequest, Sleep: time.Second},
		{Kind: KindTimeResponse, TimeNanos: 1 << 60},
		{Kind: KindPeerTimeRequest},
		{Kind: KindPeerTimeResponse, TimeNanos: 1},
	} {
		sizes[len(m.Marshal())] = true
	}
	if len(sizes) != 1 {
		t.Errorf("message sizes differ across kinds: %v", sizes)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(make([]byte, MarshaledSize-1)); !errors.Is(err, ErrTruncated) {
		t.Errorf("short buffer err = %v, want ErrTruncated", err)
	}
	bad := Message{Kind: KindTimeRequest}.Marshal()
	bad[0] = 0
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadKind) {
		t.Errorf("kind 0 err = %v, want ErrBadKind", err)
	}
	bad[0] = 200
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadKind) {
		t.Errorf("kind 200 err = %v, want ErrBadKind", err)
	}
}

func TestKindString(t *testing.T) {
	if KindTimeRequest.String() != "TimeRequest" || Kind(77).String() != "Kind(77)" {
		t.Error("Kind.String misbehaves")
	}
}

func TestSealOpenRoundtrip(t *testing.T) {
	sealer, err := NewSealer(testKey(), 3)
	if err != nil {
		t.Fatalf("NewSealer: %v", err)
	}
	opener, err := NewOpener(testKey())
	if err != nil {
		t.Fatalf("NewOpener: %v", err)
	}
	msg := Message{Kind: KindTimeRequest, Seq: 7, Sleep: time.Second}
	sealed := sealer.SealAppend(nil, msg)
	got, sender, err := opener.OpenInto(nil, sealed)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got != msg {
		t.Errorf("got %+v, want %+v", got, msg)
	}
	if sender != 3 {
		t.Errorf("sender = %d, want 3", sender)
	}
	if sealer.SenderID() != 3 {
		t.Errorf("SenderID = %d", sealer.SenderID())
	}
}

func TestSealHidesPlaintext(t *testing.T) {
	sealer, _ := NewSealer(testKey(), 1)
	msg := Message{Kind: KindTimeRequest, Seq: 1, Sleep: time.Second}
	sealed := sealer.SealAppend(nil, msg)
	if bytes.Contains(sealed, msg.Marshal()) {
		t.Error("sealed datagram contains the plaintext")
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	sealer, _ := NewSealer(testKey(), 1)
	opener, _ := NewOpener(testKey())
	sealed := sealer.SealAppend(nil, Message{Kind: KindPeerTimeRequest, Seq: 5})
	for _, idx := range []int{0, nonceSize, len(sealed) - 1} {
		cp := append([]byte(nil), sealed...)
		cp[idx] ^= 0x01
		if _, _, err := opener.OpenInto(nil, cp); !errors.Is(err, ErrAuthFailed) {
			t.Errorf("tamper at %d: err = %v, want ErrAuthFailed", idx, err)
		}
	}
	if _, _, err := opener.OpenInto(nil, sealed[:10]); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("truncated: err = %v, want ErrAuthFailed", err)
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	sealer, _ := NewSealer(testKey(), 1)
	otherKey := testKey()
	otherKey[0] ^= 0xFF
	opener, _ := NewOpener(otherKey)
	if _, _, err := opener.OpenInto(nil, sealer.SealAppend(nil, Message{Kind: KindPeerTimeRequest, Seq: 1})); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("wrong key: err = %v, want ErrAuthFailed", err)
	}
}

func TestOpenRejectsReplay(t *testing.T) {
	sealer, _ := NewSealer(testKey(), 1)
	opener, _ := NewOpener(testKey())
	sealed := sealer.SealAppend(nil, Message{Kind: KindPeerTimeRequest, Seq: 1})
	if _, _, err := opener.OpenInto(nil, sealed); err != nil {
		t.Fatalf("first open: %v", err)
	}
	if _, _, err := opener.OpenInto(nil, sealed); !errors.Is(err, ErrReplay) {
		t.Errorf("replay: err = %v, want ErrReplay", err)
	}
}

func TestOpenToleratesReorderingWithinWindow(t *testing.T) {
	sealer, _ := NewSealer(testKey(), 1)
	opener, _ := NewOpener(testKey())
	var sealed [][]byte
	for i := 0; i < 10; i++ {
		sealed = append(sealed, sealer.SealAppend(nil, Message{Kind: KindPeerTimeRequest, Seq: uint64(i)}))
	}
	// Deliver out of order: evens first, then odds.
	for i := 0; i < 10; i += 2 {
		if _, _, err := opener.OpenInto(nil, sealed[i]); err != nil {
			t.Fatalf("even %d: %v", i, err)
		}
	}
	for i := 1; i < 10; i += 2 {
		if _, _, err := opener.OpenInto(nil, sealed[i]); err != nil {
			t.Fatalf("odd %d: %v", i, err)
		}
	}
	// But each at most once.
	if _, _, err := opener.OpenInto(nil, sealed[3]); !errors.Is(err, ErrReplay) {
		t.Errorf("second delivery of #3: err = %v, want ErrReplay", err)
	}
}

func TestOpenRejectsTooOld(t *testing.T) {
	sealer, _ := NewSealer(testKey(), 1)
	opener, _ := NewOpener(testKey())
	first := sealer.SealAppend(nil, Message{Kind: KindPeerTimeRequest, Seq: 0})
	var last []byte
	for i := 0; i < 70; i++ {
		last = sealer.SealAppend(nil, Message{Kind: KindPeerTimeRequest, Seq: uint64(i + 1)})
	}
	if _, _, err := opener.OpenInto(nil, last); err != nil {
		t.Fatalf("latest: %v", err)
	}
	if _, _, err := opener.OpenInto(nil, first); !errors.Is(err, ErrReplay) {
		t.Errorf("64+ old message: err = %v, want ErrReplay", err)
	}
}

func TestSendersTrackedIndependently(t *testing.T) {
	s1, _ := NewSealer(testKey(), 1)
	s2, _ := NewSealer(testKey(), 2)
	opener, _ := NewOpener(testKey())
	// Both senders use counter 1; neither is a replay of the other.
	if _, _, err := opener.OpenInto(nil, s1.SealAppend(nil, Message{Kind: KindPeerTimeRequest, Seq: 1})); err != nil {
		t.Fatalf("sender 1: %v", err)
	}
	if _, _, err := opener.OpenInto(nil, s2.SealAppend(nil, Message{Kind: KindPeerTimeRequest, Seq: 1})); err != nil {
		t.Fatalf("sender 2: %v", err)
	}
}

func TestNewSealerBadKey(t *testing.T) {
	if _, err := NewSealer(make([]byte, 16), 1); err == nil {
		t.Error("16-byte key should be rejected (AES-256 only)")
	}
	if _, err := NewOpener(nil); err == nil {
		t.Error("nil key should be rejected")
	}
}

func TestSealOpenQuick(t *testing.T) {
	sealer, _ := NewSealer(testKey(), 9)
	opener, _ := NewOpener(testKey())
	f := func(kindRaw uint8, seq uint64, sleepNs int64, timeNs int64) bool {
		kind := Kind(kindRaw%5) + KindTimeRequest
		m := Message{Kind: kind, Seq: seq, Sleep: time.Duration(sleepNs), TimeNanos: timeNs}
		got, sender, err := opener.OpenInto(nil, sealer.SealAppend(nil, m))
		return err == nil && got == m && sender == 9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReplayWindowUnit(t *testing.T) {
	var w ReplayWindow
	if w.accept(0) {
		t.Error("counter 0 must be rejected")
	}
	if !w.accept(1) || w.accept(1) {
		t.Error("counter 1: accept once")
	}
	if !w.accept(100) {
		t.Error("jump forward must be accepted")
	}
	if !w.accept(99) || w.accept(99) {
		t.Error("within-window out-of-order: accept once")
	}
	if w.accept(36) {
		t.Error("counter exactly 64 behind must be rejected")
	}
	if !w.accept(37) {
		t.Error("counter 63 behind should be accepted")
	}
	if !w.accept(200) {
		t.Error("large jump (>64) must reset the window and accept")
	}
	if !w.accept(137) || w.accept(137) {
		t.Error("unseen counter 63 behind the new max: accept exactly once")
	}
	if w.accept(136) {
		t.Error("counter exactly 64 behind the new max must be rejected")
	}
}

// TestReplayWindowShiftBoundary pins the window-advance boundary: a
// forward jump of exactly 64 must wipe all history (every retained bit
// would fall out of the window), while a jump of 63 keeps the oldest
// bit alive.
func TestReplayWindowShiftBoundary(t *testing.T) {
	// Shift of exactly 63: counter 1's bit survives at the window edge.
	var w ReplayWindow
	if !w.accept(1) || !w.accept(64) {
		t.Fatal("setup accepts failed")
	}
	if w.accept(1) {
		t.Error("counter 1 is 63 behind max 64: replay must still be remembered")
	}
	if !w.accept(2) || w.accept(2) {
		t.Error("unseen counter 2 at 62 behind: accept exactly once")
	}
	// Shift of exactly 64: history is wiped, and everything it covered is
	// now too old to verify anyway.
	w = ReplayWindow{}
	if !w.accept(1) || !w.accept(65) {
		t.Fatal("setup accepts failed")
	}
	if w.accept(1) {
		t.Error("counter 1 is exactly 64 behind max 65: must be rejected as too old")
	}
	if !w.accept(2) || w.accept(2) {
		t.Error("counter 2 at 63 behind the new max: accept exactly once")
	}
	if w.accept(65) {
		t.Error("max itself must be remembered across the shift")
	}
}

// TestReplayWindowPermutationProperty: any delivery order of a burst of
// 64 consecutive counters — the full window width — is accepted exactly
// once each, regardless of how the adversary reorders the datagrams.
func TestReplayWindowPermutationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		start := rng.Uint64()%1000 + 1
		perm := rng.Perm(64)
		var w ReplayWindow
		for i, p := range perm {
			c := start + uint64(p)
			if !w.accept(c) {
				t.Fatalf("trial %d: counter %d (pos %d of %v) rejected on first delivery", trial, c, i, perm)
			}
		}
		for _, p := range rng.Perm(64) {
			c := start + uint64(p)
			if w.accept(c) {
				t.Fatalf("trial %d: counter %d accepted twice", trial, c)
			}
		}
	}
}

func TestSealedSizeExact(t *testing.T) {
	sealer, _ := NewSealer(testKey(), 1)
	sealed := sealer.SealAppend(nil, Message{Kind: KindTimeRequest, Seq: 1})
	if len(sealed) != SealedSize {
		t.Errorf("Seal output = %d bytes, SealedSize = %d", len(sealed), SealedSize)
	}
	prefix := []byte("prefix")
	out := sealer.SealAppend(prefix, Message{Kind: KindTimeRequest, Seq: 2})
	if len(out) != len(prefix)+SealedSize || string(out[:len(prefix)]) != "prefix" {
		t.Errorf("SealAppend must append exactly SealedSize bytes after dst")
	}
	opener, _ := NewOpener(testKey())
	if _, _, err := opener.OpenInto(nil, out[len(prefix):]); err != nil {
		t.Errorf("appended datagram failed to open: %v", err)
	}
}

func TestMarshalIntoMatchesMarshal(t *testing.T) {
	m := Message{Kind: KindChimerReport, Seq: 3, Sleep: 12345, TimeNanos: -9}
	buf := make([]byte, MarshaledSize)
	m.MarshalInto(buf)
	if !bytes.Equal(buf, m.Marshal()) {
		t.Error("MarshalInto and Marshal disagree")
	}
}

// TestSealAppendZeroAllocSteadyState is the allocation regression guard
// CI runs for the seal path.
func TestSealAppendZeroAllocSteadyState(t *testing.T) {
	sealer, _ := NewSealer(testKey(), 1)
	msg := Message{Kind: KindTimeRequest, Seq: 7, Sleep: time.Second}
	buf := make([]byte, 0, SealedSize)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = sealer.SealAppend(buf[:0], msg)
	})
	if allocs != 0 {
		t.Errorf("SealAppend into scratch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestOpenIntoZeroAllocSteadyState is the allocation regression guard
// CI runs for the open path (the per-sender window is allocated on the
// warmup call).
func TestOpenIntoZeroAllocSteadyState(t *testing.T) {
	sealer, _ := NewSealer(testKey(), 1)
	opener, _ := NewOpener(testKey())
	const runs = 1000
	sealed := make([][]byte, runs+2)
	for i := range sealed {
		sealed[i] = sealer.SealAppend(nil, Message{Kind: KindTimeRequest, Seq: uint64(i)})
	}
	scratch := make([]byte, 0, MarshaledSize)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, _, err := opener.OpenInto(scratch, sealed[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("OpenInto with scratch allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkSealOpenRoundtrip is the headline wire metric: one
// SealAppend + OpenInto per iteration, the exact datagram path the
// engine dispatch loop runs.
func BenchmarkSealOpenRoundtrip(b *testing.B) {
	sealer, _ := NewSealer(testKey(), 1)
	opener, _ := NewOpener(testKey())
	msg := Message{Kind: KindTimeRequest, Seq: 7, Sleep: time.Second}
	buf := make([]byte, 0, SealedSize)
	scratch := make([]byte, 0, MarshaledSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = sealer.SealAppend(buf[:0], msg)
		if _, _, err := opener.OpenInto(scratch, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeal(b *testing.B) {
	sealer, _ := NewSealer(testKey(), 1)
	msg := Message{Kind: KindTimeRequest, Seq: 1, Sleep: time.Second}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sealer.SealAppend(nil, msg)
	}
}

func BenchmarkOpen(b *testing.B) {
	sealer, _ := NewSealer(testKey(), 1)
	opener, _ := NewOpener(testKey())
	// Pre-seal so replay windows accept each datagram exactly once.
	sealed := make([][]byte, b.N)
	for i := range sealed {
		sealed[i] = sealer.SealAppend(nil, Message{Kind: KindTimeRequest, Seq: uint64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := opener.OpenInto(nil, sealed[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	msg := Message{Kind: KindTimeResponse, Seq: 42, TimeNanos: 1 << 60}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msg.Marshal()
	}
}

func TestNewSealerShardDisjointNonces(t *testing.T) {
	key := testKey()
	const base, shards = 40, 3
	opener, _ := NewOpener(key)
	ids := map[uint32]bool{}
	for shard := 0; shard < shards; shard++ {
		s, err := NewSealerShard(key, base, shard, shards)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if ids[s.SenderID()] {
			t.Fatalf("shard %d reuses sender ID %d", shard, s.SenderID())
		}
		ids[s.SenderID()] = true
		if want := uint32(base + shard); s.SenderID() != want {
			t.Fatalf("shard %d sender ID = %d, want %d", shard, s.SenderID(), want)
		}
		// Each shard's stream opens independently: same key, per-sender
		// replay windows, so counter 1 from every shard is accepted.
		sealed := s.SealDatagramAppend(nil, []byte("shard payload"))
		plain, sender, err := opener.OpenDatagramInto(nil, sealed)
		if err != nil || sender != s.SenderID() || string(plain) != "shard payload" {
			t.Fatalf("shard %d open: plain=%q sender=%d err=%v", shard, plain, sender, err)
		}
	}
}

func TestNewSealerShardValidation(t *testing.T) {
	key := testKey()
	cases := []struct {
		name          string
		base          uint32
		shard, shards int
	}{
		{"zero shards", 1, 0, 0},
		{"negative shard", 1, -1, 4},
		{"shard at count", 1, 4, 4},
		{"range wraps uint32", ^uint32(0), 1, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewSealerShard(key, c.base, c.shard, c.shards); err == nil {
				t.Fatalf("NewSealerShard(%d, %d, %d) accepted", c.base, c.shard, c.shards)
			}
		})
	}
	if _, err := NewSealerShard(key[:5], 1, 0, 1); err == nil {
		t.Fatal("short key accepted")
	}
}

// TestSealedBytesGolden pins the sealed-datagram bytes for a fixed key,
// sender and counter sequence: nonce = sender || counter, big-endian,
// counters starting at 1, so any change to the nonce layout or to how
// the counter advances shows here.
func TestSealedBytesGolden(t *testing.T) {
	s, err := NewSealer(testKey(), 0x01020304)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"010203040000000000000001e21b89d0fa615b0d0d24e58cb04efe1a0bbd6e095097d1ad5d9d34274ac3a6acc2638dc5cb0a247bc9",
		"010203040000000000000002a40348e51d531a9e650d1576b0d5570af53da511b57b4ba1a17ae75d527292",
	}
	msgs := []func() []byte{
		func() []byte {
			return s.SealAppend(nil, Message{Kind: KindPeerTimeResponse, Seq: 99, TimeNanos: 1719412345678901234})
		},
		func() []byte { return s.SealDatagramAppend(nil, []byte("client datagram")) },
	}
	for i, seal := range msgs {
		if got := hex.EncodeToString(seal()); got != want[i] {
			t.Errorf("datagram %d (counter %d) = %s, want %s", i, i+1, got, want[i])
		}
	}
}
