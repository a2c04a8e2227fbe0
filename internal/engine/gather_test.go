package engine

import (
	"bytes"
	"encoding/binary"
	"testing"

	"triadtime/internal/simnet"
	"triadtime/internal/wire"
)

// TestBroadcastSealedOnceKeepsReorderedDatagram pins what sealing a
// peer broadcast once buys. A node with 65 peers sends one gather
// request, then a second; the network hands peer B the second before
// the first. B must still answer the first: it is a legitimate
// datagram reordered by one broadcast. Sealed per peer, the second
// broadcast would have advanced the sender's nonce counter by 65, more
// than the 64-wide replay window, and B would have dropped the first as
// too old. Sealed once, every copy is the same datagram and the counter
// advances by one per broadcast.
func TestBroadcastSealedOnceKeepsReorderedDatagram(t *testing.T) {
	const nPeers = 65
	key := make([]byte, wire.KeySize)
	var peers []simnet.Addr
	for a := simnet.Addr(2); len(peers) < nPeers; a++ {
		peers = append(peers, a)
	}
	b := peers[nPeers-1] // last in broadcast order
	pols := Policies{Calibration: nopPolicy{}, Recovery: nopPolicy{}, Filter: AdoptIfAhead{}}

	pa := NewFakePlatform()
	sender, err := New(pa, Config{Key: key, Addr: 1, Authority: 100, Peers: peers, DisableMonitor: true}, pols)
	if err != nil {
		t.Fatal(err)
	}
	pb := NewFakePlatform()
	receiver, err := New(pb, Config{Key: key, Addr: b, Authority: 100, Peers: []simnet.Addr{1}, DisableMonitor: true}, pols)
	if err != nil {
		t.Fatal(err)
	}
	receiver.CompleteCalibration(1e9, 0, pb.tsc) // StateOK: B answers peer requests

	// broadcast runs one gather and returns the datagrams it sent.
	broadcast := func() []fakeSend {
		n := len(pa.sent)
		sender.GatherPeers(false, func([]PeerSample) {})
		return pa.sent[n:]
	}
	first, second := broadcast(), broadcast()
	if len(first) != nPeers || len(second) != nPeers {
		t.Fatalf("broadcasts sent %d and %d datagrams, want %d each", len(first), len(second), nPeers)
	}
	for i, s := range second {
		if s.to != peers[i] {
			t.Fatalf("copy %d went to %d, want %d (broadcast order)", i, s.to, peers[i])
		}
		if !bytes.Equal(s.payload, second[0].payload) {
			t.Errorf("copy %d differs from copy 0: a broadcast must be sealed once", i)
			break
		}
	}
	counter := func(dgram []byte) uint64 { return binary.BigEndian.Uint64(dgram[4:12]) }
	if c1, c2 := counter(first[nPeers-1].payload), counter(second[nPeers-1].payload); c2 != c1+1 {
		t.Errorf("nonce counter went %d -> %d across one broadcast, want +1", c1, c2)
	}

	pb.onMsg(1, second[nPeers-1].payload)
	pb.onMsg(1, first[nPeers-1].payload) // reordered behind the next broadcast
	if len(pb.sent) != 2 {
		t.Fatalf("B answered %d of the 2 requests; the reordered one was dropped", len(pb.sent))
	}
	pb.onMsg(1, first[nPeers-1].payload) // a true replay still is
	if len(pb.sent) != 2 {
		t.Errorf("B answered a replayed request")
	}
}
