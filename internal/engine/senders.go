package engine

import (
	"math/bits"

	"triadtime/internal/simnet"
	"triadtime/internal/wire"
)

// sender is what a node keeps per identity it accepts datagrams from:
// the roles the identity has in the node's configuration, and its
// replay window.
type sender struct {
	id        uint32
	peer      bool
	authority bool
	window    wire.ReplayWindow
}

// known reports whether the record is in use: every sender has a role.
func (s *sender) known() bool { return s.peer || s.authority }

// senderTable finds a sender by wire identity: an open-addressing hash
// table (linear probing) holding the records themselves, so a delivery
// reads one or two adjacent records and no map. Any uint32 identity
// works, and the size follows the number of senders — a power of two at
// most 7/8 full — not the range of their addresses. Fibonacci hashing
// spreads the small consecutive identities a cluster uses evenly: a
// node of the thousand-node topology (54 senders in 64 records) finds a
// sender in 1.5 probes on average. The sender set is fixed when the
// engine is built, so the table never grows.
type senderTable struct {
	records []sender
	shift   uint // 32 - log2(len(records))
}

// newSenderTable holds the node's peers and authorities.
func newSenderTable(peers, authorities []simnet.Addr) senderTable {
	size := 2 // at most 7/8 full: every probe ends at an empty record
	for 8*(len(peers)+len(authorities)) > 7*size {
		size *= 2
	}
	t := senderTable{records: make([]sender, size), shift: uint(32 - bits.TrailingZeros(uint(size)))}
	for _, p := range peers {
		r := t.probe(uint32(p))
		r.id, r.peer = uint32(p), true
	}
	for _, a := range authorities {
		r := t.probe(uint32(a))
		r.id, r.authority = uint32(a), true
	}
	return t
}

// find returns id's record, nil for an identity the node does not know.
//
//triad:hotpath
func (t *senderTable) find(id uint32) *sender {
	if r := t.probe(id); r.known() {
		return r
	}
	return nil
}

// probe returns id's record, or the empty record where it would go.
// Fibonacci hashing picks where the probe starts.
//
//triad:hotpath
func (t *senderTable) probe(id uint32) *sender {
	mask := len(t.records) - 1
	for i := int((id * 0x9E3779B9) >> t.shift); ; i = (i + 1) & mask {
		if r := &t.records[i]; r.id == id || !r.known() {
			return r
		}
	}
}
