package engine

import (
	"math"
	"math/rand"
	"testing"

	"triadtime/internal/simnet"
)

// TestSenderTableAnyIdentity: the table finds every configured sender
// with its roles — identity 0 and the top of the 32-bit space included,
// and sets crowded into one probe run — and nothing else.
func TestSenderTableAnyIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := [][2][]simnet.Addr{
		{nil, nil},
		{{1}, nil},
		{{0, math.MaxUint32}, {math.MaxUint32 - 1}},
		{{2, 3, 4, 5, 6}, {100, 101, 102, 103, 104}},
		{{7, 8}, {8, 9}}, // 8 is peer and authority both
	}
	var random []simnet.Addr
	for len(random) < 200 {
		random = append(random, simnet.Addr(rng.Uint32()))
	}
	sets = append(sets, [2][]simnet.Addr{random[:150], random[150:]})
	for _, set := range sets {
		peers, auths := set[0], set[1]
		tbl := newSenderTable(peers, auths)
		if n := len(tbl.records); n&(n-1) != 0 || 8*(len(peers)+len(auths)) > 7*n {
			t.Fatalf("%d records for %d senders: want a power of two, at most 7/8 full", n, len(peers)+len(auths))
		}
		want := map[uint32][2]bool{}
		for _, p := range peers {
			r := want[uint32(p)]
			r[0] = true
			want[uint32(p)] = r
		}
		for _, a := range auths {
			r := want[uint32(a)]
			r[1] = true
			want[uint32(a)] = r
		}
		for id, roles := range want {
			s := tbl.find(id)
			if s == nil || s.id != id || s.peer != roles[0] || s.authority != roles[1] {
				t.Fatalf("find(%d) = %+v, want peer %v authority %v", id, s, roles[0], roles[1])
			}
		}
		for i := 0; i < 1000; i++ {
			id := rng.Uint32()
			if _, ok := want[id]; !ok && tbl.find(id) != nil {
				t.Fatalf("find(%d) found a sender that was never configured", id)
			}
		}
	}
}
