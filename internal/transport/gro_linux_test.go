//go:build linux && amd64

package transport

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"syscall"
	"testing"
	"time"
)

// groRig is a GRO-enabled receiver with slots of size bytes, a
// GSO-enabled sender (cap gsoCap) and a plain second sender.
type groRig struct {
	recv      *BatchConn
	conn      *net.UDPConn
	gso       *gsoRig // gso.sender sends to the receiver
	single    *net.UDPConn
	gsoFrom   Sockaddr
	singleTo  *net.UDPAddr
	singleSrc Sockaddr
	b         *Batch
}

func newGRORig(t *testing.T, size, gsoCap int) *groRig {
	t.Helper()
	g := newGSORig(t, gsoCap, true)
	bc, err := NewBatchConn(g.recv)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.EnableGRO(); err != nil {
		t.Skipf("kernel without UDP_GRO: %v", err)
	}
	single, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	rig := &groRig{recv: bc, conn: g.recv, gso: g, single: single,
		singleTo: g.recv.LocalAddr().(*net.UDPAddr), b: NewBatch(256, size)}
	rig.gsoFrom, _ = SockaddrFromUDP(g.sender.LocalAddr().(*net.UDPAddr))
	rig.singleSrc, _ = SockaddrFromUDP(single.LocalAddr().(*net.UDPAddr))
	return rig
}

// burst sends one datagram per size from the GSO sender in one
// sendmmsg, each filled with bytes starting at tag, and returns them.
func (r *groRig) burst(t *testing.T, tag int, sizes []int) [][]byte {
	t.Helper()
	b := NewBatch(len(sizes), slices.Max(sizes))
	want := r.gso.fill(b, sizes)
	for i, w := range want {
		for j := range w {
			w[j] += byte(tag)
		}
		copy(b.Buffer(i)[:len(w)], w)
	}
	if sent, err := r.gso.sender.SendBatch(b, len(sizes)); err != nil || sent != len(sizes) {
		t.Fatalf("burst: sent %d err %v", sent, err)
	}
	return want
}

// datagram is one datagram as a receiver should see it.
type datagram struct {
	p    []byte
	n    int
	from Sockaddr
}

// recvAll receives len(want) datagrams and checks each one's bytes,
// length and source, in order.
func (r *groRig) recvAll(t *testing.T, want []datagram) {
	t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for got := 0; got < len(want); {
		n, err := r.recv.RecvBatch(r.b)
		if err != nil {
			t.Fatalf("after %d of %d datagrams: %v", got, len(want), err)
		}
		if got+n > len(want) {
			t.Fatalf("received %d datagrams, want %d", got+n, len(want))
		}
		for i := 0; i < n; i++ {
			w := want[got+i]
			if !bytes.Equal(r.b.Payload(i)[:len(w.p)], w.p) || r.b.Len(i) != w.n || r.b.Addr(i) != w.from {
				t.Fatalf("datagram %d: %d bytes % x... from %v; want %d bytes % x... from %v", got+i,
					r.b.Len(i), r.b.Payload(i)[:min(r.b.Len(i), 8)], r.b.Addr(i), w.n, w.p[:min(len(w.p), 8)], w.from)
			}
		}
		got += n
	}
}

func (r *groRig) whole(ps [][]byte, from Sockaddr) []datagram {
	out := make([]datagram, len(ps))
	for i, p := range ps {
		out[i] = datagram{p: p, n: len(p), from: from}
	}
	return out
}

// messages reports how many messages the last recvmmsg brought.
func (r *groRig) messages() int { return r.b.sys.gro.filled }

// TestRecvBatchGROSplitsBursts: GSO bursts of 20 sealed-request-sized
// datagrams, interleaved with single datagrams from a second socket,
// cross the kernel as one message each and come back from RecvBatch as
// every datagram, with its bytes, length and source, in arrival order.
func TestRecvBatchGROSplitsBursts(t *testing.T) {
	const size, burst = 78, 20
	r := newGRORig(t, size+1, size)
	sizes := make([]int, burst)
	for i := range sizes {
		sizes[i] = size
	}
	var want []datagram
	for k := 0; k < 3; k++ {
		want = append(want, r.whole(r.burst(t, k, sizes), r.gsoFrom)...)
		p := bytes.Repeat([]byte{byte(0xa0 + k)}, size-k)
		if _, err := r.single.WriteToUDP(p, r.singleTo); err != nil {
			t.Fatal(err)
		}
		want = append(want, datagram{p: p, n: len(p), from: r.singleSrc})
	}
	r.recvAll(t, want)
	if m := r.messages(); m != 6 {
		t.Fatalf("%d datagrams came in %d messages, want 3 coalesced bursts and 3 singles", len(want), m)
	}
}

// TestRecvBatchGROShortLastSegment: runs whose last datagram is
// shorter than the rest — the shape GSO sends for mixed reply sizes —
// split at the datagram boundaries.
func TestRecvBatchGROShortLastSegment(t *testing.T) {
	r := newGRORig(t, 176, 175)
	want := r.whole(r.burst(t, 0, mixedSizes), r.gsoFrom)
	r.recvAll(t, want)
	if m := r.messages(); m != mixedRuns {
		t.Fatalf("%d runs came in %d messages, want one each", mixedRuns, m)
	}
}

// TestRecvBatchGROCountsTruncatedTail: a message longer than the head
// and tail it lands in loses its tail, and every datagram of it still
// takes a slot. The ones that did not arrive whole — here all of them,
// each longer than the 16-byte slot, and the tail cut off the 1 KiB
// message's end — read as the slot's full size, as the plain path reads
// a datagram the kernel truncated: none is lost silently.
func TestRecvBatchGROCountsTruncatedTail(t *testing.T) {
	const slot, seg, segs = 16, 100, 40
	r := newGRORig(t, slot, seg)
	sizes := make([]int, segs)
	for i := range sizes {
		sizes[i] = seg
	}
	sizes[segs-1] = 10 // lost, though short enough for a slot
	sent := r.burst(t, 0, sizes)
	arrived := gsoMaxSegs * slot / seg // whole segments in head and tail
	want := make([]datagram, segs)
	for i, p := range sent {
		want[i] = datagram{n: slot, from: r.gsoFrom}
		if i < arrived {
			want[i].p = p[:slot] // its first bytes, as a truncating kernel leaves
		}
	}
	r.recvAll(t, want)
	if m := r.messages(); m != 1 {
		t.Fatalf("burst came in %d messages, want 1", m)
	}
}

// readCounter counts the RawConn reads (recvmmsg calls) a BatchConn
// makes.
type readCounter struct {
	syscall.RawConn
	reads int
}

func (c *readCounter) Read(f func(fd uintptr) bool) error {
	c.reads++
	return c.RawConn.Read(f)
}

// TestRecvBatchGROCarriesOver: five full 64-datagram bursts come in one
// recvmmsg; RecvBatch returns a full batch of 256 and the next call the
// other 64, without a syscall, none lost or duplicated.
func TestRecvBatchGROCarriesOver(t *testing.T) {
	const size = 78
	r := newGRORig(t, size+1, size)
	sizes := make([]int, 5*gsoMaxSegs)
	for i := range sizes {
		sizes[i] = size
	}
	out := NewBatch(len(sizes), size)
	for i := range sizes { // every datagram distinct: a duplicate would show
		p := append(out.Buffer(i), byte(i), byte(i>>8))
		out.Set(i, len(append(p, bytes.Repeat([]byte{0x5a}, size-2)...)), r.gso.to)
	}
	if sent, err := r.gso.sender.SendBatch(out, len(sizes)); err != nil || sent != len(sizes) {
		t.Fatalf("bursts: sent %d err %v", sent, err)
	}
	rc := &readCounter{RawConn: r.recv.rc}
	r.recv.rc = rc
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var got [][]byte
	for _, wantN := range []int{256, 64} {
		n, err := r.recv.RecvBatch(r.b)
		if err != nil || n != wantN {
			t.Fatalf("RecvBatch returned %d, %v after %d; want %d", n, err, len(got), wantN)
		}
		for i := 0; i < n; i++ {
			got = append(got, append([]byte(nil), r.b.Payload(i)...))
		}
	}
	if rc.reads != 1 {
		t.Fatalf("%d receives took %d recvmmsg calls, want 1", len(got), rc.reads)
	}
	for i := range got {
		if !bytes.Equal(got[i], out.Payload(i)) {
			t.Fatalf("datagram %d: % x..., want % x...", i, got[i][:8], out.Payload(i)[:8])
		}
	}
}

// controlFails is a RawConn whose Control runs f on an invalid
// descriptor, so every socket option fails to set.
type controlFails struct{ syscall.RawConn }

func (c controlFails) Control(f func(fd uintptr)) error {
	f(^uintptr(0))
	return nil
}

// TestRecvBatchGROUnsetStaysPlain: when UDP_GRO cannot be set the
// receive stays on the plain path — no GRO buffers, one message per
// datagram — and a GSO burst still arrives whole.
func TestRecvBatchGROUnsetStaysPlain(t *testing.T) {
	const size = 78
	g := newGSORig(t, size, true)
	bc, err := NewBatchConn(g.recv)
	if err != nil {
		t.Fatal(err)
	}
	real := bc.rc
	bc.rc = controlFails{real}
	if err := bc.EnableGRO(); !errors.Is(err, syscall.EBADF) {
		t.Fatalf("EnableGRO on a socket refusing options: %v, want EBADF", err)
	}
	bc.rc = real
	r := &groRig{recv: bc, conn: g.recv, gso: g, b: NewBatch(256, size+1)}
	r.gsoFrom, _ = SockaddrFromUDP(g.sender.LocalAddr().(*net.UDPAddr))
	sizes := make([]int, 20)
	for i := range sizes {
		sizes[i] = size
	}
	r.recvAll(t, r.whole(r.burst(t, 0, sizes), r.gsoFrom))
	if r.b.sys.gro != nil {
		t.Fatal("a receive without UDP_GRO built the GRO buffers")
	}
}
