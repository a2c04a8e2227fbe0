//go:build linux && amd64

package transport

import (
	"bytes"
	"net"
	"syscall"
	"testing"
	"time"
)

// countingRawConn wraps a socket's RawConn to count the mmsg headers
// the kernel accepts. With refuseRuns set it plays a kernel that
// refuses UDP_SEGMENT control messages: a sendmmsg whose first header
// carries one fails with EINVAL, and one reaching such a header later
// stops short before it, as sendmmsg does at a failing header.
type countingRawConn struct {
	syscall.RawConn
	b          *Batch
	refuseRuns bool
	accepted   int // headers the kernel took
	refused    int // calls failed for a control message
}

func (c *countingRawConn) Write(f func(fd uintptr) bool) error {
	s := &c.b.sys
	if c.refuseRuns {
		for h := s.sendFrom; h < s.sendTo; h++ {
			if s.hdrs[h].hdr.Controllen == 0 {
				continue
			}
			if h == s.sendFrom {
				s.errno, s.res = syscall.EINVAL, 0
				c.refused++
				return nil
			}
			s.sendTo = h
			break
		}
	}
	err := c.RawConn.Write(f)
	if err == nil && s.errno == 0 {
		c.accepted += s.res
	}
	return err
}

// gsoRig is a GSO-enabled sender, capped at cap bytes, and one
// receiver.
type gsoRig struct {
	sender *BatchConn
	recv   *net.UDPConn
	to     Sockaddr
}

func newGSORig(t *testing.T, cap int, gso bool) *gsoRig {
	t.Helper()
	listen := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	s, r := listen(), listen()
	_ = r.SetReadBuffer(1 << 20)
	bc, err := NewBatchConn(s)
	if err != nil {
		t.Fatal(err)
	}
	if gso {
		if err := bc.EnableGSO(cap); err != nil {
			t.Skipf("kernel without UDP_SEGMENT: %v", err)
		}
	}
	to, ok := SockaddrFromUDP(r.LocalAddr().(*net.UDPAddr))
	if !ok {
		t.Fatal("bad receiver addr")
	}
	return &gsoRig{sender: bc, recv: r, to: to}
}

// fill puts one datagram of each size into b, every one distinct.
func (g *gsoRig) fill(b *Batch, sizes []int) [][]byte {
	want := make([][]byte, len(sizes))
	for i, n := range sizes {
		p := b.Buffer(i)
		for j := 0; j < n; j++ {
			p = append(p, byte(i*7+j))
		}
		b.Set(i, len(p), g.to)
		want[i] = append([]byte(nil), p...)
	}
	return want
}

// expect reads len(want) datagrams and checks each byte for byte, in
// order.
func (g *gsoRig) expect(t *testing.T, want [][]byte) {
	t.Helper()
	buf := make([]byte, 4096)
	g.recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i, w := range want {
		n, err := g.recv.Read(buf)
		if err != nil {
			t.Fatalf("datagram %d of %d: %v", i, len(want), err)
		}
		if !bytes.Equal(buf[:n], w) {
			t.Fatalf("datagram %d: got %d bytes %x..., want %d bytes %x...", i, n, buf[:min(n, 8)], len(w), w[:min(len(w), 8)])
		}
	}
}

// mixedSizes interleaves the two serving reply sizes (sealed stamp and
// commit responses) to one destination. A run is equal-size slots plus
// at most one shorter slot ending it, so they form 6 runs, one per
// line.
var mixedSizes = []int{
	143, 143, 143,
	175, 175, 175, 175, 143,
	175, 175, 143,
	143, 143, 143, 143,
	175, 143,
	143,
}

const mixedRuns = 6

// TestSendBatchGSOPerRunSegment: interleaved 143 B and 175 B datagrams
// to one destination arrive byte-identical and in order, grouped and
// ungrouped; grouped, the kernel takes one header per run — each run
// segmented at its own size under the 175 B cap.
func TestSendBatchGSOPerRunSegment(t *testing.T) {
	for _, gso := range []bool{false, true} {
		g := newGSORig(t, 175, gso)
		b := NewBatch(len(mixedSizes), 175)
		stub := &countingRawConn{RawConn: g.sender.rc, b: b}
		g.sender.rc = stub
		want := g.fill(b, mixedSizes)
		sent, err := g.sender.SendBatch(b, len(mixedSizes))
		if err != nil || sent != len(mixedSizes) {
			t.Fatalf("gso=%v: sent %d err %v", gso, sent, err)
		}
		g.expect(t, want)
		wantHdrs := len(mixedSizes)
		if gso {
			wantHdrs = mixedRuns
		}
		if stub.accepted != wantHdrs {
			t.Fatalf("gso=%v: kernel took %d headers, want %d", gso, stub.accepted, wantHdrs)
		}
	}
}

// TestSendBatchGSOCapEnforced: a slot above the EnableGSO cap is
// refused with nothing sent, wherever it sits in the batch.
func TestSendBatchGSOCapEnforced(t *testing.T) {
	g := newGSORig(t, 175, true)
	b := NewBatch(3, 256)
	g.fill(b, []int{143, 143, 176})
	if sent, err := g.sender.SendBatch(b, 3); err != errGSOSegmentSize || sent != 0 {
		t.Fatalf("over-cap slot: sent %d err %v, want 0 and errGSOSegmentSize", sent, err)
	}
}

// TestSendBatchGSOFallsBack: a kernel that refuses the per-run control
// message costs no datagram — the refused run and everything after it
// go one header per slot, in order.
func TestSendBatchGSOFallsBack(t *testing.T) {
	g := newGSORig(t, 175, true)
	b := NewBatch(len(mixedSizes), 175)
	stub := &countingRawConn{RawConn: g.sender.rc, b: b, refuseRuns: true}
	g.sender.rc = stub
	want := g.fill(b, mixedSizes)
	sent, err := g.sender.SendBatch(b, len(mixedSizes))
	if err != nil || sent != len(mixedSizes) {
		t.Fatalf("sent %d err %v, want all %d and no error", sent, err, len(mixedSizes))
	}
	g.expect(t, want)
	if stub.refused != 1 || stub.accepted != len(mixedSizes) {
		t.Fatalf("refused %d calls, kernel took %d headers; want 1 and %d", stub.refused, stub.accepted, len(mixedSizes))
	}
}
