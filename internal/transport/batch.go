package transport

import (
	"net"
	"time"
)

// Batch is a preallocated scatter/gather array for one batched receive
// or send: up to Size fixed-capacity payload buffers with their
// datagram lengths and peer addresses, plus (on Linux) the mmsghdr /
// iovec / raw-sockaddr arrays a recvmmsg or sendmmsg call consumes,
// wired to the payload buffers once at construction. A Batch belongs to
// ONE goroutine: a serving loop owns its receive batch and its send
// batch, and the same socket may be driven by several goroutines as
// long as each brings its own Batch.
type Batch struct {
	bufs  [][]byte
	lens  []int
	addrs []Sockaddr

	// sys is the platform layer (mmsg headers on Linux, nothing
	// elsewhere); see batchudp_linux.go / batchudp_fallback.go.
	sys batchSys

	// udpScratch/ipScratch let fallback send paths build a net.UDPAddr
	// per datagram without allocating.
	udpScratch net.UDPAddr
	ipScratch  [16]byte
}

// NewBatch creates a batch of n message slots of msgSize bytes each.
func NewBatch(n, msgSize int) *Batch {
	if n <= 0 {
		n = 1
	}
	if msgSize <= 0 {
		msgSize = 2048
	}
	b := &Batch{
		bufs:  make([][]byte, n),
		lens:  make([]int, n),
		addrs: make([]Sockaddr, n),
	}
	backing := make([]byte, n*msgSize)
	for i := range b.bufs {
		b.bufs[i] = backing[i*msgSize : (i+1)*msgSize : (i+1)*msgSize]
	}
	b.sys.init(b)
	return b
}

// Size reports the batch's slot count.
func (b *Batch) Size() int { return len(b.bufs) }

// Buffer returns slot i's full-capacity, zero-length payload buffer for
// building an outgoing datagram (append into it, then Set).
//
//triad:hotpath
func (b *Batch) Buffer(i int) []byte { return b.bufs[i][:0] }

// Set records slot i's outgoing payload length and destination. The
// payload must already be in Buffer(i)'s backing array (append-style
// sealing keeps it there). A zero Sockaddr addresses the connected
// peer (connected sockets only).
//
//triad:hotpath
func (b *Batch) Set(i, payloadLen int, to Sockaddr) {
	b.lens[i] = payloadLen
	b.addrs[i] = to
}

// Payload returns slot i's received datagram.
//
//triad:hotpath
func (b *Batch) Payload(i int) []byte { return b.bufs[i][:b.lens[i]] }

// Len reports slot i's datagram length.
//
//triad:hotpath
func (b *Batch) Len(i int) int { return b.lens[i] }

// Addr reports slot i's peer address (source on receive, destination
// on send).
//
//triad:hotpath
func (b *Batch) Addr(i int) Sockaddr { return b.addrs[i] }

// DatagramConn is a UDP socket driven in batches. RecvBatch blocks for
// at least one datagram (honoring the socket's read deadline) and
// SendBatch transmits slots [0,n). On Linux both map to one
// recvmmsg/sendmmsg syscall per call (BatchConn; with GRO, a receive
// that hands out datagrams the last recvmmsg brought makes none);
// everywhere — and for arbitrary net.PacketConn values —
// PacketBatchConn degrades to one datagram per syscall with identical
// semantics. Implementations are
// safe for one receiver goroutine plus concurrent sender goroutines,
// each using its own Batch.
type DatagramConn interface {
	RecvBatch(b *Batch) (int, error)
	SendBatch(b *Batch, n int) (int, error)
	LocalAddr() net.Addr
}

// NewDatagramConn wraps conn, which the caller keeps owning. A
// *net.UDPConn gets the batched syscall path, a 4 MiB receive buffer
// and a 1 MiB send buffer (the kernel clamps both requests); any other
// PacketConn the portable adapter. Default buffers drop bursts of a few
// hundred small datagrams, and a socket's only reader may block: a
// serving goroutine waits out the commit vault's anchor fsync, 40–165
// ms on the benchmark host, during which 1 MiB held about 120 ms of a
// 20k req/s mixed stream. A queued 78-byte request costs the buffer 832
// bytes, and 910 as a segment of a peer's GSO burst — unless the socket
// has UDP GRO (BatchConn.EnableGRO): a coalesced burst of 20 is one
// buffer of 2.4 KB, 120 bytes a request.
func NewDatagramConn(conn net.PacketConn) (DatagramConn, error) {
	uc, ok := conn.(*net.UDPConn)
	if !ok {
		return NewPacketBatchConn(conn), nil
	}
	_ = uc.SetReadBuffer(4 << 20)
	_ = uc.SetWriteBuffer(1 << 20)
	bc, err := NewBatchConn(uc)
	if err != nil {
		return nil, err
	}
	return bc, nil
}

// PacketBatchConn adapts any net.PacketConn to the DatagramConn
// interface, one datagram per syscall: the portable path for test
// stubs and caller-supplied sockets.
type PacketBatchConn struct {
	conn net.PacketConn
}

// NewPacketBatchConn wraps conn. The caller keeps ownership (Close,
// deadlines).
func NewPacketBatchConn(conn net.PacketConn) *PacketBatchConn {
	return &PacketBatchConn{conn: conn}
}

// RecvBatch receives one datagram into slot 0.
//
//triad:hotpath
func (c *PacketBatchConn) RecvBatch(b *Batch) (int, error) {
	n, from, err := c.conn.ReadFrom(b.bufs[0][:cap(b.bufs[0])])
	if err != nil {
		return 0, err
	}
	b.lens[0] = n
	u, _ := from.(*net.UDPAddr)
	b.addrs[0], _ = SockaddrFromUDP(u)
	return 1, nil
}

// SendBatch transmits slots [0,n) one WriteTo at a time, reporting how
// many sends succeeded and the first error encountered (later slots
// are still attempted: UDP write errors are per-datagram).
//
//triad:hotpath
func (c *PacketBatchConn) SendBatch(b *Batch, n int) (int, error) {
	sent := 0
	var firstErr error
	for i := 0; i < n; i++ {
		a := b.addrs[i]
		if a.IsZero() {
			// Unconnected PacketConn sends need a destination.
			continue
		}
		a.PutUDP(&b.udpScratch, b.ipScratch[:])
		//triad:nolint:hotpath pointer-into-interface boxing does not allocate; the scratch addr is reused
		if _, err := c.conn.WriteTo(b.bufs[i][:b.lens[i]], &b.udpScratch); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent++
	}
	return sent, firstErr
}

// LocalAddr reports the wrapped socket's bound address.
func (c *PacketBatchConn) LocalAddr() net.Addr { return c.conn.LocalAddr() }

// pastDeadline is the deadline used to unblock receive loops during
// shutdown: any moment firmly in the past.
var pastDeadline = time.Unix(1, 0)

// InterruptReads unblocks current and future reads on conn by moving
// its read deadline into the past. Serving shutdown uses it to stop
// intake while keeping the socket writable for the final response
// flush.
func InterruptReads(conn net.PacketConn) error {
	return conn.SetReadDeadline(pastDeadline)
}
