//go:build !linux || !amd64

// Portable fallback for the batched UDP path: the same Batch /
// BatchConn surface, one datagram per syscall. Non-Linux builds (and
// Linux architectures whose sendmmsg number the frozen syscall package
// hides) stay correct; only the syscall amortization is lost.

package transport

import (
	"errors"
	"net"
)

// BatchSyscalls reports that this build moves one datagram per kernel
// crossing.
const BatchSyscalls = false

// batchSys is empty on the fallback path: there are no scatter/gather
// headers to prepare.
type batchSys struct{}

func (s *batchSys) init(b *Batch) {}

// BatchConn drives one *net.UDPConn a datagram at a time, mirroring
// the Linux batched implementation's semantics.
type BatchConn struct {
	conn *net.UDPConn
}

// NewBatchConn wraps conn. The caller keeps ownership (Close,
// deadlines).
func NewBatchConn(conn *net.UDPConn) (*BatchConn, error) {
	return &BatchConn{conn: conn}, nil
}

// EnableGRO reports that this build has no UDP receive offload: each
// datagram is read on its own, as without it.
func (c *BatchConn) EnableGRO() error {
	return errors.New("transport: UDP GRO needs the batched linux/amd64 build")
}

// RecvBatch receives one datagram into slot 0. (ReadFromUDP allocates
// its source address on this path; the Linux build decodes into
// preallocated raw-sockaddr storage instead.)
func (c *BatchConn) RecvBatch(b *Batch) (int, error) {
	n, from, err := c.conn.ReadFromUDP(b.bufs[0][:cap(b.bufs[0])])
	if err != nil {
		return 0, err
	}
	b.lens[0] = n
	b.addrs[0], _ = SockaddrFromUDP(from)
	return 1, nil
}

// SendBatch transmits slots [0,n) one write at a time, reporting how
// many sends succeeded and the first error encountered (later slots
// are still attempted: UDP write errors are per-datagram).
func (c *BatchConn) SendBatch(b *Batch, n int) (int, error) {
	sent := 0
	var firstErr error
	for i := 0; i < n; i++ {
		var err error
		if a := b.addrs[i]; a.IsZero() {
			_, err = c.conn.Write(b.bufs[i][:b.lens[i]])
		} else {
			a.PutUDP(&b.udpScratch, b.ipScratch[:])
			_, err = c.conn.WriteToUDP(b.bufs[i][:b.lens[i]], &b.udpScratch)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent++
	}
	return sent, firstErr
}

// LocalAddr reports the bound UDP address.
func (c *BatchConn) LocalAddr() net.Addr { return c.conn.LocalAddr() }
