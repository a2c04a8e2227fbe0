//go:build linux && amd64

// Batched UDP syscalls: one recvmmsg/sendmmsg kernel crossing moves a
// whole Batch of datagrams, which is what lets the serving path answer
// a received batch without paying one syscall per client. Raw syscall
// numbers are used directly (the frozen stdlib syscall package predates
// sendmmsg), integrated with the runtime netpoller through
// syscall.RawConn — no new dependencies.

package transport

import (
	"errors"
	"fmt"
	"net"
	"syscall"
	"unsafe"
)

// sysSENDMMSG is the linux/amd64 sendmmsg syscall number; the frozen
// syscall package exports SYS_RECVMMSG but predates sendmmsg.
const sysSENDMMSG = 307

// UDP generalized segmentation offload: a send carrying a UDP_SEGMENT
// control message is split by the kernel into datagrams of that segment
// size — the per-datagram cost of the loopback/driver TX path (~2.4µs
// here) collapses to the per-segment cost (~0.3µs). The constants
// predate the frozen syscall package.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT
	gsoMaxSegs = 64  // kernel UDP_MAX_SEGMENTS floor across GSO-capable kernels
)

// gsoCmsg is one UDP_SEGMENT control message as sendmsg reads it: a
// cmsghdr and the uint16 segment size, padded to CMSG_SPACE(2).
type gsoCmsg struct {
	hdr syscall.Cmsghdr
	seg uint16
	_   [6]byte
}

// errGSOSegmentSize is returned when a slot exceeds the socket's GSO
// segment size (the kernel would split it mid-datagram).
var errGSOSegmentSize = errors.New("transport: datagram exceeds GSO segment size")

// BatchSyscalls reports that this build moves whole batches per
// kernel crossing.
const BatchSyscalls = true

// mmsghdr mirrors the kernel's struct mmsghdr: one msghdr plus the
// kernel-reported datagram length.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// batchSys is the Linux scatter/gather layer of a Batch: mmsg headers
// wired once to the payload buffers, per-slot raw sockaddr storage,
// and pre-bound raw-callback method values so RecvBatch/SendBatch
// allocate no closures. Per-call state rides in fields because the
// netpoller callback signature carries only the fd; a Batch (and with
// it this state) belongs to one goroutine.
type batchSys struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6

	// segs[h] is how many Batch slots header h covers: 1 without GSO,
	// a same-destination run of up to gsoMaxSegs with it. Partial-send
	// accounting maps kernel-accepted headers back to datagrams.
	segs []int
	// ctrl[h] is header h's UDP_SEGMENT control message, attached only
	// while h covers a multi-slot run: each run carries its own segment
	// size.
	ctrl []gsoCmsg

	recvFn, sendFn   func(fd uintptr) bool
	res              int
	errno            syscall.Errno
	sendFrom, sendTo int
}

func (s *batchSys) init(b *Batch) {
	n := len(b.bufs)
	s.hdrs = make([]mmsghdr, n)
	s.iovs = make([]syscall.Iovec, n)
	s.names = make([]syscall.RawSockaddrInet6, n)
	s.segs = make([]int, n)
	s.ctrl = make([]gsoCmsg, n)
	for i := range s.hdrs {
		s.iovs[i].Base = &b.bufs[i][0]
		s.iovs[i].SetLen(cap(b.bufs[i]))
		s.hdrs[i].hdr.Iov = &s.iovs[i]
		s.hdrs[i].hdr.Iovlen = 1
		s.ctrl[i].hdr.Level = solUDP
		s.ctrl[i].hdr.Type = udpSegment
		s.ctrl[i].hdr.SetLen(syscall.CmsgLen(2))
	}
	s.recvFn = s.rawRecv
	s.sendFn = s.rawSend
}

// rawRecv is the netpoller read callback: false on EAGAIN re-arms the
// poller, anything else completes the call with res/errno set.
func (s *batchSys) rawRecv(fd uintptr) bool {
	return s.mmsg(syscall.SYS_RECVMMSG, fd, 0, len(s.hdrs))
}

func (s *batchSys) rawSend(fd uintptr) bool {
	return s.mmsg(sysSENDMMSG, fd, s.sendFrom, s.sendTo)
}

// mmsg issues one recvmmsg/sendmmsg over hdrs[from:to], retrying a
// call a signal interrupted before it moved anything.
func (s *batchSys) mmsg(trap, fd uintptr, from, to int) bool {
	for {
		n, _, errno := syscall.Syscall6(trap, fd,
			uintptr(unsafe.Pointer(&s.hdrs[from])), uintptr(to-from), 0, 0, 0)
		switch errno {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		s.errno = errno
		s.res = int(n)
		return true
	}
}

// BatchConn drives one *net.UDPConn with recvmmsg/sendmmsg. The
// struct is read-only after setup (per-call state lives in the Batch),
// so one receiver goroutine and several sender goroutines may share a
// BatchConn as long as each brings its own Batch.
type BatchConn struct {
	conn   *net.UDPConn
	rc     syscall.RawConn
	gsoSeg int
}

// NewBatchConn wraps conn. The caller keeps ownership (Close,
// deadlines).
func NewBatchConn(conn *net.UDPConn) (*BatchConn, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	return &BatchConn{conn: conn, rc: rc}, nil
}

// EnableGSO turns on UDP segmentation offload for sends: SendBatch
// then hands the kernel one segmented payload per same-destination run
// of equal-size datagrams instead of one header each, collapsing the
// TX path's per-datagram cost. Natural for this protocol because every
// sealed message of a given kind has one exact size. Each run carries
// its own segment size — its first datagram's — so runs of different
// message kinds collapse alike; segSize is the cap: after enabling,
// every sent slot must be at most segSize bytes. Call before the socket
// is shared; fails on kernels without UDP_SEGMENT. Receiving is
// unaffected.
func (c *BatchConn) EnableGSO(segSize int) error {
	if segSize <= 0 || segSize > 0xffff {
		return fmt.Errorf("transport: GSO segment size %d out of range", segSize)
	}
	var serr error
	if err := c.rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, segSize)
	}); err != nil {
		return err
	}
	if serr != nil {
		return fmt.Errorf("transport: set UDP_SEGMENT: %w", serr)
	}
	c.gsoSeg = segSize
	return nil
}

// RecvBatch fills b with as many queued datagrams as one recvmmsg
// returns, blocking (via the netpoller, honoring the socket's read
// deadline) until at least one arrives.
//
//triad:hotpath
func (c *BatchConn) RecvBatch(b *Batch) (int, error) {
	s := &b.sys
	for i := range s.hdrs {
		s.iovs[i].SetLen(cap(b.bufs[i]))
		// Re-wire one iovec per header: a GSO send may have regrouped
		// this Batch's headers into multi-slot runs.
		s.hdrs[i].hdr.Iov = &s.iovs[i]
		s.hdrs[i].hdr.Iovlen = 1
		s.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&s.names[i]))
		s.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
		s.hdrs[i].hdr.Control = nil
		s.hdrs[i].hdr.Controllen = 0
	}
	if err := c.rc.Read(s.recvFn); err != nil {
		return 0, err
	}
	if s.errno != 0 {
		return 0, s.errno
	}
	n := s.res
	for i := 0; i < n; i++ {
		b.lens[i] = int(s.hdrs[i].len)
		b.addrs[i] = decodeRawSockaddr(&s.names[i])
	}
	return n, nil
}

// SendBatch transmits slots [0,n) — one sendmmsg per kernel crossing,
// resuming after partial sends — and reports how many datagrams the
// kernel accepted and the first error encountered. UDP write errors are
// per-datagram, so a header the kernel refuses (say, a port-0
// destination) is skipped and the slots after it are still sent; only a
// socket-level failure (closed, write deadline) ends the call early.
// With GSO enabled, consecutive equal-size slots to the same
// destination collapse into segmented sends; a run the kernel refuses
// is resent one header per slot, together with the rest of the batch.
//
//triad:hotpath
func (c *BatchConn) SendBatch(b *Batch, n int) (int, error) {
	s := &b.sys
	for i := 0; i < n; i++ {
		s.iovs[i].SetLen(b.lens[i])
	}
	var hdrs int
	if c.gsoSeg > 0 {
		var err error
		if hdrs, err = s.groupGSO(b, n, c.gsoSeg); err != nil {
			return 0, err
		}
	} else {
		hdrs = s.singles(b, 0, n, 0)
	}
	// slot is the first slot of header sentHdrs.
	sentSlots, sentHdrs, slot := 0, 0, 0
	var firstErr error
	for sentHdrs < hdrs {
		s.sendFrom, s.sendTo = sentHdrs, hdrs
		if err := c.rc.Write(s.sendFn); err != nil {
			return sentSlots, err
		}
		if s.errno != 0 {
			// sendmmsg fails only on the first header it is given (a
			// later failure ends the call short and surfaces here on the
			// resume): that header is the unsendable one. A refused run
			// may be its control message's fault, not the datagrams':
			// regroup from it one slot per header and try again.
			if s.segs[sentHdrs] > 1 {
				hdrs = sentHdrs + s.singles(b, slot, n, sentHdrs)
				continue
			}
			if firstErr == nil {
				firstErr = s.errno
			}
			sentHdrs++
			slot++
			continue
		}
		if s.res <= 0 {
			break
		}
		for h := sentHdrs; h < sentHdrs+s.res; h++ {
			sentSlots += s.segs[h]
			slot += s.segs[h]
		}
		sentHdrs += s.res
	}
	return sentSlots, firstErr
}

// setName points header h's destination at slot i's address (nil name
// = the connected peer).
//
//triad:hotpath
func (s *batchSys) setName(h, i int, b *Batch) {
	if b.addrs[i].IsZero() {
		s.hdrs[h].hdr.Name = nil
		s.hdrs[h].hdr.Namelen = 0
	} else {
		s.hdrs[h].hdr.Namelen = encodeRawSockaddr(&s.names[h], b.addrs[i])
		s.hdrs[h].hdr.Name = (*byte)(unsafe.Pointer(&s.names[h]))
	}
}

// singles writes one header per slot for slots [from, to), starting at
// header h0, and reports how many it wrote.
//
//triad:hotpath
func (s *batchSys) singles(b *Batch, from, to, h0 int) int {
	h := h0
	for i := from; i < to; i++ {
		s.hdrs[h].hdr.Iov = &s.iovs[i]
		s.hdrs[h].hdr.Iovlen = 1
		s.hdrs[h].hdr.Control = nil
		s.hdrs[h].hdr.Controllen = 0
		s.setName(h, i, b)
		s.segs[h] = 1
		h++
	}
	return h - h0
}

// groupGSO builds one header per same-destination run of slots, each
// run segmented at its first slot's size, and refuses a batch holding a
// slot above the cap. A run stays datagram-aligned because every slot
// in it except the last has exactly the first's size and the last is no
// larger: the kernel splits the concatenated payload at segment
// boundaries, which are then exactly the slot boundaries. The per-slot
// iovecs are contiguous, so a run is expressed as an iovec subslice —
// no copying — and a multi-slot run gets its own UDP_SEGMENT control
// message.
//
//triad:hotpath
func (s *batchSys) groupGSO(b *Batch, n, maxSeg int) (int, error) {
	h := 0
	for i := 0; i < n; {
		seg := b.lens[i]
		if seg > maxSeg {
			return 0, errGSOSegmentSize
		}
		run := 1
		for seg > 0 && i+run < n && run < gsoMaxSegs &&
			b.lens[i+run-1] == seg && // all but a run's last slot must be full-size
			b.lens[i+run] <= seg &&
			b.addrs[i+run] == b.addrs[i] {
			run++
		}
		hdr := &s.hdrs[h].hdr
		hdr.Iov = &s.iovs[i]
		hdr.Iovlen = uint64(run)
		if run > 1 {
			s.ctrl[h].seg = uint16(seg)
			hdr.Control = (*byte)(unsafe.Pointer(&s.ctrl[h]))
			hdr.Controllen = uint64(unsafe.Sizeof(s.ctrl[h]))
		} else {
			hdr.Control = nil
			hdr.Controllen = 0
		}
		s.setName(h, i, b)
		s.segs[h] = run
		h++
		i += run
	}
	return h, nil
}

// LocalAddr reports the bound UDP address.
func (c *BatchConn) LocalAddr() net.Addr { return c.conn.LocalAddr() }

// htons converts a host-order port to network byte order.
func htons(p uint16) uint16 { return p<<8 | p>>8 }

// decodeRawSockaddr converts a kernel-filled raw sockaddr (either
// family; the storage is Inet6-sized) to a Sockaddr.
//
//triad:hotpath
func decodeRawSockaddr(src *syscall.RawSockaddrInet6) (a Sockaddr) {
	switch src.Family {
	case syscall.AF_INET:
		s4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(src))
		copy(a.IP[:4], s4.Addr[:])
		a.Port = htons(s4.Port)
	case syscall.AF_INET6:
		a.IP = src.Addr
		a.Port = htons(src.Port)
		a.V6 = true
	}
	return a
}

// encodeRawSockaddr fills dst from a and returns the namelen the
// msghdr must carry.
//
//triad:hotpath
func encodeRawSockaddr(dst *syscall.RawSockaddrInet6, a Sockaddr) uint32 {
	if a.V6 {
		dst.Family = syscall.AF_INET6
		dst.Port = htons(a.Port)
		dst.Addr = a.IP
		dst.Flowinfo = 0
		dst.Scope_id = 0
		return syscall.SizeofSockaddrInet6
	}
	d4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(dst))
	d4.Family = syscall.AF_INET
	d4.Port = htons(a.Port)
	copy(d4.Addr[:], a.IP[:4])
	return syscall.SizeofSockaddrInet4
}
