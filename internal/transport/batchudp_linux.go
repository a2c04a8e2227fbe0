//go:build linux && amd64

// Batched UDP syscalls: one recvmmsg/sendmmsg kernel crossing moves a
// whole Batch of datagrams, which is what lets the serving path answer
// a received batch without paying one syscall per client. Raw syscall
// numbers are used directly (the frozen stdlib syscall package predates
// sendmmsg), integrated with the runtime netpoller through
// syscall.RawConn — no new dependencies. Every recvmmsg/sendmmsg is
// made non-blocking per call (MSG_DONTWAIT) and issued raw: an empty
// receive queue or a full send buffer returns EAGAIN at once, and the
// goroutine then waits in the netpoller for POLLIN/POLLOUT, never in
// the kernel.

package transport

import (
	"errors"
	"fmt"
	"net"
	"runtime"
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
// predate the frozen syscall package. UDP_GRO is the receive-side
// counterpart: the kernel queues a same-flow run of equal-size
// datagrams (a peer's GSO send, a NIC's GRO aggregate) as one message
// and reports the segment size in a UDP_GRO control message.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT
	udpGRO     = 104 // UDP_GRO
	gsoMaxSegs = 64  // kernel UDP_MAX_SEGMENTS floor across GSO-capable kernels, and its UDP GRO cap
)

// gsoCmsg is one UDP_SEGMENT control message as sendmsg reads it: a
// cmsghdr and the uint16 segment size, padded to CMSG_SPACE(2). The
// same 24 bytes are CMSG_SPACE(4), room for the int a UDP_GRO receive
// writes.
type gsoCmsg struct {
	hdr syscall.Cmsghdr
	seg uint16
	_   [6]byte
}

// groSize reports the segment size of a UDP_GRO control message that a
// receive left in c, controllen bytes long, or 0 if there is none: the
// message is one datagram.
//
//triad:hotpath
func (c *gsoCmsg) groSize(controllen uint64) int {
	if controllen < uint64(syscall.CmsgLen(4)) || c.hdr.Level != solUDP || c.hdr.Type != udpGRO {
		return 0
	}
	return int(*(*int32)(unsafe.Pointer(&c.seg)))
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

	// dirty is how many leading headers may differ from a receive's
	// wiring: those the kernel filled on the last receive, and those a
	// send addressed and sized since.
	dirty int

	// gro is the receive side under UDP_GRO, built on the Batch's first
	// receive from a socket with GRO enabled.
	gro *groRecv

	recvFn, sendFn, groFn func(fd uintptr) bool
	res                   int
	errno                 syscall.Errno
	sendFrom, sendTo      int
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
	s.dirty = n
	s.recvFn = s.rawRecv
	s.sendFn = s.rawSend
	s.groFn = s.rawRecvGRO
}

// rewire gives each dirty header one whole payload buffer, a full-size
// name buffer and no control message, as a receive needs: a send may
// have shortened the iovecs, named destinations and regrouped headers
// into GSO runs, and a receive leaves the kernel's name lengths.
//
//triad:hotpath
func (s *batchSys) rewire(b *Batch) {
	hdrs := s.hdrs[:s.dirty]
	for i := range hdrs {
		s.iovs[i].SetLen(cap(b.bufs[i]))
		h := &hdrs[i].hdr
		h.Iov = &s.iovs[i]
		h.Iovlen = 1
		h.Name = (*byte)(unsafe.Pointer(&s.names[i]))
		h.Namelen = syscall.SizeofSockaddrInet6
		h.Control = nil
		h.Controllen = 0
	}
	s.dirty = 0
}

// rawRecv is the netpoller read callback: false on EAGAIN re-arms the
// poller, anything else completes the call with res/errno set.
func (s *batchSys) rawRecv(fd uintptr) bool {
	return s.mmsg(syscall.SYS_RECVMMSG, fd, s.hdrs, syscall.MSG_DONTWAIT)
}

func (s *batchSys) rawSend(fd uintptr) bool {
	return s.mmsg(sysSENDMMSG, fd, s.hdrs[s.sendFrom:s.sendTo], syscall.MSG_DONTWAIT)
}

// rawRecvGRO receives into the GRO headers. MSG_TRUNC makes the kernel
// report each message's full length, so a tail cut off by a too-short
// buffer is seen and counted rather than lost silently.
func (s *batchSys) rawRecvGRO(fd uintptr) bool {
	return s.mmsg(syscall.SYS_RECVMMSG, fd, s.gro.hdrs, syscall.MSG_DONTWAIT|syscall.MSG_TRUNC)
}

// mmsg issues one recvmmsg/sendmmsg over hdrs, retrying a call a
// signal interrupted before it moved anything.
//
// The call is a RawSyscall6, outside the runtime's blocking-syscall
// protocol: MSG_DONTWAIT makes it non-blocking whatever the fd's
// O_NONBLOCK state (a dup through UDPConn.File clears that flag), so
// it never parks its thread and there is no P to hand off. Through
// Syscall6 the first call of every burst would wake sysmon out of its
// deep sleep, and a call spanning a sysmon tick could lose its P to
// another M. The price: a GC stop-the-world waits for at most one
// call, which moves at most one Batch: 256 messages, under GRO of up to
// gsoMaxSegs datagrams each.
func (s *batchSys) mmsg(trap, fd uintptr, hdrs []mmsghdr, flags uintptr) bool {
	for {
		n, _, errno := syscall.RawSyscall6(trap, fd,
			uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)), flags, 0, 0)
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
	gro    bool
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

// EnableGRO turns on UDP receive offload: the kernel then queues a
// same-flow run of equal-size datagrams — a peer's GSO send, a NIC's
// GRO aggregate — as one message, and RecvBatch splits it back into
// datagrams in user space, one slot each, so a run costs one dequeue
// and one copy-out instead of one per datagram. A caller sees the same
// datagrams, slots and lengths as without it, and RecvBatch's
// carry-over. Call before the socket is shared; fails on
// kernels without UDP_GRO, and receiving then stays one message per
// datagram.
func (c *BatchConn) EnableGRO() error {
	var serr error
	if err := c.rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
	}); err != nil {
		return err
	}
	if serr != nil {
		return fmt.Errorf("transport: set UDP_GRO: %w", serr)
	}
	c.gro = true
	return nil
}

// RecvBatch fills b with as many queued datagrams as one recvmmsg
// returns, blocking (via the netpoller, honoring the socket's read
// deadline) until at least one arrives. With GRO enabled one call
// returns at most b.Size() datagrams however many the recvmmsg
// brought; the rest are returned by the next calls without a syscall,
// and so even once the read deadline has passed.
//
//triad:hotpath
func (c *BatchConn) RecvBatch(b *Batch) (int, error) {
	s := &b.sys
	if c.gro {
		return c.recvGRO(b)
	}
	s.rewire(b)
	if err := c.rc.Read(s.recvFn); err != nil {
		return 0, err
	}
	if s.errno != 0 {
		return 0, s.errno
	}
	n := s.res
	s.dirty = n
	for i := 0; i < n; i++ {
		b.lens[i] = int(s.hdrs[i].len)
		b.addrs[i] = decodeRawSockaddr(&s.names[i])
	}
	return n, nil
}

// recvGRO is RecvBatch under UDP_GRO: it hands out the datagrams the
// last recvmmsg brought and receives again once all are out.
//
//triad:hotpath
func (c *BatchConn) recvGRO(b *Batch) (int, error) {
	s := &b.sys
	if s.gro == nil {
		s.gro = newGRORecv(b)
	}
	g := s.gro
	if g.next == g.filled {
		g.rewire()
		if err := c.rc.Read(s.groFn); err != nil {
			return 0, err
		}
		if s.errno != 0 {
			return 0, s.errno
		}
		g.filled, g.next, g.seg = s.res, 0, 0
	}
	return g.split(b), nil
}

// groMax bounds a GRO message: no UDP datagram, coalesced or not, is
// longer, so a slot size above groMax/gsoMaxSegs needs no more.
const groMax = 1 << 16

// groHeadSlots is how many slots' worth of a GRO message land in its
// header's head, the rest in its tail. Single datagrams touch only the
// packed heads, and so does a run of up to groHeadSlots datagrams, the
// shape of a light client's burst.
const groHeadSlots = 8

// groRecv is a Batch's receive side under UDP_GRO: one header per slot,
// each scattering its message into a head and a tail, so that a
// coalesced run of gsoMaxSegs datagrams of the slot size arrives whole.
// The heads are packed, and a tail's pages are touched only by a run
// longer than a head. The buffers are one anonymous mapping outside the
// Go heap, unmapped when the Batch is collected: on the heap their
// untouched megabytes would still raise the collector's target, and
// with it the garbage a process keeps. Every datagram is copied out into
// a slot of its own, so the Batch's slots stay its own buffers for
// Buffer/Set/SendBatch.
type groRecv struct {
	hdrs         []mmsghdr
	iovs         []syscall.Iovec // header h's head and tail: iovs[2h], iovs[2h+1]
	names        []syscall.RawSockaddrInet6
	ctrl         []gsoCmsg
	heads, tails []byte
	// slot is the Batch's slot size; head and tail are the bytes per
	// header of heads and tails.
	slot, head, tail int

	// filled is how many headers the last recvmmsg filled; the next
	// datagram to hand out is segment seg of message next.
	filled, next, seg int
}

func newGRORecv(b *Batch) *groRecv {
	n, slot := len(b.bufs), cap(b.bufs[0])
	region := min(gsoMaxSegs*slot, groMax)
	head := min(groHeadSlots*slot, region)
	tail := region - head
	buf, err := syscall.Mmap(-1, 0, n*region, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err == nil {
		runtime.AddCleanup(b, func(buf []byte) { _ = syscall.Munmap(buf) }, buf)
	} else {
		buf = make([]byte, n*region)
	}
	g := &groRecv{
		hdrs:  make([]mmsghdr, n),
		iovs:  make([]syscall.Iovec, 2*n),
		names: make([]syscall.RawSockaddrInet6, n),
		ctrl:  make([]gsoCmsg, n),
		heads: buf[:n*head],
		tails: buf[n*head:],
		slot:  slot,
		head:  head,
		tail:  tail,
	}
	for h := range g.hdrs {
		hd := &g.hdrs[h].hdr
		g.iovs[2*h].Base = &g.heads[h*head]
		g.iovs[2*h].SetLen(head)
		hd.Iov = &g.iovs[2*h]
		hd.Iovlen = 1
		if tail > 0 {
			g.iovs[2*h+1].Base = &g.tails[h*tail]
			g.iovs[2*h+1].SetLen(tail)
			hd.Iovlen = 2
		}
		hd.Name = (*byte)(unsafe.Pointer(&g.names[h]))
		hd.Control = (*byte)(unsafe.Pointer(&g.ctrl[h]))
	}
	g.filled, g.next = n, n // every header needs its lengths
	return g
}

// rewire restores the name and control lengths of the headers the last
// recvmmsg filled: the kernel overwrote them with what it wrote.
//
//triad:hotpath
func (g *groRecv) rewire() {
	for h := range g.hdrs[:g.filled] {
		g.hdrs[h].hdr.Namelen = syscall.SizeofSockaddrInet6
		g.hdrs[h].hdr.Controllen = uint64(unsafe.Sizeof(g.ctrl[h]))
	}
}

// split copies datagrams out of the received messages into b's slots,
// in arrival order, until the slots or the messages run out, and
// reports how many it filled. A message's datagrams are its segments:
// each the UDP_GRO segment size long but a shorter last one (the run
// shape GSO sends), or the whole message when it carries no UDP_GRO
// control message. A datagram that did not arrive whole — longer than a
// slot, or cut off the end of a message longer than its head and tail
// — gets a slot of what arrived of it and reads as the slot's full
// size, as the plain path reads a datagram the kernel cut to the slot:
// its reader counts it like any datagram too long for it.
//
//triad:hotpath
func (g *groRecv) split(b *Batch) int {
	n := 0
	for ; g.next < g.filled; g.next, g.seg = g.next+1, 0 {
		h := g.next
		total := int(g.hdrs[h].len) // MSG_TRUNC: the full length
		arrived := min(total, g.head+g.tail)
		seg, segs := g.ctrl[h].groSize(g.hdrs[h].hdr.Controllen), 1
		if seg > 0 && seg < total {
			segs = (total + seg - 1) / seg
		} else {
			seg = total
		}
		from := decodeRawSockaddr(&g.names[h])
		for ; g.seg < segs; g.seg++ {
			if n == len(b.bufs) {
				return n
			}
			off := g.seg * seg
			l := min(seg, total-off)
			g.read(b.bufs[n][:min(l, g.slot)], h, off, arrived)
			if l > g.slot || off+l > arrived {
				l = g.slot
			}
			b.lens[n], b.addrs[n] = l, from
			n++
		}
	}
	return n
}

// read copies message h's bytes from off on into dst, stopping at end
// (where what arrived of the message ends).
//
//triad:hotpath
func (g *groRecv) read(dst []byte, h, off, end int) {
	end = min(end, off+len(dst))
	if off < end && off < g.head {
		c := copy(dst, g.heads[h*g.head+off:h*g.head+min(end, g.head)])
		dst, off = dst[c:], off+c
	}
	if off < end {
		t := h*g.tail - g.head
		copy(dst, g.tails[t+off:t+end])
	}
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
	s.dirty = max(s.dirty, n)
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
