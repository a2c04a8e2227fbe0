package serve

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"triadtime/internal/transport"
	"triadtime/internal/wire"
)

// Sealed client datagram sizes. Requests are fixed-size, so the
// receive path can right-size its buffers to the only legal datagram
// and reject anything larger before paying for authentication.
const (
	// SealedRequestSize is the exact wire size of a sealed TimeRequest.
	SealedRequestSize = wire.TimeRequestSize + wire.SealedOverhead
	// SealedResponseSize is the exact wire size of a sealed TimeResponse.
	SealedResponseSize = wire.TimeResponseSize + wire.SealedOverhead
	// SealedCommitRequestSize is the exact wire size of a sealed
	// CommitRequest (kinds 8-10); an oversize drop without a vault.
	SealedCommitRequestSize = wire.CommitRequestSize + wire.SealedOverhead
	// SealedCommitResponseSize is the exact wire size of a sealed
	// CommitResponse.
	SealedCommitResponseSize = wire.CommitResponseSize + wire.SealedOverhead
)

// recvSlots is how many datagrams one batched receive (one recvmmsg
// kernel crossing) can return.
const recvSlots = 256

// LiveConfig parameterizes a live (UDP) serving endpoint.
type LiveConfig struct {
	// Conn, when set, is a caller-supplied packet socket (the
	// compatibility and test-stub path, one datagram per syscall unless
	// it is a *net.UDPConn). The server takes ownership and closes it on
	// Close. Mutually exclusive with Listen.
	Conn net.PacketConn
	// Listen, when set, is a UDP address ("127.0.0.1:0") the server binds
	// itself — as a SO_REUSEPORT group of Sockets members on Linux, so the
	// kernel spreads client flows across receive goroutines. Excludes Conn.
	Listen string
	// Sockets is the reuseport group size for Listen mode. Default 1;
	// values above 1 require Linux.
	Sockets int
	// Key seals client traffic — not the protocol cluster key, so client
	// datagrams cannot masquerade as protocol traffic (and vice versa).
	Key []byte
	// SenderID is the base of the endpoint's wire-identity range: every
	// receive goroutine seals under its own identity, so AES-GCM nonces
	// stay unique without a shared counter. The endpoint reserves
	// [SenderID, SenderID+Sockets). See PROTOCOL.md.
	SenderID uint32
	// Server configures the underlying engine; Clock is required.
	Server Config
}

// LiveServer runs a Server over UDP, run to completion: each socket has
// one goroutine that receives a batch, authenticates and admits it,
// drains the engine shards it touched from one trusted-clock read,
// seals every reply — shed and served — under its own identity and
// flushes them with one sendmmsg (Linux) before it receives again. An
// admitted request never outlives the call that admitted it, so there
// is no drain timer and nothing left to flush at shutdown. Steady-state
// serving allocates nothing. The engine, admission behavior and wire
// format are identical to the simulated binding.
type LiveServer struct {
	srv   *Server[transport.Sockaddr]
	conns []net.PacketConn
	recvs []*receiver
	start time.Time

	// maxReq/maxResp are the largest legal sealed datagram in each
	// direction: the stamp sizes, or the commit sizes when a vault is
	// configured (without one, commit-sized datagrams are oversize).
	// Receive buffers, the pre-auth oversize threshold, send slots and
	// the GSO cap all derive from them.
	maxReq, maxResp int

	// drainMu[i] makes its holder shard i's only drainer from pop
	// through trusted read to socket write: with several sockets two
	// goroutines can touch one shard, and a client must never be sent a
	// later trusted time before an earlier one. Submit never takes it,
	// so admission is never held up behind a send; touched shards are
	// locked in ascending order.
	drainMu []sync.Mutex

	sendErrors atomic.Uint64
	recvErrors atomic.Uint64
	drops      [numDropReasons]atomic.Uint64

	recvWG   sync.WaitGroup
	stopOnce sync.Once
	closeErr error
}

// Why a received datagram drew no reply.
const (
	dropOversize = iota // larger than any legal request; not authenticated
	dropAuthFail        // failed the AEAD open: forged, truncated, or protocol-keyed
	dropReplay          // authentic, but its nonce counter was already accepted
	dropBadLen          // authentic plaintext of no request family's size
	dropBadKind         // request-sized plaintext that does not decode as that family
	numDropReasons
)

// LiveCounters extends the engine's admission/serving tallies with the
// endpoint's transport-level ones.
type LiveCounters struct {
	Counters
	// SendErrors counts responses discarded because the socket write
	// failed (to the client, indistinguishable from datagram loss).
	SendErrors uint64
	// RecvErrors counts failed socket reads the endpoint carried on past.
	RecvErrors uint64
	// OversizeDrops counts received datagrams exceeding the largest
	// legal sealed request, dropped before any AEAD work.
	OversizeDrops uint64
	// The other datagrams that drew no reply: failed AEAD open, replayed
	// nonce, authentic plaintext of no request family's size, and
	// request-sized plaintext that does not decode.
	AuthFailDrops, ReplayDrops, BadLenDrops, BadKindDrops uint64
}

// receiver is one receive goroutine's private state: its socket,
// replay windows, sealer identity, and every buffer a received batch
// passes through on its way to a reply.
type receiver struct {
	conn   transport.DatagramConn
	opener *wire.Opener
	sealer *wire.Sealer
	// in has one byte above the largest legal size per slot: a full
	// read at cap is an oversize (possibly kernel-truncated) datagram,
	// not a request. out[:k] holds the sealed replies not yet flushed.
	in, out *transport.Batch
	k       int
	scratch []byte
	plain   [wire.CommitResponseSize]byte

	touched    []bool // by shard: the current batch admitted into it
	shards     []int  // the touched shards, ascending
	deliveries []Delivery[transport.Sockaddr]
}

// NewLiveServer creates the endpoint and starts its goroutines.
func NewLiveServer(cfg LiveConfig) (*LiveServer, error) {
	s, err := newLiveServer(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range s.recvs {
		s.recvWG.Add(1)
		go s.recvLoop(r)
	}
	return s, nil
}

// newLiveServer binds the sockets and builds every receiver, starting
// nothing.
func newLiveServer(cfg LiveConfig) (*LiveServer, error) {
	if (cfg.Conn == nil) == (cfg.Listen == "") {
		return nil, errors.New("serve: exactly one of Conn and Listen is required")
	}
	if cfg.Sockets <= 0 {
		cfg.Sockets = 1
	}
	if cfg.Conn != nil && cfg.Sockets != 1 {
		return nil, errors.New("serve: Sockets requires Listen mode (a caller-supplied Conn is one socket)")
	}
	srv, err := New[transport.Sockaddr](cfg.Server)
	if err != nil {
		return nil, err
	}
	s := &LiveServer{srv: srv, start: time.Now(), drainMu: make([]sync.Mutex, srv.Shards()),
		maxReq: SealedRequestSize, maxResp: SealedResponseSize}
	if cfg.Server.Vault != nil {
		s.maxReq, s.maxResp = SealedCommitRequestSize, SealedCommitResponseSize
	}

	if cfg.Conn != nil {
		s.conns = []net.PacketConn{cfg.Conn}
	} else {
		group, err := transport.ListenReusePortGroup("udp", cfg.Listen, cfg.Sockets)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		for _, c := range group {
			s.conns = append(s.conns, c)
		}
	}
	for j, c := range s.conns {
		r, err := s.newReceiver(c, cfg.Key, cfg.SenderID, j)
		if err != nil {
			for _, c := range s.conns {
				c.Close()
			}
			return nil, err
		}
		s.recvs = append(s.recvs, r)
	}
	return s, nil
}

// newReceiver builds socket j's receiver. Its sealer is identity j of
// the endpoint's [SenderID, SenderID+Sockets): disjoint identities keep
// concurrent sealers' nonce spaces disjoint under the shared key.
func (s *LiveServer) newReceiver(c net.PacketConn, key []byte, senderID uint32, j int) (*receiver, error) {
	r := &receiver{
		in:         transport.NewBatch(recvSlots, s.maxReq+1),
		out:        transport.NewBatch(recvSlots, s.maxResp),
		scratch:    make([]byte, 0, wire.CommitRequestSize),
		touched:    make([]bool, s.srv.Shards()),
		shards:     make([]int, 0, s.srv.Shards()),
		deliveries: make([]Delivery[transport.Sockaddr], 0, s.srv.Shards()*s.srv.BatchMax()),
	}
	var err error
	if r.sealer, err = wire.NewSealerShard(key, senderID, j, len(s.conns)); err != nil {
		return nil, fmt.Errorf("serve: client key: %w", err)
	}
	if r.opener, err = wire.NewOpener(key); err != nil {
		return nil, fmt.Errorf("serve: client key: %w", err)
	}
	if r.conn, err = transport.NewDatagramConn(c); err != nil {
		return nil, fmt.Errorf("serve: batch socket: %w", err)
	}
	// Best-effort UDP GSO capped at the largest response size: every
	// equal-size same-client run collapses, stamp and commit replies
	// alike, each run segmented at its own size. Kernels without
	// UDP_SEGMENT send one header each.
	if g, ok := r.conn.(interface{ EnableGSO(int) error }); ok {
		_ = g.EnableGSO(s.maxResp)
	}
	// Best-effort UDP GRO: a client's GSO burst crosses the kernel as one
	// message and RecvBatch splits it into datagrams, each still checked,
	// opened and counted on its own by serveBatch. Kernels and builds
	// without it receive one message per datagram.
	if g, ok := r.conn.(interface{ EnableGRO() error }); ok {
		_ = g.EnableGRO()
	}
	return r, nil
}

// Server exposes the underlying engine (shard layout, engine counters).
func (s *LiveServer) Server() *Server[transport.Sockaddr] { return s.srv }

// Counters snapshots the endpoint's cumulative tallies: the engine's
// plus the transport-level ones only this layer sees.
func (s *LiveServer) Counters() LiveCounters {
	return LiveCounters{
		Counters:      s.srv.Counters(),
		SendErrors:    s.sendErrors.Load(),
		RecvErrors:    s.recvErrors.Load(),
		OversizeDrops: s.drops[dropOversize].Load(),
		AuthFailDrops: s.drops[dropAuthFail].Load(),
		ReplayDrops:   s.drops[dropReplay].Load(),
		BadLenDrops:   s.drops[dropBadLen].Load(),
		BadKindDrops:  s.drops[dropBadKind].Load(),
	}
}

// LocalAddr reports the bound UDP address (shared by every socket in a
// reuseport group).
func (s *LiveServer) LocalAddr() net.Addr { return s.conns[0].LocalAddr() }

// Sockets reports how many UDP sockets serve the address.
func (s *LiveServer) Sockets() int { return len(s.conns) }

// nowNanos is the endpoint's monotonic clock for admission and
// queue-wait accounting (not trusted time).
func (s *LiveServer) nowNanos() int64 { return int64(time.Since(s.start)) }

// recvLoop serves one socket until it closes or Close interrupts its
// reads. Any other receive error (ENOMEM, ENOBUFS) is counted and the
// loop carries on: this goroutine is the socket's only reader.
func (s *LiveServer) recvLoop(r *receiver) {
	defer s.recvWG.Done()
	for {
		n, err := r.conn.RecvBatch(r.in)
		switch {
		case err == nil:
			s.serveBatch(r, n)
		case errors.Is(err, net.ErrClosed), errors.Is(err, os.ErrDeadlineExceeded):
			return
		default:
			s.recvErrors.Add(1)
		}
	}
}

// serveBatch runs one received batch to completion: authenticate and
// admit every datagram (sealing shed replies as it goes), then drain
// the shards it admitted into until they are empty — BatchMax per shard
// and ONE trusted read per pass — and flush shed and served replies
// together.
//
//triad:hotpath
func (s *LiveServer) serveBatch(r *receiver, n int) {
	now := s.nowNanos()
	var drops [numDropReasons]uint64
	for i := 0; i < n; i++ {
		if r.in.Len(i) > s.maxReq {
			drops[dropOversize]++
			continue
		}
		pt, _, err := r.opener.OpenDatagramInto(r.scratch, r.in.Payload(i))
		if err != nil {
			if errors.Is(err, wire.ErrReplay) {
				drops[dropReplay]++
			} else {
				drops[dropAuthFail]++
			}
			continue
		}
		// The request families are fixed-size and distinct, so the
		// authenticated plaintext length is the demultiplexer.
		switch len(pt) {
		case wire.TimeRequestSize:
			req, err := wire.UnmarshalTimeRequest(pt)
			if err != nil {
				drops[dropBadKind]++
				continue
			}
			if resp, shed := s.srv.Submit(now, req, r.in.Addr(i)); shed {
				resp.MarshalInto(r.plain[:])
				s.reply(r, wire.TimeResponseSize, r.in.Addr(i))
			} else {
				r.touched[s.srv.ShardOf(req.ClientID)] = true
			}
		case wire.CommitRequestSize:
			req, err := wire.UnmarshalCommitRequest(pt)
			if err != nil {
				drops[dropBadKind]++
				continue
			}
			if resp, decided := s.srv.SubmitCommit(now, req, r.in.Addr(i)); decided {
				resp.MarshalInto(r.plain[:])
				s.reply(r, wire.CommitResponseSize, r.in.Addr(i))
			} else {
				r.touched[s.srv.ShardOf(req.ClientID)] = true
			}
		default:
			drops[dropBadLen]++
		}
	}
	for reason, d := range drops {
		if d != 0 {
			s.drops[reason].Add(d)
		}
	}

	r.shards = r.shards[:0]
	for i, hit := range r.touched {
		if hit {
			r.touched[i] = false
			r.shards = append(r.shards, i)
			s.drainMu[i].Lock()
		}
	}
	for {
		r.deliveries = s.srv.DrainShards(r.shards, s.nowNanos(), r.deliveries[:0])
		if len(r.deliveries) == 0 {
			break
		}
		// Stamp replies first, then commit replies: the pass's stamps
		// share its one trusted read and every commit decision read the
		// clock after it, so this is also time order — and equal-size
		// replies to one client sit side by side for GSO.
		for d := range r.deliveries {
			if dl := &r.deliveries[d]; !dl.IsCommit {
				dl.Resp.MarshalInto(r.plain[:])
				s.reply(r, wire.TimeResponseSize, dl.To)
			}
		}
		for d := range r.deliveries {
			if dl := &r.deliveries[d]; dl.IsCommit {
				dl.Commit.MarshalInto(r.plain[:])
				s.reply(r, wire.CommitResponseSize, dl.To)
			}
		}
	}
	s.flush(r)
	for _, i := range r.shards {
		s.drainMu[i].Unlock()
	}
}

// reply seals r.plain[:size] into the next send slot; a full send batch
// is flushed early.
//
//triad:hotpath
func (s *LiveServer) reply(r *receiver, size int, to transport.Sockaddr) {
	sealed := r.sealer.SealDatagramAppend(r.out.Buffer(r.k), r.plain[:size])
	r.out.Set(r.k, len(sealed), to)
	r.k++
	if r.k == r.out.Size() {
		s.flush(r)
	}
}

// flush sends the pending replies, counting those the socket refused.
// Write errors are indistinguishable from loss for the client; the
// counter is the server operator's signal.
//
//triad:hotpath
func (s *LiveServer) flush(r *receiver) {
	sent, _ := r.conn.SendBatch(r.out, r.k) // no syscall when k is 0
	if sent < r.k {
		s.sendErrors.Add(uint64(r.k - sent))
	}
	r.k = 0
}

// Close shuts the endpoint down gracefully: socket reads are
// interrupted, each receive goroutine finishes the batch it is in —
// answering all it admitted on its still-open socket — and exits, and
// only then do the sockets close. Safe to call multiple times.
func (s *LiveServer) Close() error {
	s.stopOnce.Do(func() {
		for _, c := range s.conns {
			_ = transport.InterruptReads(c)
		}
		s.recvWG.Wait()
		for _, c := range s.conns {
			if err := c.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}
