package serve

import (
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"triadtime/internal/metrics"
	"triadtime/internal/transport"
	"triadtime/internal/wire"
)

// failingConn is a net.PacketConn stub whose writes always fail: the
// SendErrors counter's unit-test harness. Reads deliver queued
// datagrams — or queued errors — and honor deadline interrupts the way
// a real socket does.
type failingConn struct {
	reqs      chan []byte
	readErrs  chan error
	interrupt chan struct{}
	closed    chan struct{}
	intOnce   sync.Once
	closeOnce sync.Once
	writes    atomic.Uint64
}

func newFailingConn() *failingConn {
	return &failingConn{
		reqs:      make(chan []byte, 16),
		readErrs:  make(chan error, 1),
		interrupt: make(chan struct{}),
		closed:    make(chan struct{}),
	}
}

func (c *failingConn) ReadFrom(p []byte) (int, net.Addr, error) {
	select {
	case b := <-c.reqs:
		return copy(p, b), &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242}, nil
	case err := <-c.readErrs:
		return 0, nil, err
	case <-c.interrupt:
		return 0, nil, os.ErrDeadlineExceeded
	case <-c.closed:
		return 0, nil, net.ErrClosed
	}
}

func (c *failingConn) WriteTo(p []byte, a net.Addr) (int, error) {
	c.writes.Add(1)
	return 0, errors.New("stub: transmit ring gone")
}

func (c *failingConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

func (c *failingConn) LocalAddr() net.Addr {
	return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7201}
}

func (c *failingConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

func (c *failingConn) SetReadDeadline(t time.Time) error {
	if !t.IsZero() && t.Before(time.Now()) {
		c.intOnce.Do(func() { close(c.interrupt) })
	}
	return nil
}

func (c *failingConn) SetWriteDeadline(t time.Time) error { return nil }

// TestLiveServerCountsSendErrors: responses the socket refuses are
// discarded (the client sees loss) but tallied in SendErrors.
func TestLiveServerCountsSendErrors(t *testing.T) {
	key := liveTestKey()
	conn := newFailingConn()
	srv, err := NewLiveServer(LiveConfig{
		Conn:     conn,
		Key:      key,
		SenderID: 150,
		Server: Config{
			Clock: ClockFunc(func() (int64, error) { return 42, nil }),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sealer, err := wire.NewSealer(key, 9001)
	if err != nil {
		t.Fatal(err)
	}
	var plain [wire.TimeRequestSize]byte
	wire.TimeRequest{ClientID: 9001, Seq: 1}.MarshalInto(plain[:])
	conn.reqs <- sealer.SealDatagramAppend(nil, plain[:])

	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().SendErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("send error never counted: %+v", srv.Counters())
		}
		time.Sleep(time.Millisecond)
	}
	c := srv.Counters()
	if c.Served != 1 || c.SendErrors != 1 || conn.writes.Load() != 1 {
		t.Fatalf("served=%d sendErrors=%d writes=%d, want 1/1/1", c.Served, c.SendErrors, conn.writes.Load())
	}
}

// TestLiveServerSurvivesRecvError: a failed read that is neither close
// nor the shutdown interrupt is counted and the socket's only reader
// carries on — the next request is still served.
func TestLiveServerSurvivesRecvError(t *testing.T) {
	key := liveTestKey()
	conn := newFailingConn()
	conn.readErrs <- syscall.ENOBUFS
	srv, err := NewLiveServer(LiveConfig{
		Conn:     conn,
		Key:      key,
		SenderID: 150,
		Server: Config{
			Clock: ClockFunc(func() (int64, error) { return 42, nil }),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sealer, err := wire.NewSealer(key, 9001)
	if err != nil {
		t.Fatal(err)
	}
	var plain [wire.TimeRequestSize]byte
	wire.TimeRequest{ClientID: 9001, Seq: 1}.MarshalInto(plain[:])
	conn.reqs <- sealer.SealDatagramAppend(nil, plain[:])

	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().Served == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("receiver did not survive the read error: %+v", srv.Counters())
		}
		time.Sleep(time.Millisecond)
	}
	if c := srv.Counters(); c.RecvErrors != 1 || c.Served != 1 {
		t.Fatalf("recvErrors=%d served=%d, want 1/1", c.RecvErrors, c.Served)
	}
}

// TestLiveServerDropsOversize: datagrams above the only legal sealed
// request size are dropped before any authentication work and tallied;
// well-formed requests on the same socket keep being served.
func TestLiveServerDropsOversize(t *testing.T) {
	key := liveTestKey()
	srv, err := NewLiveServer(LiveConfig{
		Conn:     listenUDP(t),
		Key:      key,
		SenderID: 150,
		Server: Config{
			Clock: ClockFunc(func() (int64, error) { return 42, nil }),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := listenUDP(t)
	defer client.Close()
	if _, err := client.WriteTo(make([]byte, SealedRequestSize+37), srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().OversizeDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("oversize datagram never counted: %+v", srv.Counters())
		}
		time.Sleep(time.Millisecond)
	}
	if c := srv.Counters(); c.Received != 0 {
		t.Fatalf("oversize datagram reached the engine: %s", c.Summary())
	}

	sealer, err := wire.NewSealer(key, 9001)
	if err != nil {
		t.Fatal(err)
	}
	var plain [wire.TimeRequestSize]byte
	wire.TimeRequest{ClientID: 9001, Seq: 1}.MarshalInto(plain[:])
	if _, err := client.WriteTo(sealer.SealDatagramAppend(nil, plain[:]), srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	if _, _, err := client.ReadFrom(buf); err != nil {
		t.Fatalf("no response after oversize drop: %v", err)
	}
}

// liveClient is one test client flow: its own socket, sealer identity
// and opener.
type liveClient struct {
	conn   *net.UDPConn
	sealer *wire.Sealer
	opener *wire.Opener
	id     uint64
}

func dialLiveClient(t testing.TB, key []byte, addr net.Addr, id uint64) *liveClient {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, addr.(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sealer, err := wire.NewSealer(key, uint32(8000+id))
	if err != nil {
		t.Fatal(err)
	}
	opener, err := wire.NewOpener(key)
	if err != nil {
		t.Fatal(err)
	}
	return &liveClient{conn: conn, sealer: sealer, opener: opener, id: id}
}

func (c *liveClient) send(seq uint64) error {
	var plain [wire.TimeRequestSize]byte
	wire.TimeRequest{ClientID: c.id, Seq: seq}.MarshalInto(plain[:])
	_, err := c.conn.Write(c.sealer.SealDatagramAppend(nil, plain[:]))
	return err
}

// recv reads one response, returning it decoded and authenticated.
func (c *liveClient) recv(timeout time.Duration) (wire.TimeResponse, error) {
	buf := make([]byte, SealedResponseSize+1)
	c.conn.SetReadDeadline(time.Now().Add(timeout))
	n, err := c.conn.Read(buf)
	if err != nil {
		return wire.TimeResponse{}, err
	}
	pt, _, err := c.opener.OpenDatagramInto(nil, buf[:n])
	if err != nil {
		return wire.TimeResponse{}, err
	}
	return wire.UnmarshalTimeResponse(pt)
}

// TestLiveServerMultiSocket: a reuseport group serves many client
// flows — the kernel spreads flows across sockets, every request is
// answered, and every response authenticates under some identity in
// the server's range.
func TestLiveServerMultiSocket(t *testing.T) {
	sockets := 1
	if transport.ReusePortSockets {
		sockets = 4
	}
	key := liveTestKey()
	srv, err := NewLiveServer(LiveConfig{
		Listen:   "127.0.0.1:0",
		Sockets:  sockets,
		Key:      key,
		SenderID: 150,
		Server: Config{
			Clock: ClockFunc(func() (int64, error) { return 1234567890, nil }),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Sockets() != sockets {
		t.Fatalf("Sockets() = %d, want %d", srv.Sockets(), sockets)
	}

	const flows, perFlow = 16, 5
	for f := 0; f < flows; f++ {
		c := dialLiveClient(t, key, srv.LocalAddr(), uint64(f+1))
		for seq := uint64(0); seq < perFlow; seq++ {
			if err := c.send(seq); err != nil {
				t.Fatal(err)
			}
		}
		got := map[uint64]bool{}
		for len(got) < perFlow {
			resp, err := c.recv(5 * time.Second)
			if err != nil {
				t.Fatalf("flow %d after %d responses: %v", f, len(got), err)
			}
			if resp.Status != wire.StatusOK || resp.ClientID != c.id || resp.Nanos != 1234567890 {
				t.Fatalf("flow %d bad response: %+v", f, resp)
			}
			got[resp.Seq] = true
		}
	}
	c := srv.Counters()
	if c.Served != flows*perFlow || c.SendErrors != 0 || c.OversizeDrops != 0 {
		t.Fatalf("counters: %s sendErrors=%d oversize=%d", c.Summary(), c.SendErrors, c.OversizeDrops)
	}
}

// TestLiveServerCloseUnderLoad closes the endpoint while concurrent
// clients are firing at it across multiple sockets, and asserts the
// graceful-shutdown contract: every admitted request is answered
// (served or unavailable, never silently dropped), no send hits a
// closed socket, all goroutines exit, and double-Close is safe.
func TestLiveServerCloseUnderLoad(t *testing.T) {
	sockets := 1
	if transport.ReusePortSockets {
		sockets = 3
	}
	key := liveTestKey()
	baseline := runtime.NumGoroutine()
	srv, err := NewLiveServer(LiveConfig{
		Listen:   "127.0.0.1:0",
		Sockets:  sockets,
		Key:      key,
		SenderID: 150,
		Server: Config{
			Shards: 4,
			Clock:  ClockFunc(func() (int64, error) { return 42, nil }),
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const senders = 4
	stop := make(chan struct{})
	var senderWG sync.WaitGroup
	for w := 0; w < senders; w++ {
		c := dialLiveClient(t, key, srv.LocalAddr(), uint64(w+1))
		senderWG.Add(1)
		go func(c *liveClient) {
			defer senderWG.Done()
			for seq := uint64(0); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.send(seq); err != nil {
					return // socket closed under us at test end
				}
			}
		}(c)
	}

	// Let load build, then close mid-stream.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().Queued < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("load never built: %+v", srv.Counters())
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(stop)
	senderWG.Wait()

	c := srv.Counters()
	if c.Queued == 0 {
		t.Fatal("no requests admitted")
	}
	if answered := c.Served + c.Unavailable; answered != c.Queued {
		t.Fatalf("admitted %d but answered %d: %s", c.Queued, answered, c.Summary())
	}
	if c.SendErrors != 0 {
		t.Fatalf("%d responses hit a closed or failing socket", c.SendErrors)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// All serving goroutines must be gone (allow unrelated runtime
	// goroutines a moment to settle).
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// batchRig is an endpoint built but not started, so a test can hand
// its one receiver preloaded batches and run serveBatch itself: the
// whole pass minus the kernel's receive half. Replies go to a client
// flow the test may read.
type batchRig struct {
	*liveClient
	srv   *LiveServer
	r     *receiver
	from  transport.Sockaddr
	seq   uint64
	plain [wire.TimeRequestSize]byte // request scratch: a local would escape into the AEAD call
}

func newBatchRig(t *testing.T, cfg Config) *batchRig {
	t.Helper()
	key := liveTestKey()
	srv, err := newLiveServer(LiveConfig{Listen: "127.0.0.1:0", Key: key, SenderID: 150, Server: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rig := &batchRig{liveClient: dialLiveClient(t, key, srv.LocalAddr(), 1), srv: srv, r: srv.recvs[0]}
	var ok bool
	if rig.from, ok = transport.SockaddrFromUDP(rig.conn.LocalAddr().(*net.UDPAddr)); !ok {
		t.Fatal("bad client addr")
	}
	return rig
}

// put places datagram d in receive slot i, as if the client had sent it.
func (rig *batchRig) put(i int, d []byte) {
	copy(rig.r.in.Buffer(i)[:len(d)], d)
	rig.r.in.Set(i, len(d), rig.from)
}

// putRequests fills slots [0,n) with fresh sealed requests, client IDs
// id(i), without allocating.
func (rig *batchRig) putRequests(n int, id func(i int) uint64) {
	for i := 0; i < n; i++ {
		rig.seq++
		wire.TimeRequest{ClientID: id(i), Seq: rig.seq}.MarshalInto(rig.plain[:])
		sealed := rig.sealer.SealDatagramAppend(rig.r.in.Buffer(i), rig.plain[:])
		rig.r.in.Set(i, len(sealed), rig.from)
	}
}

// readReplies reads n replies off the client socket.
func (rig *batchRig) readReplies(t *testing.T, n int) []wire.TimeResponse {
	t.Helper()
	out := make([]wire.TimeResponse, n)
	for i := range out {
		var err error
		if out[i], err = rig.recv(5 * time.Second); err != nil {
			t.Fatalf("after %d/%d replies: %v", i, n, err)
		}
	}
	return out
}

// TestLiveServerShedsWithinOneBurst: a queue smaller than one received
// burst still bounds admission — the overflow is answered
// StatusOverloaded in the same flush as the served head of the burst,
// not parked or dropped.
func TestLiveServerShedsWithinOneBurst(t *testing.T) {
	const depth, burst = 4, 32
	rig := newBatchRig(t, Config{
		QueueDepth: depth,
		Clock:      ClockFunc(func() (int64, error) { return 42, nil }),
	})
	rig.putRequests(burst, func(int) uint64 { return 7 }) // one client: one shard
	rig.srv.serveBatch(rig.r, burst)

	served, shed := 0, 0
	for _, resp := range rig.readReplies(t, burst) {
		switch resp.Status {
		case wire.StatusOK:
			served++
		case wire.StatusOverloaded:
			shed++
		}
	}
	c := rig.srv.Counters()
	if served != depth || shed != burst-depth || c.Served != depth || c.ShedQueueFull != burst-depth || c.Batches != 1 {
		t.Fatalf("served %d shed %d, want %d/%d: %s", served, shed, depth, burst-depth, c.Summary())
	}
}

// TestLiveServerCountsDropReasons: every received datagram that draws
// no reply is tallied under exactly one reason.
func TestLiveServerCountsDropReasons(t *testing.T) {
	rig := newBatchRig(t, Config{Clock: ClockFunc(func() (int64, error) { return 42, nil })})
	var plain [wire.TimeRequestSize]byte
	wire.TimeRequest{ClientID: 7, Seq: 1}.MarshalInto(plain[:])
	good := rig.sealer.SealDatagramAppend(nil, plain[:])
	forged := append([]byte(nil), good...)
	forged[len(forged)-1] ^= 1
	plain[0] = byte(wire.KindStampResponse)
	rig.put(0, good)
	rig.put(1, good)                                           // replayed
	rig.put(2, forged)                                         // fails the AEAD open
	rig.put(3, rig.sealer.SealDatagramAppend(nil, plain[:10])) // authentic, no family's size
	rig.put(4, rig.sealer.SealDatagramAppend(nil, plain[:]))   // request-sized, wrong kind
	rig.r.in.Set(5, SealedRequestSize+1, rig.from)             // oversize
	rig.put(6, forged[:8])                                     // too short to carry a nonce
	rig.srv.serveBatch(rig.r, 7)

	c := rig.srv.Counters()
	if c.Received != 1 || c.Served != 1 || c.ReplayDrops != 1 || c.AuthFailDrops != 2 ||
		c.BadLenDrops != 1 || c.BadKindDrops != 1 || c.OversizeDrops != 1 {
		t.Fatalf("counters: %+v", c)
	}
	rig.readReplies(t, 1)
}

// TestLiveServePassZeroAllocSteadyState gates the whole live pass, not
// one half of it: authenticating and admitting a received batch,
// draining the shards it touched from one trusted read, sealing and
// flushing every reply must not allocate once the endpoint exists.
func TestLiveServePassZeroAllocSteadyState(t *testing.T) {
	if !transport.BatchSyscalls {
		t.Skip("fallback transport: per-datagram WriteToUDP may allocate in the runtime")
	}
	const batch = 64
	rig := newBatchRig(t, Config{
		RatePerClient: 1e9, // token buckets on the path, never empty
		QueueWait:     metrics.NewLatencyHistogram(),
		Clock:         ClockFunc(func() (int64, error) { return 42, nil }),
	})
	run := func() {
		rig.putRequests(batch, func(i int) uint64 { return uint64(i % 16) })
		rig.srv.serveBatch(rig.r, batch)
	}
	run() // warm: first sight of each client allocates its token bucket
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("steady-state serving pass allocated %.1f times per run", allocs)
	}
	if c := rig.srv.Counters(); c.Served != 102*batch || c.Batches != 102 || c.SendErrors != 0 {
		t.Fatalf("after 102 passes of %d: %s sendErrors=%d", batch, c.Summary(), c.SendErrors)
	}
}
