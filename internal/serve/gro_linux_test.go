//go:build linux && amd64

package serve

import (
	"net"
	"slices"
	"testing"
	"time"

	"triadtime/internal/metrics"
	"triadtime/internal/transport"
	"triadtime/internal/wire"
)

// gsoClient sends each burst as GSO runs from one socket, the way a
// batching client (cmd/triad-loadgen) does, so a burst of equal-size
// datagrams reaches the endpoint's GRO socket as one message.
type gsoClient struct {
	conn *net.UDPConn
	bc   *transport.BatchConn
	out  *transport.Batch
}

func newGSOClient(t testing.TB, srv net.Addr, segCap int) *gsoClient {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, srv.(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return newGSOClientOn(t, conn, segCap)
}

func newGSOClientOn(t testing.TB, conn *net.UDPConn, segCap int) *gsoClient {
	t.Helper()
	bc, err := transport.NewBatchConn(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.EnableGSO(segCap); err != nil {
		t.Skipf("kernel without UDP_SEGMENT: %v", err)
	}
	return &gsoClient{conn: conn, bc: bc, out: transport.NewBatch(recvSlots, segCap)}
}

// send transmits the first n slots of c.out to the connected endpoint.
func (c *gsoClient) send(t testing.TB, n int) {
	t.Helper()
	if sent, err := c.bc.SendBatch(c.out, n); err != nil || sent != n {
		t.Fatalf("burst of %d: sent %d, %v", n, sent, err)
	}
}

func startGROServer(t *testing.T) *LiveServer {
	t.Helper()
	srv, err := NewLiveServer(LiveConfig{
		Listen:   "127.0.0.1:0",
		Key:      liveTestKey(),
		SenderID: 150,
		Server:   Config{Clock: ClockFunc(func() (int64, error) { return 42, nil })},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestLiveServerGROBurstDropReasons: a coalesced burst of 20 requests
// holding one forged and one replayed segment draws exactly one
// auth_fail and one replay drop; every other segment gets its reply.
func TestLiveServerGROBurstDropReasons(t *testing.T) {
	const burst, forged, replayed, original = 20, 7, 13, 3
	srv := startGROServer(t)
	c := newGSOClient(t, srv.LocalAddr(), SealedRequestSize)
	sealer, err := wire.NewSealer(liveTestKey(), 9001)
	if err != nil {
		t.Fatal(err)
	}
	var plain [wire.TimeRequestSize]byte
	var want []uint64
	for i := 0; i < burst; i++ {
		wire.TimeRequest{ClientID: 9001, Seq: uint64(i + 1)}.MarshalInto(plain[:])
		p := sealer.SealDatagramAppend(c.out.Buffer(i), plain[:])
		switch i {
		case forged:
			p[len(p)-1] ^= 1
		case replayed:
			copy(p, c.out.Payload(original))
		default:
			want = append(want, uint64(i+1))
		}
		c.out.Set(i, len(p), transport.Sockaddr{})
	}
	c.send(t, burst)

	opener, err := wire.NewOpener(liveTestKey())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, SealedResponseSize+1)
	var got []uint64
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(got) < len(want) {
		n, err := c.conn.Read(buf)
		if err != nil {
			t.Fatalf("after %d of %d replies: %v", len(got), len(want), err)
		}
		pt, _, err := opener.OpenDatagramInto(nil, buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.UnmarshalTimeResponse(pt)
		if err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("reply %+v, %v", resp, err)
		}
		got = append(got, resp.Seq)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("replies to seqs %v, want %v", got, want)
	}
	// The drops were counted before the replies were flushed.
	if cs := srv.Counters(); cs.AuthFailDrops != 1 || cs.ReplayDrops != 1 || cs.Served != uint64(len(want)) ||
		cs.OversizeDrops+cs.BadLenDrops+cs.BadKindDrops+cs.RecvErrors != 0 {
		t.Fatalf("counters: %+v", cs)
	}
}

// TestLiveServerGROOversizeSegments: GSO bursts of oversize segments
// count one oversize drop per segment — a burst of 20 that fits the
// receive region and one of 64 whose tail the region cuts off — and
// nothing reaches the engine.
func TestLiveServerGROOversizeSegments(t *testing.T) {
	const size = 200
	srv := startGROServer(t)
	c := newGSOClient(t, srv.LocalAddr(), size)
	total := 0
	for _, burst := range []int{20, 64} {
		for i := 0; i < burst; i++ {
			c.out.Set(i, len(append(c.out.Buffer(i), make([]byte, size)...)), transport.Sockaddr{})
		}
		c.send(t, burst)
		total += burst
	}
	// A request queued after them: its reply means every segment before
	// it has been counted.
	client := dialLiveClient(t, liveTestKey(), srv.LocalAddr(), 9001)
	if err := client.send(1); err != nil {
		t.Fatal(err)
	}
	if _, err := client.recv(5 * time.Second); err != nil {
		t.Fatalf("no reply after the oversize bursts: %v", err)
	}
	if cs := srv.Counters(); cs.OversizeDrops != uint64(total) || cs.Received != 1 ||
		cs.AuthFailDrops+cs.RecvErrors != 0 {
		t.Fatalf("after %d oversize segments: %+v", total, cs)
	}
}

// TestLiveServePassZeroAllocGRO gates the whole live pass with the
// kernel's receive half on a GRO socket: a client's GSO burst of 64
// requests is received as one message, split into slots, served, and
// its replies flushed and read back, without allocating once the
// endpoint and its receive buffers exist.
func TestLiveServePassZeroAllocGRO(t *testing.T) {
	const batch = 64
	rig := newBatchRig(t, Config{
		RatePerClient: 1e9,
		QueueWait:     metrics.NewLatencyHistogram(),
		Clock:         ClockFunc(func() (int64, error) { return 42, nil }),
	})
	c := newGSOClientOn(t, rig.conn, SealedRequestSize)
	replies := transport.NewBatch(recvSlots, SealedResponseSize+1)
	deadline := time.Now().Add(time.Minute)
	rig.conn.SetReadDeadline(deadline)
	rig.srv.conns[0].SetReadDeadline(deadline)
	run := func() {
		for i := 0; i < batch; i++ {
			rig.seq++
			wire.TimeRequest{ClientID: uint64(i % 16), Seq: rig.seq}.MarshalInto(rig.plain[:])
			c.out.Set(i, len(rig.sealer.SealDatagramAppend(c.out.Buffer(i), rig.plain[:])), transport.Sockaddr{})
		}
		c.send(t, batch)
		for got := 0; got < batch; {
			n, err := rig.r.conn.RecvBatch(rig.r.in)
			if err != nil {
				t.Fatalf("server receive after %d: %v", got, err)
			}
			rig.srv.serveBatch(rig.r, n)
			got += n
		}
		for got := 0; got < batch; {
			n, err := c.bc.RecvBatch(replies)
			if err != nil {
				t.Fatalf("client receive after %d: %v", got, err)
			}
			got += n
		}
	}
	run() // warm: the GRO buffers, and each client's token bucket
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("steady-state GRO serving pass allocated %.1f times per run", allocs)
	}
	if cs := rig.srv.Counters(); cs.Served != 102*batch || cs.Batches != 102 || cs.SendErrors != 0 {
		t.Fatalf("after 102 bursts of %d: %s sendErrors=%d", batch, cs.Summary(), cs.SendErrors)
	}
}
