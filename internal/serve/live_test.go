package serve

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"triadtime/internal/transport"
	"triadtime/internal/wire"
)

func liveTestKey() []byte {
	key := make([]byte, wire.KeySize)
	for i := range key {
		key[i] = byte(i * 3)
	}
	return key
}

func listenUDP(t *testing.T) net.PacketConn {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return conn
}

func TestLiveServerRoundtrip(t *testing.T) {
	key := liveTestKey()
	srv, err := NewLiveServer(LiveConfig{
		Conn:     listenUDP(t),
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

	client := listenUDP(t)
	defer client.Close()
	sealer, err := wire.NewSealer(key, 9001)
	if err != nil {
		t.Fatal(err)
	}
	opener, err := wire.NewOpener(key)
	if err != nil {
		t.Fatal(err)
	}

	const reqs = 20
	var plain [wire.TimeRequestSize]byte
	for i := 0; i < reqs; i++ {
		wire.TimeRequest{ClientID: 9001, Seq: uint64(i)}.MarshalInto(plain[:])
		if _, err := client.WriteTo(sealer.SealDatagramAppend(nil, plain[:]), srv.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}

	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := map[uint64]bool{}
	buf := make([]byte, 2048)
	for len(got) < reqs {
		n, _, err := client.ReadFrom(buf)
		if err != nil {
			t.Fatalf("after %d/%d responses: %v", len(got), reqs, err)
		}
		pt, sender, err := opener.OpenDatagramInto(nil, buf[:n])
		if err != nil {
			t.Fatalf("bad response datagram: %v", err)
		}
		// Each receive goroutine seals under its own identity from the
		// base-anchored range.
		idents := uint32(srv.Sockets())
		if sender < 150 || sender >= 150+idents {
			t.Fatalf("response sender %d outside identity range [150,%d)", sender, 150+idents)
		}
		resp, err := wire.UnmarshalTimeResponse(pt)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusOK || resp.Nanos != 1234567890 || resp.ClientID != 9001 {
			t.Fatalf("bad response: %+v", resp)
		}
		got[resp.Seq] = true
	}
	c := srv.Server().Counters()
	if c.Served != reqs || c.Shed() != 0 {
		t.Fatalf("counters: %s", c.Summary())
	}
}

// loadFlow is one closed-loop client flow for the contract tests: a
// sender that keeps at most flowWindow requests unanswered (so no socket
// buffer overflows and every reply the server sends is read) and a
// reader that checks every reply as it arrives.
type loadFlow struct {
	*liveClient
	sent, got atomic.Uint64

	// Reader-goroutine state, read by the test after the reader exits.
	seen      map[uint64]bool
	lastNanos int64
	senders   map[uint32]bool
}

const flowWindow = 32

// startFlows dials n flows with the given client IDs and starts their
// goroutines. stop ends the senders (join with senders.Wait); the
// readers run until done closes (join with readers.Wait). A reply that
// answers a sequence number twice, or carries an earlier trusted time
// than a reply this flow already received, fails the test.
func startFlows(t *testing.T, key []byte, addr net.Addr, ids []uint64, stop, done chan struct{}) (flows []*loadFlow, senders, readers *sync.WaitGroup) {
	t.Helper()
	senders, readers = new(sync.WaitGroup), new(sync.WaitGroup)
	for _, id := range ids {
		f := &loadFlow{
			liveClient: dialLiveClient(t, key, addr, id),
			seen:       map[uint64]bool{},
			senders:    map[uint32]bool{},
		}
		flows = append(flows, f)
		senders.Add(1)
		go func() {
			defer senders.Done()
			for seq := uint64(0); ; {
				select {
				case <-stop:
					return
				default:
				}
				if f.sent.Load()-f.got.Load() >= flowWindow {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				if err := f.send(seq); err != nil {
					// A closed endpoint's port answers ICMP unreachable,
					// which a connected socket reports on its next call.
					time.Sleep(50 * time.Microsecond)
					continue
				}
				seq++
				f.sent.Add(1)
			}
		}()
		readers.Add(1)
		go func() {
			defer readers.Done()
			buf := make([]byte, SealedResponseSize+1)
			for {
				select {
				case <-done:
					return
				default:
				}
				f.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
				n, err := f.conn.Read(buf)
				if errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, syscall.ECONNREFUSED) {
					continue
				}
				if err != nil {
					t.Errorf("flow %d read: %v", f.id, err)
					return
				}
				pt, sender, err := f.opener.OpenDatagramInto(nil, buf[:n])
				if err != nil {
					t.Errorf("flow %d: bad reply datagram: %v", f.id, err)
					continue
				}
				resp, err := wire.UnmarshalTimeResponse(pt)
				if err != nil || resp.ClientID != f.id {
					t.Errorf("flow %d: bad reply %+v: %v", f.id, resp, err)
					continue
				}
				if f.seen[resp.Seq] {
					t.Errorf("flow %d: seq %d answered twice", f.id, resp.Seq)
				}
				f.seen[resp.Seq] = true
				if resp.Status == wire.StatusOK {
					if resp.Nanos < f.lastNanos {
						t.Errorf("flow %d: trusted time went back: %d after %d", f.id, resp.Nanos, f.lastNanos)
					}
					f.lastNanos = resp.Nanos
				}
				f.senders[sender] = true
				f.got.Add(1)
			}
		}()
	}
	return flows, senders, readers
}

// tickingClock is a strictly increasing trusted clock that refuses
// every failEvery-th read (0: never).
func tickingClock(failEvery int64) ClockFunc {
	var reads atomic.Int64
	return func() (int64, error) {
		n := reads.Add(1)
		if failEvery > 0 && n%failEvery == 0 {
			return 0, errors.New("test clock: tainted")
		}
		return n, nil
	}
}

// TestLiveServerCloseAnswersAdmitted is the Close contract as a
// property: whatever the moment Close lands in a stream of concurrent
// requests, every datagram the engine counted as received has been
// answered exactly once — served, unavailable or explicitly shed — on a
// socket that was still open, and every serving goroutine is gone.
func TestLiveServerCloseAnswersAdmitted(t *testing.T) {
	rounds := 9
	if testing.Short() {
		rounds = 3
	}
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < rounds; round++ {
		sockets := 1
		if transport.ReusePortSockets {
			sockets = 1 + rng.Intn(3)
		}
		after := time.Duration(rng.Intn(12_000)) * time.Microsecond
		cfg := Config{Clock: tickingClock(0)}
		switch round % 3 {
		case 1: // a queue smaller than one burst, a clock that sometimes refuses
			cfg.QueueDepth = 4
			cfg.Clock = tickingClock(5)
		case 2: // a rate limit the flows exceed
			cfg.RatePerClient = 5000
			cfg.RateBurst = 8
		}
		closeRound(t, sockets, cfg, after)
	}
}

func closeRound(t *testing.T, sockets int, cfg Config, after time.Duration) {
	t.Helper()
	key := liveTestKey()
	baseline := runtime.NumGoroutine()
	srv, err := NewLiveServer(LiveConfig{
		Listen:   "127.0.0.1:0",
		Sockets:  sockets,
		Key:      key,
		SenderID: 150,
		Server:   cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	flows, senders, readers := startFlows(t, key, srv.LocalAddr(), []uint64{1, 2, 3, 4, 5, 6}, stop, done)

	time.Sleep(after)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close has returned: the tallies are final and every reply is in a
	// client's socket buffer already.
	c := srv.Counters()
	close(stop)
	senders.Wait()
	answered := c.Served + c.Unavailable + c.Shed()
	if c.Received != answered {
		t.Errorf("received %d but answered %d: %s", c.Received, answered, c.Summary())
	}
	if c.SendErrors != 0 {
		t.Errorf("%d replies hit a closed or failing socket", c.SendErrors)
	}
	replies := func() (n uint64) {
		for _, f := range flows {
			n += f.got.Load()
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); replies() < answered && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(done)
	readers.Wait()
	if got := replies(); got != answered {
		t.Errorf("sockets=%d close after %v: clients read %d replies, server answered %d: %s", sockets, after, got, answered, c.Summary())
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	for _, f := range flows {
		f.conn.Close()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLiveServerMonotonicAcrossSockets: two reuseport sockets whose
// clients all hash onto one shard, so either receive goroutine may
// drain what the other admitted. Under a strictly increasing clock no
// flow may see trusted time step back in arrival order, and no request
// may be answered twice (startFlows checks both on every reply).
func TestLiveServerMonotonicAcrossSockets(t *testing.T) {
	if !transport.ReusePortSockets {
		t.Skip("needs a reuseport group")
	}
	key := liveTestKey()
	srv, err := NewLiveServer(LiveConfig{
		Listen:   "127.0.0.1:0",
		Sockets:  2,
		Key:      key,
		SenderID: 150,
		Server:   Config{Clock: tickingClock(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var ids []uint64
	for id := uint64(1); len(ids) < 24; id++ {
		if srv.Server().ShardOf(id) == 0 {
			ids = append(ids, id)
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	flows, senders, readers := startFlows(t, key, srv.LocalAddr(), ids, stop, done)
	time.Sleep(150 * time.Millisecond)
	close(stop)
	senders.Wait()
	time.Sleep(20 * time.Millisecond) // let the last replies land
	close(done)
	readers.Wait()

	identities := map[uint32]bool{}
	var replies uint64
	for _, f := range flows {
		replies += f.got.Load()
		for id := range f.senders {
			identities[id] = true
		}
	}
	if !identities[150] || !identities[151] || len(identities) != 2 {
		t.Fatalf("replies sealed under %v, want both of the endpoint's identities 150 and 151", identities)
	}
	if c := srv.Counters(); replies != c.Served || c.Shed() != 0 || c.SendErrors != 0 {
		t.Fatalf("clients read %d replies: %s sendErrors=%d", replies, c.Summary(), c.SendErrors)
	}
}
