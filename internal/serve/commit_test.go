package serve

import (
	"crypto/sha256"
	"sync/atomic"
	"testing"
	"time"

	"triadtime/internal/commit"
	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
	"triadtime/internal/wire"
)

// newCommitVault opens an in-memory vault for serve tests, with a
// deterministic nonce source so simulated runs stay reproducible.
func newCommitVault(t testing.TB, clk commit.Clock) *commit.Vault {
	t.Helper()
	v, err := commit.Open(commit.Config{
		Clock: clk,
		Key:   []byte("serve-commit-key-0123456789abcde"),
		Rand: func(b []byte) (int, error) {
			for i := range b {
				b[i] = byte(i * 7)
			}
			return len(b), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCommitDispatchThroughDrain drives the full lock → early-unlock →
// ripe-unlock cycle through the engine's shard queues and batch drain,
// mixed with a timestamp request in the same batch.
func TestCommitDispatchThroughDrain(t *testing.T) {
	clk := &fixedClock{nanos: 10e9}
	s, err := New[int](Config{Shards: 1, Clock: clk, Vault: newCommitVault(t, clk)})
	if err != nil {
		t.Fatal(err)
	}

	submitCommit := func(req wire.CommitRequest) {
		t.Helper()
		if resp, decided := s.SubmitCommit(0, req, int(req.Seq)); decided {
			t.Fatalf("commit seq %d decided at admission: %+v", req.Seq, resp)
		}
	}
	drainOne := func() Delivery[int] {
		t.Helper()
		out := drainAll(s, 0)
		if len(out) != 1 || !out[0].IsCommit {
			t.Fatalf("deliveries %+v, want one commit", out)
		}
		return out[0]
	}

	hash := sha256.Sum256([]byte("the committed document"))
	unlockAt := int64(10e9) + int64(time.Second)
	submitCommit(wire.CommitRequest{Kind: wire.KindCommitLock, ClientID: 7, Seq: 1, Hash: hash, UnlockNanos: unlockAt})
	// A stamp request rides in the same batch: the families share the
	// queue but answer on their own wire formats.
	s.Submit(0, wire.TimeRequest{ClientID: 7, Seq: 100}, 100)
	out := drainAll(s, 0)
	if len(out) != 2 {
		t.Fatalf("%d deliveries, want 2", len(out))
	}
	var lock *Delivery[int]
	for i := range out {
		if out[i].IsCommit {
			lock = &out[i]
		} else if out[i].Resp.Status != wire.StatusOK || out[i].Resp.Nanos != 10e9 {
			t.Fatalf("stamp response in mixed batch: %+v", out[i].Resp)
		}
	}
	if lock == nil {
		t.Fatalf("no commit delivery in %+v", out)
	}
	if lock.Commit.Verdict != wire.CommitOK || lock.Commit.Kind != wire.KindCommitLock {
		t.Fatalf("lock answer %+v", lock.Commit)
	}
	if lock.Commit.Nanos != 10e9 || lock.Commit.UnlockNanos != unlockAt || lock.Commit.Epoch != 1 {
		t.Fatalf("lock answer fields %+v", lock.Commit)
	}
	token := lock.Commit.Token

	// Too early: sealed, echoing the token's unlock time.
	submitCommit(wire.CommitRequest{Kind: wire.KindCommitUnlock, ClientID: 7, Seq: 2, Token: token})
	if d := drainOne(); d.Commit.Verdict != wire.CommitSealed || d.Commit.UnlockNanos != unlockAt {
		t.Fatalf("early unlock %+v", d.Commit)
	}

	// Past the unlock time: status and unlock both vouch.
	clk.nanos = unlockAt + int64(time.Millisecond)
	submitCommit(wire.CommitRequest{Kind: wire.KindCommitStatus, ClientID: 7, Seq: 3, Token: token})
	if d := drainOne(); d.Commit.Verdict != wire.CommitOK || d.Commit.Kind != wire.KindCommitStatus {
		t.Fatalf("ripe status %+v", d.Commit)
	}
	submitCommit(wire.CommitRequest{Kind: wire.KindCommitUnlock, ClientID: 7, Seq: 4, Token: token})
	if d := drainOne(); d.Commit.Verdict != wire.CommitOK || d.Commit.Nanos != clk.nanos {
		t.Fatalf("ripe unlock %+v", d.Commit)
	}

	c := s.Counters()
	if c.Served != 5 || c.Unavailable != 0 || c.Shed() != 0 {
		t.Fatalf("counters: %s", c.Summary())
	}
}

// TestSubmitCommitWithoutVault: an endpoint with no vault answers every
// commit request CommitUnavailable immediately, without queueing.
func TestSubmitCommitWithoutVault(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 1})
	req := wire.CommitRequest{Kind: wire.KindCommitUnlock, ClientID: 3, Seq: 9}
	resp, decided := s.SubmitCommit(0, req, 0)
	if !decided {
		t.Fatal("vault-less commit request queued")
	}
	if resp.Verdict != wire.CommitUnavailable || resp.Kind != req.Kind || resp.ClientID != 3 || resp.Seq != 9 {
		t.Fatalf("vault-less answer %+v", resp)
	}
	c := s.Counters()
	if c.Unavailable != 1 || c.Queued != 0 {
		t.Fatalf("counters: %s", c.Summary())
	}
}

// TestCommitSharesAdmissionWithStamps: the two request families draw
// from the same per-client token bucket, so switching families does not
// dodge the rate limit.
func TestCommitSharesAdmissionWithStamps(t *testing.T) {
	clk := &fixedClock{nanos: 1e9}
	s, err := New[int](Config{Shards: 1, Clock: clk, Vault: newCommitVault(t, clk), RatePerClient: 1, RateBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, shed := s.Submit(0, wire.TimeRequest{ClientID: 5, Seq: uint64(i)}, 0); shed {
			t.Fatalf("burst stamp %d shed", i)
		}
	}
	resp, decided := s.SubmitCommit(0, wire.CommitRequest{Kind: wire.KindCommitStatus, ClientID: 5, Seq: 2}, 0)
	if !decided || resp.Verdict != wire.CommitOverloaded {
		t.Fatalf("over-budget commit: decided=%v %+v", decided, resp)
	}
	// An unrelated client's commit op is admitted.
	if _, decided := s.SubmitCommit(0, wire.CommitRequest{Kind: wire.KindCommitStatus, ClientID: 6, Seq: 0}, 0); decided {
		t.Fatal("independent client's commit op shed")
	}
	if got := s.Counters().ShedRateLimited; got != 1 {
		t.Fatalf("ShedRateLimited=%d, want 1", got)
	}
}

// simCommitClient drives commit operations over the simulated network,
// demultiplexing responses by plaintext length exactly like real
// clients must.
type simCommitClient struct {
	t      *testing.T
	net    *simnet.Network
	addr   simnet.Addr
	server simnet.Addr
	sealer *wire.Sealer
	opener *wire.Opener

	token    [wire.CommitTokenSize]byte
	verdicts []wire.CommitVerdict
	stamps   int
}

func (c *simCommitClient) sendLock(seq uint64, hash [32]byte, unlock int64) {
	c.sendCommit(wire.CommitRequest{Kind: wire.KindCommitLock, ClientID: uint64(c.addr), Seq: seq, Hash: hash, UnlockNanos: unlock})
}

func (c *simCommitClient) sendUnlock(seq uint64) {
	c.sendCommit(wire.CommitRequest{Kind: wire.KindCommitUnlock, ClientID: uint64(c.addr), Seq: seq, Token: c.token})
}

func (c *simCommitClient) sendCommit(req wire.CommitRequest) {
	var plain [wire.CommitRequestSize]byte
	req.MarshalInto(plain[:])
	c.net.Send(c.addr, c.server, c.sealer.SealDatagramAppend(nil, plain[:]))
}

func (c *simCommitClient) sendStamp(seq uint64) {
	var plain [wire.TimeRequestSize]byte
	wire.TimeRequest{ClientID: uint64(c.addr), Seq: seq}.MarshalInto(plain[:])
	c.net.Send(c.addr, c.server, c.sealer.SealDatagramAppend(nil, plain[:]))
}

func (c *simCommitClient) handle(pkt simnet.Packet) {
	plain, _, err := c.opener.OpenDatagramInto(nil, pkt.Payload)
	if err != nil {
		c.t.Fatalf("client %d: bad response datagram: %v", c.addr, err)
	}
	switch len(plain) {
	case wire.TimeResponseSize:
		c.stamps++
	case wire.CommitResponseSize:
		resp, err := wire.UnmarshalCommitResponse(plain)
		if err != nil {
			c.t.Fatalf("client %d: bad commit response: %v", c.addr, err)
		}
		if resp.Kind == wire.KindCommitLock && resp.Verdict == wire.CommitOK {
			c.token = resp.Token
		}
		c.verdicts = append(c.verdicts, resp.Verdict)
	default:
		c.t.Fatalf("client %d: response plaintext of %d bytes", c.addr, len(plain))
	}
}

// TestSimBindingCommitRoundtrip runs the lock → early-unlock →
// ripe-unlock cycle over the simulated network, interleaved with stamp
// traffic on the same endpoint.
func TestSimBindingCommitRoundtrip(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(7)
	snet := simnet.New(sched, rng, simnet.Link{Base: 100 * time.Microsecond})
	key := []byte("serve-client-key-0123456789abcde")

	clock := ClockFunc(func() (int64, error) { return int64(sched.Now()), nil })
	b, err := NewSimBinding(sched, snet, SimConfig{
		Addr: 150,
		Key:  key,
		Tick: time.Millisecond,
		Server: Config{
			Shards: 2,
			Clock:  clock,
			Vault:  newCommitVault(t, clock),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()

	sealer, err := wire.NewSealer(key, 9)
	if err != nil {
		t.Fatal(err)
	}
	opener, err := wire.NewOpener(key)
	if err != nil {
		t.Fatal(err)
	}
	c := &simCommitClient{t: t, net: snet, addr: 9, server: b.Addr(), sealer: sealer, opener: opener}
	snet.Register(c.addr, c.handle)

	hash := sha256.Sum256([]byte("sim-sealed"))
	unlock := int64(simtime.FromDuration(200 * time.Millisecond))
	sched.At(simtime.FromDuration(1*time.Millisecond), func() { c.sendLock(1, hash, unlock) })
	sched.At(simtime.FromDuration(10*time.Millisecond), func() { c.sendUnlock(2) }) // too early
	sched.At(simtime.FromDuration(15*time.Millisecond), func() { c.sendStamp(3) })
	sched.At(simtime.FromDuration(300*time.Millisecond), func() { c.sendUnlock(4) }) // ripe
	sched.RunUntil(simtime.FromSeconds(1))

	want := []wire.CommitVerdict{wire.CommitOK, wire.CommitSealed, wire.CommitOK}
	if len(c.verdicts) != len(want) {
		t.Fatalf("verdicts %v, want %v", c.verdicts, want)
	}
	for i := range want {
		if c.verdicts[i] != want[i] {
			t.Fatalf("verdict %d = %v, want %v", i, c.verdicts[i], want[i])
		}
	}
	if c.stamps != 1 {
		t.Fatalf("%d stamp responses, want 1", c.stamps)
	}
	if counters := b.Server().Counters(); counters.Served != 4 || counters.Shed() != 0 {
		t.Fatalf("server counters: %s", counters.Summary())
	}
}

// TestLiveServerCommitRoundtrip exercises the commit family over real
// UDP through the batched serving path: lock, refused early unlock,
// granted unlock after the clock passes the lock time.
func TestLiveServerCommitRoundtrip(t *testing.T) {
	key := liveTestKey()
	var nanos atomic.Int64
	nanos.Store(int64(time.Hour))
	clock := ClockFunc(func() (int64, error) { return nanos.Load(), nil })
	srv, err := NewLiveServer(LiveConfig{
		Conn:     listenUDP(t),
		Key:      key,
		SenderID: 150,
		Server: Config{
			Clock: clock,
			Vault: newCommitVault(t, clock),
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
	roundtrip := func(req wire.CommitRequest) wire.CommitResponse {
		t.Helper()
		var plain [wire.CommitRequestSize]byte
		req.MarshalInto(plain[:])
		if _, err := client.WriteTo(sealer.SealDatagramAppend(nil, plain[:]), srv.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 2048)
		n, _, err := client.ReadFrom(buf)
		if err != nil {
			t.Fatalf("no commit response: %v", err)
		}
		pt, _, err := opener.OpenDatagramInto(nil, buf[:n])
		if err != nil {
			t.Fatalf("bad response datagram: %v", err)
		}
		resp, err := wire.UnmarshalCommitResponse(pt)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ClientID != req.ClientID || resp.Seq != req.Seq || resp.Kind != req.Kind {
			t.Fatalf("response %+v does not match request %+v", resp, req)
		}
		return resp
	}

	hash := sha256.Sum256([]byte("live-sealed"))
	unlock := nanos.Load() + int64(time.Second)
	lock := roundtrip(wire.CommitRequest{Kind: wire.KindCommitLock, ClientID: 9001, Seq: 1, Hash: hash, UnlockNanos: unlock})
	if lock.Verdict != wire.CommitOK || lock.Epoch != 1 || lock.UnlockNanos != unlock {
		t.Fatalf("lock %+v", lock)
	}
	early := roundtrip(wire.CommitRequest{Kind: wire.KindCommitUnlock, ClientID: 9001, Seq: 2, Token: lock.Token})
	if early.Verdict != wire.CommitSealed {
		t.Fatalf("early unlock %+v", early)
	}
	nanos.Store(unlock + int64(time.Millisecond))
	ripe := roundtrip(wire.CommitRequest{Kind: wire.KindCommitUnlock, ClientID: 9001, Seq: 3, Token: lock.Token})
	if ripe.Verdict != wire.CommitOK || ripe.Nanos < unlock {
		t.Fatalf("ripe unlock %+v", ripe)
	}
	status := roundtrip(wire.CommitRequest{Kind: wire.KindCommitStatus, ClientID: 9001, Seq: 4, Token: lock.Token})
	if status.Verdict != wire.CommitOK {
		t.Fatalf("status %+v", status)
	}
	if c := srv.Counters(); c.Served != 4 || c.OversizeDrops != 0 || c.SendErrors != 0 {
		t.Fatalf("counters: %s", c.Summary())
	}
}

// TestLiveServerVaultlessDropsCommitSized: without a vault the receive
// buffers stay stamp-sized and a commit-sized datagram is an oversize
// drop — it never reaches authentication, and stamp traffic still
// flows.
func TestLiveServerVaultlessDropsCommitSized(t *testing.T) {
	key := liveTestKey()
	srv, err := NewLiveServer(LiveConfig{
		Conn:     listenUDP(t),
		Key:      key,
		SenderID: 150,
		Server: Config{
			Clock: ClockFunc(func() (int64, error) { return 424242, nil }),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := listenUDP(t)
	defer client.Close()
	sealer, err := wire.NewSealer(key, 42)
	if err != nil {
		t.Fatal(err)
	}
	var creq [wire.CommitRequestSize]byte
	wire.CommitRequest{Kind: wire.KindCommitStatus, ClientID: 42, Seq: 1}.MarshalInto(creq[:])
	if _, err := client.WriteTo(sealer.SealDatagramAppend(nil, creq[:]), srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	// A stamp request behind it is still answered; by the time that
	// response arrives, the commit datagram has been counted.
	var sreq [wire.TimeRequestSize]byte
	wire.TimeRequest{ClientID: 42, Seq: 2}.MarshalInto(sreq[:])
	if _, err := client.WriteTo(sealer.SealDatagramAppend(nil, sreq[:]), srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	if _, _, err := client.ReadFrom(buf); err != nil {
		t.Fatalf("stamp response: %v", err)
	}
	if c := srv.Counters(); c.OversizeDrops != 1 || c.Received != 1 {
		t.Fatalf("counters: oversize=%d received=%d, want 1/1", c.OversizeDrops, c.Received)
	}
}
