package serve

import (
	"crypto/sha256"
	"net"
	"testing"
	"time"

	"triadtime/internal/authority"
	"triadtime/internal/commit"
	"triadtime/internal/core"
	"triadtime/internal/engine"
	"triadtime/internal/metrics"
	"triadtime/internal/simnet"
	"triadtime/internal/transport"
	"triadtime/internal/wire"
	"triadtime/tsa"
)

// liveTriadClock runs one Triad node on the live transport against a
// loopback Time Authority, on a shortened calibration ladder, and
// returns its off-loop clock once it serves — the clock a live node's
// client endpoint, stamper and vault read.
func liveTriadClock(t testing.TB) engine.SharedClock {
	t.Helper()
	listen := func() net.PacketConn {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	key := make([]byte, wire.KeySize)
	ta, err := authority.NewServer(listen(), key, 100)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ta.Serve() }()
	t.Cleanup(func() { ta.Close() })
	p, err := transport.New(transport.Config{
		Conn:      listen(),
		Directory: map[simnet.Addr]string{100: ta.LocalAddr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	var node *engine.Node
	p.Do(func() {
		node, err = core.NewNode(p, core.Config{
			Config:               engine.Config{Key: key, Addr: 1, Authority: 100},
			CalibSleeps:          []time.Duration{0, 50 * time.Millisecond},
			CalibSamplesPerSleep: 2,
		})
		if err == nil {
			node.Start()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := node.SharedClock()
	for deadline := time.Now().Add(20 * time.Second); clock.State() != engine.StateOK; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node never calibrated (state %v)", clock.State())
		}
	}
	return clock
}

// opsMixRig is a live endpoint with a stamper and a vault, all three
// reading a live Triad node's clock, and a pass that fills its receive
// batch with the ops_mixed workload's request kinds: token stamps,
// commit locks, ripe and unripe unlocks and status queries, one in five
// each.
type opsMixRig struct {
	*batchRig
	vault       *commit.Vault
	hash        [wire.StampHashSize]byte
	ripe, early commit.Token
	lockUntil   int64
}

const opsMixBatch = 60

func newOpsMixRig(t testing.TB) *opsMixRig {
	t.Helper()
	if testing.Short() {
		t.Skip("wall-clock bound: calibrates a live node")
	}
	if !transport.BatchSyscalls {
		t.Skip("fallback transport: per-datagram WriteToUDP may allocate in the runtime")
	}
	clock := liveTriadClock(t)
	key := []byte("serve-opsmix-key-0123456789abcde")
	stamper, err := tsa.New(clock, key)
	if err != nil {
		t.Fatal(err)
	}
	rig := &opsMixRig{hash: sha256.Sum256([]byte("ops-mixed document"))}
	rig.vault, err = commit.Open(commit.Config{
		Clock: clock,
		Vouch: func() bool { return clock.State() == engine.StateOK },
		Key:   key,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.batchRig = newBatchRig(t, Config{
		RatePerClient: 1e9,
		QueueWait:     metrics.NewLatencyHistogram(),
		Clock:         clock,
		Stamper:       stamper,
		Vault:         rig.vault,
	})
	now, err := clock.TrustedNow()
	if err != nil {
		t.Fatal(err)
	}
	var ok, early commit.Verdict
	rig.ripe, ok = rig.vault.Lock(rig.hash, now+int64(time.Millisecond), 0)
	rig.early, early = rig.vault.Lock(rig.hash, now+int64(time.Hour), 0)
	if ok != commit.OK || early != commit.OK {
		t.Fatalf("locks: %v %v", ok, early)
	}
	time.Sleep(2 * time.Millisecond)
	rig.lockUntil = now + int64(2*time.Hour)
	return rig
}

// pass serves one received batch of opsMixBatch requests.
func (rig *opsMixRig) pass() {
	for i := 0; i < opsMixBatch; i++ {
		rig.seq++
		id := uint64(i % 12)
		plain := rig.cplain[:]
		switch i % 5 {
		case 0:
			wire.TimeRequest{ClientID: id, Seq: rig.seq, Flags: wire.FlagWantToken, Hash: rig.hash}.MarshalInto(rig.plain[:])
			plain = rig.plain[:]
		case 1:
			wire.CommitRequest{Kind: wire.KindCommitLock, ClientID: id, Seq: rig.seq, Hash: rig.hash, UnlockNanos: rig.lockUntil}.MarshalInto(plain)
		default:
			req := wire.CommitRequest{Kind: wire.KindCommitUnlock, ClientID: id, Seq: rig.seq}
			tok := rig.ripe
			switch i % 5 {
			case 3:
				tok = rig.early
			case 4:
				req.Kind = wire.KindCommitStatus
			}
			tok.MarshalInto(req.Token[:])
			req.MarshalInto(plain)
		}
		sealed := rig.sealer.SealDatagramAppend(rig.r.in.Buffer(i), plain)
		rig.r.in.Set(i, len(sealed), rig.from)
	}
	rig.srv.serveBatch(rig.r, opsMixBatch)
}

// TestLiveServePassZeroAllocOpsMixed is the zero-allocation gate for
// the mixed-operations shape: the whole serving pass — stamps with
// tokens, commit decisions, every clock read through the live node's
// snapshot — allocates nothing once the endpoint exists.
func TestLiveServePassZeroAllocOpsMixed(t *testing.T) {
	rig := newOpsMixRig(t)
	rig.pass() // warm: first sight of each client allocates its token bucket
	if allocs := testing.AllocsPerRun(50, rig.pass); allocs != 0 {
		t.Fatalf("mixed-operations serving pass allocated %.1f times per run", allocs)
	}
	c, vc := rig.srv.Counters(), rig.vault.Counters()
	const passes, each = 52, opsMixBatch / 5
	if c.TokensIssued != passes*each || vc.LocksIssued != passes*each+2 || vc.UnlocksGranted != passes*each ||
		vc.UnlocksRefusedEarly != passes*each || vc.StatusQueries != passes*each || c.SendErrors != 0 {
		t.Fatalf("after %d passes: %s sendErrors=%d vault=%+v", passes, c.Summary(), c.SendErrors, vc)
	}
}

// TestLiveServeStampRepliesLeadEachPass: a drain pass sends its stamp
// replies before its commit replies — time order, since every commit
// decision reads the clock after the pass's one read — so the client
// sees every 143 B reply of a one-pass batch ahead of every 175 B one.
func TestLiveServeStampRepliesLeadEachPass(t *testing.T) {
	rig := newOpsMixRig(t)
	rig.pass()
	buf := make([]byte, 512)
	read := func(d time.Duration) (int, error) {
		rig.conn.SetReadDeadline(time.Now().Add(d))
		return rig.conn.Read(buf)
	}
	for { // the warm-up pass's replies
		if _, err := read(50 * time.Millisecond); err != nil {
			break
		}
	}
	rig.pass()
	stamps := 0
	for i := 0; i < opsMixBatch; i++ {
		n, err := read(5 * time.Second)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		switch n {
		case SealedResponseSize:
			if stamps != i {
				t.Fatalf("stamp reply %d arrived after a commit reply", i)
			}
			stamps++
		case SealedCommitResponseSize:
		default:
			t.Fatalf("reply %d: %d bytes", i, n)
		}
	}
	if stamps != opsMixBatch/5 {
		t.Fatalf("%d stamp replies, want %d", stamps, opsMixBatch/5)
	}
}

// BenchmarkLiveServePassOpsMixed times the mixed-operations pass, per
// request: open, admit, drain, decide, seal and one sendmmsg.
func BenchmarkLiveServePassOpsMixed(b *testing.B) {
	rig := newOpsMixRig(b)
	rig.pass()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		rig.pass()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*opsMixBatch), "ns/req")
}
