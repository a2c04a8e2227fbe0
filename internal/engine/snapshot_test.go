package engine

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"triadtime/internal/simnet"
	"triadtime/internal/transport"
	"triadtime/internal/wire"
)

// taintPolicy taints on AEX, as both protocol variants do, and
// recovers only when the test re-anchors the node by hand. inHandler,
// when set, runs on the loop as the AEX handler starts.
type taintPolicy struct {
	nopPolicy
	inHandler func(*Engine)
}

func (p *taintPolicy) OnTaint(e *Engine) {
	if p.inHandler != nil {
		p.inHandler(e)
	}
	e.SetState(StateTainted)
}

// liveEngine is one engine on the live transport, calibrated and
// serving, with a loopback socket standing in for its peer 2.
type liveEngine struct {
	p     *transport.Platform
	e     *Engine
	taint *taintPolicy
	peer  net.PacketConn
	key   []byte
}

const snapPeer = simnet.Addr(2)

func newLiveEngine(t *testing.T) *liveEngine {
	t.Helper()
	listen := func() net.PacketConn {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	le := &liveEngine{taint: &taintPolicy{}, peer: listen(), key: make([]byte, wire.KeySize)}
	t.Cleanup(func() { le.peer.Close() })
	var err error
	le.p, err = transport.New(transport.Config{
		Conn:      listen(),
		Directory: map[simnet.Addr]string{snapPeer: le.peer.LocalAddr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { le.p.Close() })
	le.p.Do(func() {
		le.e, err = New(le.p, Config{Key: le.key, Addr: 1, Authority: 100, Peers: []simnet.Addr{snapPeer}, DisableMonitor: true},
			Policies{Calibration: nopPolicy{}, Recovery: le.taint, Filter: AdoptIfAhead{}})
		if err == nil {
			le.e.CompleteCalibration(le.p.BootTSCHz(), 1e18, le.p.ReadTSC())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return le
}

// TestSharedClockConcurrentReaders: readers on four goroutines serve
// while the loop re-anchors backwards, taints and recovers, and answers
// peers. Each reader's timestamps strictly increase, and no timestamp
// is served twice across the readers and the peer answers — the one
// clamp holds across the loop and every reader.
func TestSharedClockConcurrentReaders(t *testing.T) {
	le := newLiveEngine(t)
	clock := le.e.Node().SharedClock()
	const readers, rounds = 4, 120

	stop := make(chan struct{})
	got := make([][]int64, readers)
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ts, err := clock.TrustedNow(); err == nil {
					got[r] = append(got[r], ts)
				}
				runtime.Gosched() // more readers than CPUs: let the loop run
			}
		}()
	}

	// The peer: ask the node for its time each round, collect answers.
	sealer, err := wire.NewSealer(le.key, uint32(snapPeer))
	if err != nil {
		t.Fatal(err)
	}
	opener, err := wire.NewOpener(le.key)
	if err != nil {
		t.Fatal(err)
	}
	var answers []int64
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		buf := make([]byte, 2048)
		for {
			le.peer.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			n, _, err := le.peer.ReadFrom(buf)
			if err != nil {
				return
			}
			msg, _, err := opener.OpenInto(nil, buf[:n])
			if err == nil && msg.Kind == wire.KindPeerTimeResponse {
				answers = append(answers, msg.TimeNanos)
			}
		}
	}()

	e := le.e
	for i := range rounds {
		req := sealer.SealAppend(nil, wire.Message{Kind: wire.KindPeerTimeRequest, Seq: uint64(i + 1)})
		switch i % 4 {
		case 0: // re-anchor 5 ms into the past
			le.p.Do(func() { e.AdoptTAReference(e.ClockNow()-5e6, le.p.ReadTSC()) })
		case 1: // shift the anchor back 3 ms
			le.p.Do(func() { e.ShiftReference(-3e6) })
		case 2: // taint, then recover on an earlier anchor
			le.p.InjectAEX()
			le.p.Do(func() {
				if e.state != StateTainted {
					t.Errorf("round %d: state %v after AEX", i, e.state)
				}
				e.AdoptTAReference(e.ClockNow()-2e6, le.p.ReadTSC())
			})
		}
		le.p.Do(func() { e.onDatagram(0, req) })
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	<-peerDone

	seen := map[int64]string{}
	for r, seq := range got {
		if len(seq) == 0 {
			t.Errorf("reader %d served nothing", r)
		}
		for k, ts := range seq {
			if k > 0 && ts <= seq[k-1] {
				t.Fatalf("reader %d: %d after %d", r, ts, seq[k-1])
			}
			if who, dup := seen[ts]; dup {
				t.Fatalf("%d served twice: reader %d and %s", ts, r, who)
			}
			seen[ts] = "a reader"
		}
	}
	if len(answers) < rounds/2 {
		t.Fatalf("only %d/%d peer answers", len(answers), rounds)
	}
	for _, ts := range answers {
		if who, dup := seen[ts]; dup {
			t.Fatalf("%d served twice: peer answer and %s", ts, who)
		}
		seen[ts] = "a peer answer"
	}
	var served uint64
	le.p.Do(func() { served = e.Node().Counters().Served })
	if served != uint64(len(seen)) {
		t.Errorf("Served counter %d, %d timestamps seen", served, len(seen))
	}
}

// TestSharedClockTaintVisibleBeforeLoop: once InjectAEX has returned,
// reads fail and the state reads Tainted even while the loop is held
// in a blocking Do and has not run the AEX handler yet — and while the
// handler runs, before it has moved the state.
func TestSharedClockTaintVisibleBeforeLoop(t *testing.T) {
	le := newLiveEngine(t)
	clock := le.e.Node().SharedClock()
	var inHandler error
	le.taint.inHandler = func(e *Engine) { _, inHandler = clock.TrustedNow() }
	if _, err := clock.TrustedNow(); err != nil || clock.State() != StateOK {
		t.Fatalf("calibrated node: err %v state %v", err, clock.State())
	}
	entered, release := make(chan struct{}), make(chan struct{})
	held := make(chan bool)
	go func() { held <- le.p.Do(func() { close(entered); <-release }) }()
	<-entered

	le.p.InjectAEX()
	if _, err := clock.TrustedNow(); err == nil {
		t.Error("read served with an AEX handed over")
	}
	if s := clock.State(); s == StateOK {
		t.Error("state OK with an AEX handed over")
	}
	if _, ok := clock.Reading(); ok {
		t.Error("status reading available with an AEX handed over")
	}
	close(release)
	<-held

	le.p.Do(func() {}) // the AEX handler has run
	if inHandler == nil {
		t.Error("read served inside the AEX handler, before it moved the state")
	}
	if _, err := clock.TrustedNow(); err == nil || clock.State() != StateTainted {
		t.Fatalf("after the handler: err %v state %v", err, clock.State())
	}
	e := le.e
	le.p.Do(func() { e.AdoptTAReference(e.ClockNow(), le.p.ReadTSC()) })
	if _, err := clock.TrustedNow(); err != nil || clock.State() != StateOK {
		t.Fatalf("after recovery: err %v state %v", err, clock.State())
	}
}

// TestSharedClockReadingDoesNotServe: a status reading moves neither
// the clamp nor the Served counter, and never reads below what was
// served.
func TestSharedClockReadingDoesNotServe(t *testing.T) {
	le := newLiveEngine(t)
	clock := le.e.Node().SharedClock()
	ts, err := clock.TrustedNow()
	if err != nil {
		t.Fatal(err)
	}
	e := le.e
	le.p.Do(func() { e.ShiftReference(-1e9) }) // the clock now reads a second behind ts
	for range 3 {
		if r, ok := clock.Reading(); !ok || r < ts {
			t.Fatalf("reading %d (ok %v) below served %d", r, ok, ts)
		}
	}
	if n := e.served.Load(); n != 1 {
		t.Fatalf("Served %d after one serve and three readings", n)
	}
	if next, err := clock.TrustedNow(); err != nil || next != ts+1 {
		t.Fatalf("next serve %d err %v, want %d", next, err, ts+1)
	}
}

// TestSharedClockSeesEveryMutation: every way the loop moves the anchor
// or the rate while the node serves reaches off-loop readers at once.
func TestSharedClockSeesEveryMutation(t *testing.T) {
	le := newLiveEngine(t)
	clock, e := le.e.Node().SharedClock(), le.e
	const hour = int64(time.Hour)
	jumps := []struct {
		what   string
		mutate func()
	}{
		{"CompleteCalibration", func() { e.CompleteCalibration(e.fCalib, e.ClockNow()+hour, le.p.ReadTSC()) }},
		{"AdoptTAReference", func() { e.AdoptTAReference(e.ClockNow()+hour, le.p.ReadTSC()) }},
		{"AdoptPeerReference", func() { e.AdoptPeerReference(uint32(snapPeer), e.ClockNow()+hour, le.p.ReadTSC(), hour) }},
		{"ShiftReference", func() { e.ShiftReference(hour) }},
	}
	for _, j := range jumps {
		before, _ := clock.Reading()
		le.p.Do(j.mutate)
		if after, ok := clock.Reading(); !ok || after < before+hour {
			t.Errorf("%s: reading %d (ok %v) after a one-hour jump from %d", j.what, after, ok, before)
		}
	}
	var f float64
	le.p.Do(func() { e.ScaleRate(2); f = e.fCalib })
	if got := clock.FCalib(); got != f {
		t.Errorf("ScaleRate: published rate %g, loop's %g", got, f)
	}
}
