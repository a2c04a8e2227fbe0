package transport

import (
	"math"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"triadtime/internal/authority"
	"triadtime/internal/core"
	enclavepkg "triadtime/internal/enclave"
	"triadtime/internal/engine"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
	"triadtime/internal/wire"
)

func testKey() []byte {
	key := make([]byte, wire.KeySize)
	for i := range key {
		key[i] = byte(i + 17)
	}
	return key
}

func listen(t *testing.T) net.PacketConn {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return conn
}

// aexCount reads the platform's AEX count on its loop.
func aexCount(p *Platform) int {
	n := 0
	p.Do(func() { n = p.AEXCount() })
	return n
}

func TestReadTSCAdvancesMonotonically(t *testing.T) {
	p, err := New(Config{Conn: listen(t), TSCHz: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a := p.ReadTSC()
	time.Sleep(20 * time.Millisecond)
	b := p.ReadTSC()
	gained := float64(b - a)
	if gained < 15e6 || gained > 200e6 {
		t.Errorf("TSC gained %v over ~20ms at 1GHz", gained)
	}
	if p.BootTSCHz() != 1e9 {
		t.Errorf("BootTSCHz = %v", p.BootTSCHz())
	}
}

func TestDefaultTSCHz(t *testing.T) {
	p, err := New(Config{Conn: listen(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.BootTSCHz() != simtime.NominalTSCHz {
		t.Errorf("default TSCHz = %v", p.BootTSCHz())
	}
}

func TestAfterTicksAndCancel(t *testing.T) {
	p, err := New(Config{Conn: listen(t), TSCHz: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	fired := make(chan struct{})
	p.Do(func() { p.AfterTicks(10e6, func() { close(fired) }) }) // 10ms
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	cancelled := false
	p.Do(func() {
		cancel := p.AfterTicks(5e6, func() { cancelled = true })
		cancel()
	})
	time.Sleep(30 * time.Millisecond)
	p.Do(func() {
		if cancelled {
			t.Error("cancelled timer fired")
		}
	})
}

// TestCancelBeatsQueuedTimer: a timer that expires while a handler is
// running is due behind it; if that handler cancels the timer, the
// function must still never run (a Gather or Round closed by the
// handler would otherwise be closed a second time).
func TestCancelBeatsQueuedTimer(t *testing.T) {
	p, err := New(Config{Conn: listen(t), TSCHz: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var fired atomic.Bool
	p.Do(func() {
		cancel := p.AfterTicks(1000, func() { fired.Store(true) }) // 1µs
		time.Sleep(20 * time.Millisecond)                          // expires, queues behind this callback
		cancel()
	})
	p.Do(func() {}) // the queued callback, if any, has run by now
	if fired.Load() {
		t.Error("timer cancelled by the running handler still fired")
	}
}

func TestInjectAEXAndCount(t *testing.T) {
	p, err := New(Config{Conn: listen(t), TSCHz: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	hits := make(chan struct{}, 10)
	p.Do(func() { p.SetAEXHandler(func() { hits <- struct{}{} }) })
	p.InjectAEX()
	p.InjectAEX()
	for i := 0; i < 2; i++ {
		select {
		case <-hits:
		case <-time.After(2 * time.Second):
			t.Fatal("AEX handler not invoked")
		}
	}
	if got := aexCount(p); got != 2 {
		t.Errorf("AEXCount = %d", got)
	}
}

func TestSyntheticAEXGenerator(t *testing.T) {
	p, err := New(Config{Conn: listen(t), TSCHz: 1e9, AEXPeriod: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	deadline := time.After(3 * time.Second)
	for aexCount(p) < 3 {
		select {
		case <-deadline:
			t.Fatal("generator produced too few AEXs")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// startMonitor starts a monitor judging windows of ticks on p's loop
// and returns the channel its discrepancy verdicts arrive on. A negative
// tolerance makes every window past the baseline deviate, so the
// seventh window concludes one: warm-up, four learning windows, two
// strikes.
func startMonitor(p *Platform, ticks uint64, enableMem bool) <-chan float64 {
	verdicts := make(chan float64, 16)
	p.Do(func() {
		enclavepkg.NewRateMonitor(p, enclavepkg.MonitorConfig{
			INCTicks:      ticks,
			INCTol:        -1,
			EnableMem:     enableMem,
			OnDiscrepancy: func(rel float64) { verdicts <- rel },
		}).Start()
	})
	return verdicts
}

func TestINCCheckLive(t *testing.T) {
	newPlatform := func() *Platform {
		p, err := New(Config{Conn: listen(t)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	// The modelled counts: the warm-up offset on the core's first
	// window, then the steady count.
	p := newPlatform()
	var first, second float64
	p.Do(func() {
		first, _ = p.windowCounts(15e6)
		second, _ = p.windowCounts(15e6)
	})
	if want := simtime.PaperINCPer15MTicks + enclavepkg.PaperINCModel().WarmupOffset; math.Abs(first-want) > 1 {
		t.Errorf("first count = %v, want %v", first, want)
	}
	if math.Abs(second-simtime.PaperINCPer15MTicks) > 1 {
		t.Errorf("steady count = %v", second)
	}
	// The loop, on a fresh core: 15e6 ticks at 2.9GHz ≈ 5.2ms of wall
	// time per window, each judged as it ends, so the seventh ends a
	// verdict. The loop's first window is the core's warm-up one: the
	// judge discards it, and the four that make the baseline and the two
	// deviating from it are steady, so they match it exactly.
	p = newPlatform()
	began := time.Now()
	verdicts := startMonitor(p, 15e6, false)
	select {
	case rel := <-verdicts:
		if rel != 0 {
			t.Errorf("steady windows deviate by %v from their baseline", rel)
		}
		if d := time.Since(began); d < 7*5*time.Millisecond {
			t.Errorf("seven windows judged in %v, want their wall time", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the monitor never judged seven windows")
	}
	var warm bool
	p.Do(func() { warm = p.warm })
	if !warm {
		t.Error("the loop's windows never took the core's warm-up one")
	}
}

// checkInterruptedByAEX: an AEX discards the monitoring window in
// flight and begins the next at once, as on the simulated platform,
// instead of the window running to its end first.
func checkInterruptedByAEX(t *testing.T, enableMem bool) {
	p, err := New(Config{Conn: listen(t), TSCHz: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	startMonitor(p, 3e6, enableMem) // 3s windows
	var due simtime.Instant
	p.Do(func() { due, _ = p.sched.NextAt() })
	time.Sleep(20 * time.Millisecond)
	p.InjectAEX()
	var now, next simtime.Instant
	p.Do(func() { now = p.now(); next, _ = p.sched.NextAt() })
	if next <= due || next < now.Add(3*time.Second-time.Millisecond) {
		t.Errorf("after an AEX at %v the window ends at %v, first due at %v; want a whole window from the AEX", now, next, due)
	}
}

func TestINCCheckInterruptedByAEX(t *testing.T) { checkInterruptedByAEX(t, false) }

func TestMemCheckInterruptedByAEX(t *testing.T) { checkInterruptedByAEX(t, true) }

// TestOverlappingWindowsPanic: one monitoring thread runs one monitor,
// on both platforms.
func TestOverlappingWindowsPanic(t *testing.T) {
	p, err := New(Config{Conn: listen(t), TSCHz: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	startMonitor(p, 1e6, true)
	panicked := false
	p.Do(func() {
		defer func() { panicked = recover() != nil }()
		enclavepkg.NewRateMonitor(p, enclavepkg.MonitorConfig{INCTicks: 1e6}).Start()
	})
	if !panicked {
		t.Error("a second monitor did not panic")
	}
}

// TestHandlerCallsSurviveFullQueue: Platform methods called on the loop
// act directly. A burst of datagrams that fills the loop's work queue
// while a handler runs must not block the handler's own StartMonitor,
// AfterTicks or SetMessageHandler, and Close must still return.
func TestHandlerCallsSurviveFullQueue(t *testing.T) {
	conn := listen(t)
	p, err := New(Config{Conn: conn, TSCHz: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	handler := func(simnet.Addr, []byte) {}
	p.Do(func() { p.SetMessageHandler(handler) })
	sender := listen(t)
	defer sender.Close()

	returned := make(chan struct{})
	go p.Do(func() {
		defer close(returned)
		for i := 0; i < 400; i++ {
			_, _ = sender.WriteTo([]byte("burst"), conn.LocalAddr())
		}
		time.Sleep(100 * time.Millisecond) // the reader queues the burst
		enclavepkg.NewRateMonitor(p, enclavepkg.MonitorConfig{INCTicks: 15e6, OnDiscrepancy: func(float64) {}}).Start()
		p.AfterTicks(1e6, func() {})
		p.SetMessageHandler(handler)
	})
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("a handler's own platform calls blocked behind a full work queue")
	}
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung after a datagram burst")
	}
}

// TestGoroutinesIndependentOfTimers: a running platform is two
// goroutines, the loop and the reader, however many timers, windows and
// synthetic AEXs are pending.
func TestGoroutinesIndependentOfTimers(t *testing.T) {
	time.Sleep(50 * time.Millisecond) // let earlier tests' goroutines exit
	before := runtime.NumGoroutine()
	p, err := New(Config{Conn: listen(t), TSCHz: 1e9, AEXPeriod: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Do(func() {
		for i := 1; i <= 100; i++ {
			p.AfterTicks(uint64(i)*1e6, func() {}) // 1ms .. 100ms
		}
		enclavepkg.NewRateMonitor(p, enclavepkg.MonitorConfig{INCTicks: 1e9, EnableMem: true}).Start()
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := runtime.NumGoroutine() - before
		if got == 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("platform runs %d goroutines, want 2", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDoSerializesAndSurvivesClose(t *testing.T) {
	p, err := New(Config{Conn: listen(t)})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	if !p.Do(func() { ran = true }) || !ran {
		t.Error("Do did not run")
	}
	if err := p.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if p.Do(func() {}) {
		t.Error("Do after Close should report false")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing Conn accepted")
	}
	if _, err := New(Config{Conn: listen(t), Directory: map[simnet.Addr]string{1: "not-an-addr:xx"}}); err == nil {
		t.Error("bad directory address accepted")
	}
}

// TestLiveClusterEndToEnd runs a real Time Authority and three real
// Triad nodes over localhost UDP, with synthetic AEXs, and checks that
// all nodes calibrate and serve monotonic trusted timestamps that track
// wall time.
func TestLiveClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test is wall-clock bound")
	}
	// Time Authority.
	taConn := listen(t)
	taSrv, err := authority.NewServer(taConn, testKey(), 100)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = taSrv.Serve() }()
	defer taSrv.Close()

	// Three nodes. Bind sockets first so the directory is complete.
	conns := []net.PacketConn{listen(t), listen(t), listen(t)}
	dir := map[simnet.Addr]string{100: taConn.LocalAddr().String()}
	for i, c := range conns {
		dir[simnet.Addr(i+1)] = c.LocalAddr().String()
	}

	var platforms []*Platform
	var nodes []*engine.Node
	for i, c := range conns {
		p, err := New(Config{
			Conn:      c,
			Directory: dir,
			AEXPeriod: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		var peers []simnet.Addr
		for j := range conns {
			if j != i {
				peers = append(peers, simnet.Addr(j+1))
			}
		}
		var node *engine.Node
		ok := p.Do(func() {
			node, err = core.NewNode(p, core.Config{
				Config: engine.Config{
					Key:            testKey(),
					Addr:           simnet.Addr(i + 1),
					Peers:          peers,
					Authority:      100,
					DisableMonitor: true, // wall-clock INC windows are noisy under CI load
				},
				// Short calibration sleeps keep the test fast while
				// preserving the two-point regression.
				CalibSleeps: []time.Duration{0, 200 * time.Millisecond},
			})
		})
		if !ok || err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
		platforms = append(platforms, p)
		nodes = append(nodes, node)
		p.Do(node.Start)
	}

	// Wait for calibration.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ready := 0
		for i, n := range nodes {
			platforms[i].Do(func() {
				if n.State() == core.StateOK || n.State() == core.StateTainted {
					if n.FCalib() != 0 {
						ready++
					}
				}
			})
		}
		if ready == len(nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("nodes never calibrated over live UDP")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Serve timestamps: monotonic and tracking wall time.
	var last int64
	for round := 0; round < 20; round++ {
		for i, n := range nodes {
			platforms[i].Do(func() {
				ts, err := n.TrustedNow()
				if err != nil {
					return // transiently tainted is fine
				}
				if ts <= last && i == 0 {
					t.Errorf("node1 served %d after %d", ts, last)
				}
				if i == 0 {
					last = ts
				}
				wall := time.Now().UnixNano()
				if diff := time.Duration(ts - wall); diff < -2*time.Second || diff > 2*time.Second {
					t.Errorf("node%d trusted time off wall clock by %v", i+1, diff)
				}
			})
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCloseWaitsForInFlightHandler is the graceful-shutdown contract:
// Close must not return while a message handler is still running, and
// datagrams the read loop accepted before Close are dispatched, not
// abandoned. The handler writes handled without locks — if Close
// returned early the race detector (make test-race) and the plain
// assertion would both catch it.
func TestCloseWaitsForInFlightHandler(t *testing.T) {
	conn := listen(t)
	p, err := New(Config{Conn: conn})
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	handled := 0
	p.Do(func() {
		p.SetMessageHandler(func(_ simnet.Addr, _ []byte) {
			if handled == 0 {
				close(started)
				<-release // hold the loop mid-handler
			}
			handled++
		})
	})

	sender := listen(t)
	defer sender.Close()
	if _, err := sender.WriteTo([]byte("one"), conn.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first datagram never reached the handler")
	}
	// With the loop held, the reader hands a second batch to the work
	// queue.
	if _, err := sender.WriteTo([]byte("two"), conn.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(p.work) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second datagram never enqueued")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error)
	go func() { closed <- p.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the handler finished")
	}
	// Happens-before: Close returned, so both handler runs are visible.
	if handled != 2 {
		t.Fatalf("handled %d datagrams, want 2 (queued work must drain on Close)", handled)
	}
	// Idempotent, and callbacks after Close are dropped, not queued.
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	p.InjectAEX()
	if got := p.AEXCount(); got != 0 { // the loop has exited: a plain read is race-free
		t.Fatalf("AEXCount after Close = %d, want 0", got)
	}
}
