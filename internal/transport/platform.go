// Package transport is the live implementation of enclave.Platform: a
// Triad node running as an ordinary process, speaking encrypted UDP.
//
// Without SGX hardware in this environment (the reproduction gap the
// paper's artifact fills with real enclaves), the live platform makes
// the closest Gramine-style substitution: the guest TSC is the Go
// runtime's monotonic clock scaled to tick units, AEXs are delivered by
// an optional synthetic interrupt generator or injected externally, and
// INC measurements return the modelled iteration count for the elapsed
// window. The protocol logic above this layer is identical to what the
// simulation runs, so live deployments exercise the same code paths.
//
// The event loop is the simulator's too: one goroutine runs a
// sim.Scheduler in real time, on the monotonic clock. Timers, monitoring
// windows and synthetic AEXs are entries on it, so a cancel always wins
// over a firing that has not happened and an AEX aborts a window at
// once, as on the simulated platform. A second goroutine reads the
// socket and hands each received batch to the loop.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"triadtime/internal/enclave"
	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
)

// Config parameterizes a live platform.
type Config struct {
	// Conn is the node's packet endpoint. The platform takes ownership
	// and closes it on Close.
	Conn net.PacketConn
	// Directory maps wire identities to UDP addresses for every remote
	// this node talks to (peers and the Time Authority).
	Directory map[simnet.Addr]string
	// TSCHz is the virtual guest-TSC rate mapped onto the monotonic
	// clock. Default: the paper machine's 2899.999 MHz.
	TSCHz float64
	// AEXPeriod, if positive, delivers synthetic AEXs at this period —
	// a stand-in for OS interrupts when demonstrating the protocol
	// live. Zero disables the generator (use InjectAEX).
	AEXPeriod time.Duration
}

// The reader fills one of two receive batches while the loop delivers
// the other. A slot is larger than any protocol datagram; a longer one
// arrives truncated and fails authentication like any other junk.
const rxBatches, rxSlots, rxSlotSize = 2, 32, 2048

// Platform is the live enclave.Platform. Every handler callback and
// every function passed to Do runs on one goroutine, the loop. The
// enclave.Platform methods and AEXCount must be called there; Do,
// InjectAEX, AEXPending, ReadTSC, LocalAddr and Close are for other
// goroutines too.
type Platform struct {
	tscHz float64
	start time.Time

	// aexPending counts AEXs handed to the loop whose handler has not
	// yet returned (enclave.AEXGate).
	aexPending atomic.Int64

	conn net.PacketConn
	dir  map[simnet.Addr]*net.UDPAddr // read-only after New

	// work carries calls from other goroutines to the loop; nothing
	// running on the loop sends on it.
	work     chan func()
	done     chan struct{}
	readDone chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once

	// Owned by the loop goroutine.
	sched *sim.Scheduler
	// window ends the monitoring window in flight, of monitor's ticks.
	window     sim.Timer
	monitor    *enclave.RateMonitor
	aexHandler func()
	msgHandler func(from simnet.Addr, payload []byte)
	aexCount   int
	// warm records that the core's first INC window, the warm-up one,
	// has been counted.
	warm bool
}

var (
	_ enclave.Platform = (*Platform)(nil)
	_ enclave.AEXGate  = (*Platform)(nil)
)

// New creates and starts a live platform.
func New(cfg Config) (*Platform, error) {
	if cfg.Conn == nil {
		return nil, errors.New("transport: Conn is required")
	}
	tscHz := cfg.TSCHz
	if tscHz == 0 {
		tscHz = simtime.NominalTSCHz
	}
	dir := make(map[simnet.Addr]*net.UDPAddr, len(cfg.Directory))
	for id, addr := range cfg.Directory {
		udp, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("transport: resolve %d=%q: %w", id, addr, err)
		}
		dir[id] = udp
	}
	rx, err := NewDatagramConn(cfg.Conn)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	p := &Platform{
		tscHz:    tscHz,
		start:    time.Now(),
		conn:     cfg.Conn,
		dir:      dir,
		work:     make(chan func(), 256),
		done:     make(chan struct{}),
		readDone: make(chan struct{}),
		loopDone: make(chan struct{}),
		sched:    sim.NewScheduler(),
	}
	p.window = p.sched.NewTimer(p.endWindow)
	if period := cfg.AEXPeriod; period > 0 {
		var gen sim.Timer
		gen = p.sched.NewTimer(func() {
			p.aexPending.Add(1)
			p.fireAEX()
			gen.Set(p.now().Add(period))
		})
		gen.Set(p.now().Add(period))
	}
	go p.loop()
	go p.readLoop(rx)
	return p, nil
}

// now is the loop's timeline: monotonic nanoseconds since start. It
// never runs behind the scheduler, whose time only ever advances to
// earlier readings of it.
func (p *Platform) now() simtime.Instant {
	return simtime.FromDuration(time.Since(p.start))
}

// due is the instant ticks guest ticks from now, at the configured rate.
func (p *Platform) due(ticks uint64) simtime.Instant {
	return p.now().Add(time.Duration(float64(ticks) / p.tscHz * float64(time.Second)))
}

// loop runs the scheduler in real time: fire everything due, then sleep
// until the next pending instant or until work arrives.
func (p *Platform) loop() {
	defer close(p.loopDone)
	wake := time.NewTimer(0) // re-armed below before every wait
	defer wake.Stop()
	for {
		p.sched.RunUntil(p.now())
		if at, ok := p.sched.NextAt(); ok {
			wake.Reset(at.Sub(p.now()))
		} else {
			wake.Stop()
		}
		select {
		case fn := <-p.work:
			fn()
		case <-wake.C:
		case <-p.done:
			// Shutdown: run what is already enqueued — batches the
			// reader accepted before the socket closed — so Close
			// never abandons an admitted callback mid-queue, then exit.
			// Pending timers are dropped.
			for {
				select {
				case fn := <-p.work:
					fn()
				default:
					return
				}
			}
		}
	}
}

// readLoop posts each received batch to the loop. Handlers must not
// retain a payload past the callback, as on the simulated network.
func (p *Platform) readLoop(rx DatagramConn) {
	defer close(p.readDone)
	free := make(chan *Batch, rxBatches) // never full: it can hold every batch
	for range rxBatches {
		free <- NewBatch(rxSlots, rxSlotSize)
	}
	for {
		b := <-free
		n, err := rx.RecvBatch(b)
		if err != nil {
			return // closed
		}
		p.post(func() { // never refused: the loop outlives the reader
			for i := 0; i < n && p.msgHandler != nil; i++ {
				// The UDP source is not an identity: handlers get 0 and
				// trust the wire layer's authenticated sender ID.
				p.msgHandler(0, b.Payload(i))
			}
			free <- b
		})
	}
}

// post hands fn to the loop from another goroutine. It reports false,
// dropping fn, once the platform is closed.
func (p *Platform) post(fn func()) bool {
	select {
	case p.work <- fn:
		return true
	case <-p.done:
		return false
	}
}

// Do runs fn on the loop and waits for it — the safe way for
// application code to call into the node (e.g. TrustedNow). Returns
// false if the platform is closed. Must not be called on the loop.
func (p *Platform) Do(fn func()) bool {
	done := make(chan struct{})
	if !p.post(func() { fn(); close(done) }) {
		return false
	}
	select {
	case <-done:
		return true
	case <-p.done:
		return false
	}
}

// ReadTSC maps the monotonic clock to guest ticks. Safe from any
// goroutine.
func (p *Platform) ReadTSC() uint64 {
	return uint64(time.Since(p.start).Seconds() * p.tscHz)
}

// BootTSCHz reports the configured guest tick rate.
func (p *Platform) BootTSCHz() float64 { return p.tscHz }

// Send transmits a datagram to a directory identity. Unknown targets
// are dropped silently (UDP semantics).
func (p *Platform) Send(to simnet.Addr, payload []byte) {
	addr := p.dir[to]
	if addr == nil {
		return
	}
	// Write errors are indistinguishable from loss for the protocol.
	_, _ = p.conn.WriteTo(payload, addr)
}

// AfterTicks schedules fn once the real time ticks guest ticks span
// has passed. Cancelling removes it from the scheduler, so a cancel
// wins over any firing that has not started.
func (p *Platform) AfterTicks(ticks uint64, fn func()) enclave.CancelFunc {
	ev := p.sched.At(p.due(ticks), fn)
	return func() { p.sched.Cancel(ev) }
}

// SetAEXHandler registers the AEX-Notify callback.
func (p *Platform) SetAEXHandler(fn func()) { p.aexHandler = fn }

// SetMessageHandler registers the datagram callback.
func (p *Platform) SetMessageHandler(fn func(from simnet.Addr, payload []byte)) {
	p.msgHandler = fn
}

// StartMonitor runs m's windows on the live clock: a timer ends each
// after the wall time its ticks span, and m judges the counts modelled
// for it. An AEX discards the window in flight and begins the next.
// A second monitor panics, as on the simulated platform.
func (p *Platform) StartMonitor(m *enclave.RateMonitor) {
	if p.monitor != nil {
		panic("transport: a second monitor on one monitoring thread")
	}
	p.monitor = m
	p.window.Set(p.due(m.Ticks()))
}

// endWindow judges the window that just ended and begins the next.
func (p *Platform) endWindow() {
	p.monitor.Observe(p.windowCounts(p.monitor.Ticks()))
	p.window.Set(p.due(p.monitor.Ticks()))
}

// windowCounts models the counts of a whole window of ticks guest
// ticks: the paper core's INC count, with the warm-up offset on the
// core's first window, and the memory access count.
func (p *Platform) windowCounts(ticks uint64) (inc, mem float64) {
	inc = enclave.IdealINC(simtime.PaperCore(), float64(ticks), p.tscHz)
	if !p.warm {
		inc += enclave.PaperINCModel().WarmupOffset
		p.warm = true
	}
	return inc, enclave.PaperMemModel().IdealMem(float64(ticks), p.tscHz)
}

// fireAEX delivers one AEX on the loop: it discards the monitoring
// window in flight and begins the next, then invokes the AEX-Notify handler, and only then
// retires the pending count its raiser took.
func (p *Platform) fireAEX() {
	p.aexCount++
	if p.monitor != nil {
		p.window.Set(p.due(p.monitor.Ticks()))
	}
	if p.aexHandler != nil {
		p.aexHandler()
	}
	p.aexPending.Add(-1)
}

// InjectAEX hands one AEX to the loop (severing time continuity), as an
// external test harness or operator would. The AEX is pending from
// before InjectAEX returns, so trusted reads off the loop fail from
// then on even while the loop is busy; one handed over after Close is
// never delivered and stays pending.
func (p *Platform) InjectAEX() {
	p.aexPending.Add(1)
	p.post(p.fireAEX)
}

// AEXPending reports whether an AEX has been handed over whose handler
// has not yet returned (enclave.AEXGate). Safe from any goroutine.
func (p *Platform) AEXPending() bool { return p.aexPending.Load() != 0 }

// AEXCount reports delivered AEXs; call it on the loop.
func (p *Platform) AEXCount() int { return p.aexCount }

// LocalAddr reports the bound UDP address.
func (p *Platform) LocalAddr() net.Addr { return p.conn.LocalAddr() }

// Close shuts the platform down gracefully and returns only when no
// handler is running or pending: the socket closes first (stopping the
// reader), then every batch the reader had already handed over is
// dispatched, then the loop exits, dropping pending timers. Calls
// posted after Close are dropped. Safe to call multiple times; later
// calls return nil without waiting. Must not be called on the loop (it
// would wait for its own return).
func (p *Platform) Close() error {
	var err error
	p.stopOnce.Do(func() {
		err = p.conn.Close()
		// The reader exits on the closed socket — after this, every
		// accepted batch is in the work queue.
		<-p.readDone
		// Tell the loop to drain that queue and stop.
		close(p.done)
		<-p.loopDone
	})
	return err
}
