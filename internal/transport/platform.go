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
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"triadtime/internal/enclave"
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

// Platform is the live enclave.Platform. All handler callbacks and all
// functions passed to Do run on one internal goroutine, satisfying the
// Platform serialization contract.
type Platform struct {
	cfg   Config
	tscHz float64
	start time.Time

	conn net.PacketConn
	dir  map[simnet.Addr]*net.UDPAddr // read-only after New

	work     chan func()
	done     chan struct{}
	readDone chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once

	// Accessed only on the loop goroutine.
	aexHandler func()
	msgHandler func(from simnet.Addr, payload []byte)
	aexEpoch   uint64
	aexCount   int
	core       simtime.Core
	incIndex   int
}

var _ enclave.Platform = (*Platform)(nil)

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
	p := &Platform{
		cfg:      cfg,
		tscHz:    tscHz,
		start:    time.Now(),
		conn:     cfg.Conn,
		dir:      dir,
		work:     make(chan func(), 256),
		done:     make(chan struct{}),
		readDone: make(chan struct{}),
		loopDone: make(chan struct{}),
		core:     simtime.PaperCore(),
	}
	go p.loop()
	go p.readLoop()
	if cfg.AEXPeriod > 0 {
		go p.aexLoop(cfg.AEXPeriod)
	}
	return p, nil
}

// loop serializes every callback the node sees.
func (p *Platform) loop() {
	defer close(p.loopDone)
	for {
		select {
		case fn := <-p.work:
			fn()
		case <-p.done:
			// Shutdown: run what is already enqueued — datagrams the
			// read loop accepted before the socket closed — so Close
			// never abandons an admitted callback mid-queue, then exit.
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

// payloadPool recycles received-datagram buffers between the read and
// dispatch goroutines. Handlers must not retain the payload past the
// callback (the engine copies what it needs while opening the seal),
// matching the simulated network's delivery-buffer contract.
var payloadPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

func (p *Platform) readLoop() {
	defer close(p.readDone)
	buf := make([]byte, 64*1024)
	for {
		n, _, err := p.conn.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		bp := payloadPool.Get().(*[]byte)
		payload := append((*bp)[:0], buf[:n]...)
		*bp = payload
		p.post(func() {
			if p.msgHandler != nil {
				// The UDP source is not an identity: handlers get 0 and
				// trust the wire layer's authenticated sender ID instead.
				p.msgHandler(0, payload)
			}
			payloadPool.Put(bp)
		})
	}
}

func (p *Platform) aexLoop(period time.Duration) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.InjectAEX()
		case <-p.done:
			return
		}
	}
}

// post enqueues fn onto the loop unless the platform is closed.
func (p *Platform) post(fn func()) {
	select {
	case p.work <- fn:
	case <-p.done:
	}
}

// Do runs fn on the platform's dispatch goroutine and waits for it —
// the safe way for application code to call into the node (e.g.
// TrustedNow). Returns false if the platform is closed.
func (p *Platform) Do(fn func()) bool {
	done := make(chan struct{})
	select {
	case p.work <- func() { fn(); close(done) }:
	case <-p.done:
		return false
	}
	select {
	case <-done:
		return true
	case <-p.done:
		return false
	}
}

// ReadTSC maps the monotonic clock to guest ticks.
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

// AfterTicks schedules fn after the guest TSC advances by ticks.
// Stopping the Go timer is not enough to cancel: once it has fired, fn
// is already queued behind whatever handler is running, and that
// handler may be the one cancelling. The queued closure therefore
// checks the cancelled flag on the dispatch goroutine, so a handler's
// cancel always wins over a callback that has not started.
func (p *Platform) AfterTicks(ticks uint64, fn func()) enclave.CancelFunc {
	d := time.Duration(float64(ticks) / p.tscHz * float64(time.Second))
	var cancelled atomic.Bool
	t := time.AfterFunc(d, func() {
		p.post(func() {
			if !cancelled.Load() {
				fn()
			}
		})
	})
	return func() {
		cancelled.Store(true)
		t.Stop()
	}
}

// SetAEXHandler registers the AEX-Notify callback.
func (p *Platform) SetAEXHandler(fn func()) {
	p.post(func() { p.aexHandler = fn })
}

// SetMessageHandler registers the datagram callback.
func (p *Platform) SetMessageHandler(fn func(from simnet.Addr, payload []byte)) {
	p.post(func() { p.msgHandler = fn })
}

// StartINCCheck models one monitoring-loop measurement: it completes
// after the wall time the tick window spans, reporting the modelled
// iteration count, or interrupted if an AEX landed inside the window.
func (p *Platform) StartINCCheck(ticks uint64, done func(count float64, interrupted bool)) {
	p.post(func() {
		epoch := p.aexEpoch
		d := time.Duration(float64(ticks) / p.tscHz * float64(time.Second))
		time.AfterFunc(d, func() {
			p.post(func() {
				if p.aexEpoch != epoch {
					done(0, true)
					return
				}
				count := enclave.IdealINC(p.core, float64(ticks), p.tscHz)
				if p.incIndex == 0 {
					count += enclave.PaperINCModel().WarmupOffset
				}
				p.incIndex++
				done(count, false)
			})
		})
	})
}

// StartMemCheck models one memory-access monitoring measurement,
// mirroring StartINCCheck with the frequency-independent counter.
func (p *Platform) StartMemCheck(ticks uint64, done func(count float64, interrupted bool)) {
	p.post(func() {
		epoch := p.aexEpoch
		d := time.Duration(float64(ticks) / p.tscHz * float64(time.Second))
		time.AfterFunc(d, func() {
			p.post(func() {
				if p.aexEpoch != epoch {
					done(0, true)
					return
				}
				done(enclave.PaperMemModel().IdealMem(float64(ticks), p.tscHz), false)
			})
		})
	})
}

// InjectAEX delivers one AEX to the node (severing time continuity),
// as the synthetic generator or an external test harness would.
func (p *Platform) InjectAEX() {
	p.post(func() {
		p.aexEpoch++
		p.aexCount++
		if p.aexHandler != nil {
			p.aexHandler()
		}
	})
}

// AEXCount reports delivered AEXs.
func (p *Platform) AEXCount() int {
	n := 0
	if !p.Do(func() { n = p.aexCount }) {
		return 0
	}
	return n
}

// LocalAddr reports the bound UDP address.
func (p *Platform) LocalAddr() net.Addr { return p.conn.LocalAddr() }

// Close shuts the platform down gracefully and returns only when no
// handler is running or pending: the socket closes first (unblocking
// the read loop), then every datagram the read loop had already
// accepted is dispatched, then the dispatch goroutine exits. Callbacks
// posted after Close are dropped. Safe to call multiple times; later
// calls return nil without waiting. Must not be called from a handler
// (it would wait for its own return).
func (p *Platform) Close() error {
	var err error
	p.stopOnce.Do(func() {
		err = p.conn.Close()
		// The read loop exits on the closed socket — after this, every
		// accepted datagram is in the work queue.
		<-p.readDone
		// Tell the dispatch loop to drain that queue and stop.
		close(p.done)
		<-p.loopDone
	})
	return err
}
