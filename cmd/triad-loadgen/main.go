// Command triad-loadgen drives a live client-serving endpoint (a
// triad-node started with -serve) with sealed TimeRequest traffic and
// reports achieved throughput, response mix, and round-trip latency
// quantiles — the live counterpart of the simulation's load sweep
// (triad-sim -fig load).
//
// Load is generated by -workers parallel flows, each with its own UDP
// socket, sealing identity, sequence ring and pacing loop; sends and
// receives move in batches (sendmmsg/recvmmsg plus UDP segmentation
// offload on Linux), so one generator core sustains hundreds of
// thousands of requests per second.
//
// Example, 300k req/s for 10 seconds from 2 workers of 16 virtual
// clients each:
//
//	triad-loadgen -target localhost:7201 -key $SERVE_KEY \
//	    -rate 300000 -workers 2 -clients 16 -duration 10s
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"triadtime/internal/metrics"
	"triadtime/internal/transport"
	"triadtime/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "triad-loadgen:", err)
		os.Exit(1)
	}
}

type config struct {
	target     string
	key        []byte
	senderID   uint32
	workers    int
	clients    int
	rate       float64
	duration   time.Duration
	tokenEvery int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("triad-loadgen", flag.ContinueOnError)
	target := fs.String("target", "", "serving endpoint host:port (required)")
	keyHex := fs.String("key", "", "client-traffic pre-shared key, 64 hex characters (required)")
	id := fs.Uint("id", 9001, "base wire sender identity; worker w seals as id+w")
	workers := fs.Int("workers", 1, "parallel generator flows, each with its own socket and sealing identity")
	clients := fs.Int("clients", 16, "virtual client IDs per worker to spread requests over")
	rate := fs.Float64("rate", 50000, "offered load, requests/second, split across workers")
	duration := fs.Duration("duration", 5*time.Second, "sending window")
	tokenEvery := fs.Int("token-every", 0, "request a timestamp token on every Nth request (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		return errors.New("-target is required")
	}
	key, err := hex.DecodeString(*keyHex)
	if err != nil || len(key) != wire.KeySize {
		return fmt.Errorf("-key must be %d hex characters", 2*wire.KeySize)
	}
	if *clients <= 0 || *rate <= 0 || *duration <= 0 || *workers <= 0 {
		return errors.New("-workers, -clients, -rate and -duration must be positive")
	}
	rep, err := generate(config{
		target:     *target,
		key:        key,
		senderID:   uint32(*id),
		workers:    *workers,
		clients:    *clients,
		rate:       *rate,
		duration:   *duration,
		tokenEvery: *tokenEvery,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, rep.render())
	return nil
}

// report is one generation run's outcome, aggregated over workers.
type report struct {
	cfg      config
	elapsed  time.Duration
	sent     uint64
	ok       uint64
	shed     uint64
	unavail  uint64
	tokens   uint64
	latency  metrics.HistogramSnapshot
	sentRate float64
	okRate   float64
}

func (r report) render() string {
	lost := r.sent - r.ok - r.shed - r.unavail
	return fmt.Sprintf(
		"offered %.0f req/s for %v (%d workers × %d virtual clients)\n"+
			"  sent     %8d  (%.0f req/s achieved)\n"+
			"  served   %8d  (%.0f req/s)\n"+
			"  shed     %8d\n"+
			"  unavail  %8d\n"+
			"  lost     %8d\n"+
			"  tokens   %8d\n"+
			"  rtt      %s\n",
		r.cfg.rate, r.elapsed.Round(time.Millisecond), r.cfg.workers, r.cfg.clients,
		r.sent, r.sentRate, r.ok, r.okRate, r.shed, r.unavail, lost, r.tokens,
		r.latency.Summary())
}

// seqSlot pairs a sequence number with its send time; each worker's
// receiver matches responses through a power-of-two ring indexed by
// seq. All fields are atomic: the sender may recycle a slot (ring
// wrap) while the receiver consumes it, and the inUse flag arbitrates
// ownership.
type seqSlot struct {
	seq   atomic.Uint64
	nanos atomic.Int64
	inUse atomic.Bool
}

// tallies aggregates response outcomes across all workers.
type tallies struct {
	sent, ok, shed, unavail, tokens atomic.Uint64
}

// generate runs one load generation against cfg.target: cfg.workers
// independent flows, each pacing cfg.rate/workers.
func generate(cfg config) (report, error) {
	raddr, err := net.ResolveUDPAddr("udp", cfg.target)
	if err != nil {
		return report{}, fmt.Errorf("resolve %q: %w", cfg.target, err)
	}
	latency := metrics.NewLatencyHistogram()
	var t tallies
	start := time.Now()

	ws := make([]*worker, cfg.workers)
	for i := range ws {
		if ws[i], err = newWorker(cfg, i, raddr, start, &t, latency); err != nil {
			for _, w := range ws[:i] {
				w.conn.Close()
			}
			return report{}, err
		}
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) { defer wg.Done(); w.run() }(w)
	}
	wg.Wait()
	sendElapsed := time.Since(start)

	// Linger for stragglers, then stop the receivers.
	for _, w := range ws {
		w.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	}
	for _, w := range ws {
		<-w.recvDone
		w.conn.Close()
	}

	sent := t.sent.Load()
	return report{
		cfg:      cfg,
		elapsed:  sendElapsed,
		sent:     sent,
		ok:       t.ok.Load(),
		shed:     t.shed.Load(),
		unavail:  t.unavail.Load(),
		tokens:   t.tokens.Load(),
		latency:  latency.Snapshot(),
		sentRate: float64(sent) / sendElapsed.Seconds(),
		okRate:   float64(t.ok.Load()) / sendElapsed.Seconds(),
	}, nil
}

// sendSlots bounds one batched send; rates above sendSlots per pacing
// slice just flush multiple batches per slice.
const sendSlots = 512

// recvSlots bounds one batched receive.
const recvSlots = 256

// worker is one generator flow: its own socket, sealing identity,
// opener, sequence ring and pacing state.
type worker struct {
	cfg      config
	index    int
	conn     *net.UDPConn
	bc       transport.DatagramConn
	sealer   *wire.Sealer
	opener   *wire.Opener
	ring     []seqSlot
	mask     uint64
	start    time.Time
	t        *tallies
	latency  *metrics.Histogram
	recvDone chan struct{}
}

func newWorker(cfg config, index int, raddr *net.UDPAddr, start time.Time, t *tallies, latency *metrics.Histogram) (*worker, error) {
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	bc, err := transport.NewDatagramConn(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	// Requests are fixed-size, so segmentation offload applies
	// (best-effort: older kernels and other platforms send one
	// header per datagram).
	if g, ok := bc.(interface{ EnableGSO(int) error }); ok {
		_ = g.EnableGSO(wire.TimeRequestSize + wire.SealedOverhead)
	}
	// Worker w seals as senderID+w: concurrent sealers under one key
	// need disjoint nonce spaces (see PROTOCOL.md).
	sealer, err := wire.NewSealerShard(cfg.key, cfg.senderID, index, cfg.workers)
	if err != nil {
		conn.Close()
		return nil, err
	}
	opener, err := wire.NewOpener(cfg.key)
	if err != nil {
		conn.Close()
		return nil, err
	}
	// One second of this worker's in-flight state, rounded up to a
	// power of two.
	ringSize := 1
	for float64(ringSize) < cfg.rate/float64(cfg.workers) {
		ringSize *= 2
	}
	w := &worker{
		cfg:      cfg,
		index:    index,
		conn:     conn,
		bc:       bc,
		sealer:   sealer,
		opener:   opener,
		ring:     make([]seqSlot, ringSize),
		mask:     uint64(ringSize - 1),
		start:    start,
		t:        t,
		latency:  latency,
		recvDone: make(chan struct{}),
	}
	go w.recvLoop()
	return w, nil
}

// recvLoop matches batched responses to the ring and records
// round-trips until the socket's deadline fires.
func (w *worker) recvLoop() {
	defer close(w.recvDone)
	in := transport.NewBatch(recvSlots, wire.TimeResponseSize+wire.SealedOverhead+1)
	scratch := make([]byte, 0, wire.TimeResponseSize)
	for {
		n, err := w.bc.RecvBatch(in)
		if err != nil {
			return // deadline or closed: generation over
		}
		for i := 0; i < n; i++ {
			pt, _, err := w.opener.OpenDatagramInto(scratch, in.Payload(i))
			if err != nil {
				continue
			}
			resp, err := wire.UnmarshalTimeResponse(pt)
			if err != nil {
				continue
			}
			slot := &w.ring[resp.Seq&w.mask]
			if !slot.inUse.CompareAndSwap(true, false) {
				continue // stale or duplicate
			}
			if slot.seq.Load() != resp.Seq {
				continue // ring wrapped under the response; drop it
			}
			w.latency.Record(int64(time.Since(w.start)) - slot.nanos.Load())
			switch resp.Status {
			case wire.StatusOK:
				w.t.ok.Add(1)
				if resp.HasToken {
					w.t.tokens.Add(1)
				}
			case wire.StatusOverloaded:
				w.t.shed.Add(1)
			case wire.StatusUnavailable:
				w.t.unavail.Add(1)
			}
		}
	}
}

// run paces this worker's share of the offered load in 1ms slices,
// sealing each slice's requests into one batch and flushing it with a
// single batched send.
func (w *worker) run() {
	const slice = time.Millisecond
	perSlice := w.cfg.rate / float64(w.cfg.workers) * slice.Seconds()
	out := transport.NewBatch(sendSlots, wire.TimeRequestSize+wire.SealedOverhead)
	var plain [wire.TimeRequestSize]byte
	var seq uint64
	var carry float64
	ticker := time.NewTicker(slice)
	defer ticker.Stop()
	for now := time.Now(); now.Sub(w.start) < w.cfg.duration; now = <-ticker.C {
		carry += perSlice
		n := int(carry)
		carry -= float64(n)
		for n > 0 {
			burst := n
			if burst > sendSlots {
				burst = sendSlots
			}
			for i := 0; i < burst; i++ {
				req := wire.TimeRequest{
					// Spread sequential sends across this worker's
					// virtual clients (and thereby server shards).
					ClientID: uint64(w.sealer.SenderID())<<32 | seq%uint64(w.cfg.clients),
					Seq:      seq,
				}
				if w.cfg.tokenEvery > 0 && seq%uint64(w.cfg.tokenEvery) == 0 {
					req.Flags = wire.FlagWantToken
					req.Hash[0] = byte(seq)
				}
				slot := &w.ring[seq&w.mask]
				slot.inUse.Store(false) // retire any stale occupant
				slot.seq.Store(seq)
				slot.nanos.Store(int64(time.Since(w.start)))
				slot.inUse.Store(true)
				req.MarshalInto(plain[:])
				sealed := w.sealer.SealDatagramAppend(out.Buffer(i), plain[:])
				out.Set(i, len(sealed), transport.Sockaddr{}) // connected socket
				seq++
			}
			sent, _ := w.bc.SendBatch(out, burst) // shortfall counts as loss
			w.t.sent.Add(uint64(sent))
			n -= burst
		}
	}
}
