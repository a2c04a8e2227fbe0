package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triadtime/internal/transport"
	"triadtime/internal/wire"
)

// BenchmarkLiveServeThroughput measures the full live serving path
// end-to-end over loopback UDP: sealed requests in, authenticated,
// admitted, batch-drained, sealed responses out. The driver is
// closed-loop and windowed — each worker keeps a fixed number of
// requests in flight and only replenishes as responses return — so the
// number reported is a sustained rate, not an open-loop burst that
// would collapse into shedding. Reports req/s (responses actually
// received and counted) alongside ns/op.
func BenchmarkLiveServeThroughput(b *testing.B) {
	// One socket per core up to a small cap: extra sockets only add
	// receive-goroutine wakeups once cores are saturated.
	sockets := runtime.NumCPU()
	if sockets > 4 {
		sockets = 4
	}
	if !transport.ReusePortSockets {
		sockets = 1
	}
	key := liveTestKey()
	srv, err := NewLiveServer(LiveConfig{
		Listen:   "127.0.0.1:0",
		Sockets:  sockets,
		Key:      key,
		SenderID: 300,
		Server: Config{
			Shards:     4,
			QueueDepth: 4096,
			BatchMax:   512,
			Clock:      ClockFunc(func() (int64, error) { return 1234567890, nil }),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	const workers = 2
	const window = 512 // in-flight per worker; must stay under QueueDepth and socket buffers
	perWorker := b.N / workers
	if perWorker < 1 {
		perWorker = 1
	}

	var responses, lost atomic.Uint64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dialLiveClient(b, key, srv.LocalAddr(), uint64(1000+w))
			c.conn.SetReadBuffer(1 << 20)
			bc, err := transport.NewBatchConn(c.conn)
			if err != nil {
				b.Error(err)
				return
			}
			// Requests are fixed-size too, so the generator side gets the
			// same segmentation win (best-effort; plain sends otherwise).
			if g, ok := transport.DatagramConn(bc).(interface{ EnableGSO(int) error }); ok {
				_ = g.EnableGSO(SealedRequestSize)
			}
			out := transport.NewBatch(window, SealedRequestSize)
			in := transport.NewBatch(window, SealedResponseSize+1)
			var plain [wire.TimeRequestSize]byte
			seq := uint64(0)
			for remaining := perWorker; remaining > 0; {
				burst := window
				if burst > remaining {
					burst = remaining
				}
				for i := 0; i < burst; i++ {
					seq++
					// Spread client IDs so every engine shard works.
					wire.TimeRequest{ClientID: uint64(w)<<16 | seq%16, Seq: seq}.MarshalInto(plain[:])
					sealed := c.sealer.SealDatagramAppend(out.Buffer(i), plain[:])
					out.Set(i, len(sealed), transport.Sockaddr{}) // connected socket
				}
				if _, err := bc.SendBatch(out, burst); err != nil {
					b.Error(err)
					return
				}
				got := 0
				c.conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
				for got < burst {
					k, err := bc.RecvBatch(in)
					if err != nil {
						// Deadline: treat the shortfall as datagram loss
						// and move on rather than deadlocking the loop.
						lost.Add(uint64(burst - got))
						break
					}
					got += k
				}
				responses.Add(uint64(got))
				remaining -= burst
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()

	got, dropped := responses.Load(), lost.Load()
	if got < uint64(b.N)/2 {
		b.Fatalf("only %d/%d responses (lost %d): throughput figure meaningless", got, b.N, dropped)
	}
	b.ReportMetric(float64(got)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(dropped), "lost")
	if c := srv.Counters(); c.SendErrors != 0 {
		b.Fatalf("send errors during benchmark: %d", c.SendErrors)
	}
}
