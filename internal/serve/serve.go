// Package serve is the client-facing trusted-timestamp serving
// subsystem: the layer that turns a calibrated Triad node into a
// service handling request traffic at scale (the TimeStamping
// Authority and trusted-lease use-cases motivating the paper's
// introduction).
//
// Requests are dispatched across shards keyed by client ID; each shard
// holds a bounded FIFO queue and is drained in batches, reading trusted
// time ONCE per drain — under load, one TrustedNow amortizes over up
// to BatchMax responses per drained shard, which is what lets a single
// node serve tens of thousands of requests per second. Admission
// control protects the node instead of letting it collapse: a full
// shard queue or an exhausted per-client token bucket sheds the request
// immediately with an explicit StatusOverloaded response, so clients
// learn to back off and served requests keep bounded latency.
//
// The core is platform-agnostic and allocation-free on the dispatch
// path. SimBinding runs it on the deterministic simulation
// (internal/experiment's load sweeps); LiveServer runs the identical
// logic over UDP.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"triadtime/internal/commit"
	"triadtime/internal/metrics"
	"triadtime/internal/monotonic"
	"triadtime/internal/wire"
	"triadtime/tsa"
)

// The wire format reserves exactly one serialized tsa token per
// response; the two packages must agree on its size.
const (
	_ = uint(tsa.TokenSize - wire.StampTokenSize)
	_ = uint(wire.StampTokenSize - tsa.TokenSize)
)

// Likewise for commitment tokens, and for the verdict enums: commit
// responses carry the vault's verdict as a direct cast, so the two
// packages' values must agree pairwise.
const (
	_ = uint(commit.TokenSize - wire.CommitTokenSize)
	_ = uint(wire.CommitTokenSize - commit.TokenSize)
	_ = uint(uint8(commit.OK) - uint8(wire.CommitOK))
	_ = uint(uint8(wire.CommitOK) - uint8(commit.OK))
	_ = uint(uint8(commit.Sealed) - uint8(wire.CommitSealed))
	_ = uint(uint8(wire.CommitSealed) - uint8(commit.Sealed))
	_ = uint(uint8(commit.Fenced) - uint8(wire.CommitFenced))
	_ = uint(uint8(wire.CommitFenced) - uint8(commit.Fenced))
	_ = uint(uint8(commit.BadToken) - uint8(wire.CommitBadToken))
	_ = uint(uint8(wire.CommitBadToken) - uint8(commit.BadToken))
	_ = uint(uint8(commit.Unavailable) - uint8(wire.CommitUnavailable))
	_ = uint(uint8(wire.CommitUnavailable) - uint8(commit.Unavailable))
)

// Clock supplies trusted timestamps in nanoseconds. Both protocol
// variants, the triadtime façades, and plain test clocks satisfy it.
type Clock interface {
	TrustedNow() (int64, error)
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() (int64, error)

// TrustedNow implements Clock.
func (f ClockFunc) TrustedNow() (int64, error) { return f() }

// ErrOverloaded is the error form of StatusOverloaded, returned by
// bindings that surface shedding to local callers.
var ErrOverloaded = errors.New("serve: overloaded")

// Config parameterizes a Server.
type Config struct {
	// Shards is the number of queue/batch lanes client IDs hash onto.
	// Default 4.
	Shards int
	// QueueDepth bounds each shard's pending-request queue; a full
	// queue sheds new arrivals with StatusOverloaded. Default 1024.
	QueueDepth int
	// BatchMax caps how many queued requests one drain pops per shard
	// (all served from the drain's single TrustedNow read). Default 256.
	BatchMax int
	// RatePerClient is the sustained per-client admission rate in
	// requests/second, enforced by a token bucket per client ID.
	// Zero disables per-client limiting.
	RatePerClient float64
	// RateBurst is the token bucket's capacity (how far a client may
	// momentarily exceed the sustained rate). Default: one second's
	// worth of RatePerClient, at least 1.
	RateBurst float64
	// Clock is the trusted time source. Required.
	Clock Clock
	// Stamper, when set, issues tsa tokens for requests carrying
	// FlagWantToken, stamped against the batch's single trusted read.
	Stamper *tsa.Stamper
	// Vault, when set, serves commit operations (wire kinds 8–10):
	// time-locked commitment locks, unlocks, and status queries,
	// decided per-request by the vault (which reads the clock itself —
	// an unlock decision must see the vault's rollback checks, so it is
	// not amortized over the batch read). nil answers every commit
	// request CommitUnavailable.
	Vault *commit.Vault
	// QueueWait, when set, records each served request's queue wait
	// (admission to drain, in the binding's monotonic nanoseconds).
	QueueWait *metrics.Histogram
}

// withDefaults fills zero fields.
func (c Config) withDefaults() (Config, error) {
	if c.Clock == nil {
		return c, errors.New("serve: Clock is required")
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 256
	}
	if c.RatePerClient < 0 {
		return c, fmt.Errorf("serve: negative RatePerClient %g", c.RatePerClient)
	}
	if c.RateBurst <= 0 {
		c.RateBurst = c.RatePerClient
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	return c, nil
}

// Counters is a point-in-time snapshot of the server's cumulative
// admission and serving tallies.
type Counters struct {
	// Received counts every submitted request.
	Received uint64
	// Queued counts requests admitted into a shard queue.
	Queued uint64
	// Served counts requests answered with StatusOK, plus commit
	// operations the vault decided (any verdict but CommitUnavailable —
	// a refusal is a decision).
	Served uint64
	// ShedQueueFull counts requests shed because their shard's queue
	// was full.
	ShedQueueFull uint64
	// ShedRateLimited counts requests shed by per-client rate limits.
	ShedRateLimited uint64
	// Unavailable counts drained requests answered with
	// StatusUnavailable because the trusted clock could not serve.
	Unavailable uint64
	// TokensIssued counts tsa tokens stamped into responses.
	TokensIssued uint64
	// Batches counts drains that served at least one request — i.e.
	// TrustedNow reads; Served+Unavailable over Batches is the
	// amortization factor batching bought.
	Batches uint64
}

// Shed reports the total shed requests (queue + rate).
func (c Counters) Shed() uint64 { return c.ShedQueueFull + c.ShedRateLimited }

// Summary renders the counters as one table line.
func (c Counters) Summary() string {
	return fmt.Sprintf("received=%d queued=%d served=%d shed_queue=%d shed_rate=%d unavailable=%d tokens=%d batches=%d",
		c.Received, c.Queued, c.Served, c.ShedQueueFull, c.ShedRateLimited,
		c.Unavailable, c.TokensIssued, c.Batches)
}

// Delivery pairs a built response with the address it goes back to.
// The type parameter is the binding's reply-address type: simnet.Addr
// in simulation, net.Addr live, or anything cheap in benchmarks.
// Exactly one of Resp and Commit is populated, selected by IsCommit.
type Delivery[T any] struct {
	To   T
	Resp wire.TimeResponse
	// IsCommit marks Commit as the populated response: commit
	// operations share the shard queues and drain cycle with timestamp
	// requests but answer on their own wire format.
	IsCommit bool
	Commit   wire.CommitResponse
}

// pending is one admitted request waiting in a shard queue. op selects
// the family: 0 is a timestamp request; the commit kinds carry their
// operation in op, the lock parameters in hash/unlockNanos/flags, and
// the presented token (unlock/status) pre-parsed in ctok.
type pending[T any] struct {
	to            T
	op            wire.Kind
	clientID, seq uint64
	flags         uint8
	hash          [wire.StampHashSize]byte
	unlockNanos   int64
	ctok          commit.Token
	enqueuedNanos int64
}

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	// lastNanos is the refill reference; a rollback would mint free
	// tokens.
	lastNanos monotonic.Value[int64]
}

// shard is one queue/batch lane. Each shard has its own lock, so
// submissions for different clients contend only within their lane and
// drains never block the whole server.
type shard[T any] struct {
	mu      sync.Mutex
	ring    []pending[T] // fixed-capacity FIFO: QueueDepth slots
	head, n int
	buckets map[uint64]*bucket
	batch   []pending[T] // drain scratch, capacity BatchMax
}

// Server is the serving engine. It is safe for concurrent use: every
// shard is independently locked and counters are atomic. In the
// single-threaded simulation the locks are uncontended and cost a few
// nanoseconds; the live binding submits and drains from one goroutine
// per socket.
type Server[T any] struct {
	cfg    Config
	shards []*shard[T]

	received, queued, served     atomic.Uint64
	shedQueue, shedRate          atomic.Uint64
	unavailable, tokens, batches atomic.Uint64
}

// New creates a server.
func New[T any](cfg Config) (*Server[T], error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server[T]{cfg: cfg, shards: make([]*shard[T], cfg.Shards)}
	for i := range s.shards {
		s.shards[i] = &shard[T]{
			ring:    make([]pending[T], cfg.QueueDepth),
			buckets: make(map[uint64]*bucket),
			batch:   make([]pending[T], 0, cfg.BatchMax),
		}
	}
	return s, nil
}

// Shards reports the number of shards.
func (s *Server[T]) Shards() int { return len(s.shards) }

// BatchMax reports the per-drain batch cap (for sizing reply scratch).
func (s *Server[T]) BatchMax() int { return s.cfg.BatchMax }

// ShardOf maps a client ID to its shard. The ID is mixed
// (splitmix64-style) first so adjacent client IDs still spread across
// lanes.
func (s *Server[T]) ShardOf(clientID uint64) int {
	z := clientID + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(len(s.shards)))
}

// Submit runs admission control for one decoded request at monotonic
// time nowNanos (the binding's arrival clock, not trusted time). A
// shed request returns (response, true): the caller must send the
// explicit overload response now. An admitted request returns
// (zero, false) and is answered by a later drain. Allocation-free
// except the first request of a never-seen client (its token bucket).
//
//triad:hotpath
func (s *Server[T]) Submit(nowNanos int64, req wire.TimeRequest, to T) (wire.TimeResponse, bool) {
	s.received.Add(1)
	sh := s.shards[s.ShardOf(req.ClientID)]
	sh.mu.Lock()
	if s.cfg.RatePerClient > 0 && !sh.takeToken(req.ClientID, nowNanos, s.cfg.RatePerClient, s.cfg.RateBurst) {
		sh.mu.Unlock()
		s.shedRate.Add(1)
		return shedResponse(req), true
	}
	if sh.n == len(sh.ring) {
		sh.mu.Unlock()
		s.shedQueue.Add(1)
		return shedResponse(req), true
	}
	idx := sh.head + sh.n
	if idx >= len(sh.ring) {
		idx -= len(sh.ring)
	}
	p := &sh.ring[idx]
	p.to = to
	p.op = 0
	p.clientID = req.ClientID
	p.seq = req.Seq
	p.flags = req.Flags
	p.hash = req.Hash
	p.enqueuedNanos = nowNanos
	sh.n++
	sh.mu.Unlock()
	s.queued.Add(1)
	return wire.TimeResponse{}, false
}

// SubmitCommit runs admission control for one decoded commit request —
// the same shard queues, token buckets, and shedding as Submit, so a
// client cannot dodge its rate limit by switching request families. A
// shed or immediately-decided request returns (response, true); an
// admitted one returns (zero, false) and is answered by a later drain.
// With no Vault configured, every commit request is answered
// CommitUnavailable up front.
//
//triad:hotpath
func (s *Server[T]) SubmitCommit(nowNanos int64, req wire.CommitRequest, to T) (wire.CommitResponse, bool) {
	s.received.Add(1)
	if s.cfg.Vault == nil {
		s.unavailable.Add(1)
		return wire.CommitResponse{Kind: req.Kind, ClientID: req.ClientID, Seq: req.Seq, Verdict: wire.CommitUnavailable}, true
	}
	sh := s.shards[s.ShardOf(req.ClientID)]
	sh.mu.Lock()
	if s.cfg.RatePerClient > 0 && !sh.takeToken(req.ClientID, nowNanos, s.cfg.RatePerClient, s.cfg.RateBurst) {
		sh.mu.Unlock()
		s.shedRate.Add(1)
		return shedCommitResponse(req), true
	}
	if sh.n == len(sh.ring) {
		sh.mu.Unlock()
		s.shedQueue.Add(1)
		return shedCommitResponse(req), true
	}
	idx := sh.head + sh.n
	if idx >= len(sh.ring) {
		idx -= len(sh.ring)
	}
	p := &sh.ring[idx]
	p.to = to
	p.op = req.Kind
	p.clientID = req.ClientID
	p.seq = req.Seq
	p.flags = req.Flags
	p.hash = req.Hash
	p.unlockNanos = req.UnlockNanos
	// Parse the presented token once at admission; a malformed length
	// is impossible (the wire field is exactly TokenSize).
	p.ctok, _ = commit.UnmarshalToken(req.Token[:])
	p.enqueuedNanos = nowNanos
	sh.n++
	sh.mu.Unlock()
	s.queued.Add(1)
	return wire.CommitResponse{}, false
}

// shedResponse builds the explicit early-shed answer.
func shedResponse(req wire.TimeRequest) wire.TimeResponse {
	return wire.TimeResponse{ClientID: req.ClientID, Seq: req.Seq, Status: wire.StatusOverloaded}
}

// shedCommitResponse is its commit-family counterpart.
func shedCommitResponse(req wire.CommitRequest) wire.CommitResponse {
	return wire.CommitResponse{Kind: req.Kind, ClientID: req.ClientID, Seq: req.Seq, Verdict: wire.CommitOverloaded}
}

// takeToken refills and debits one client's bucket; called under the
// shard lock.
func (sh *shard[T]) takeToken(clientID uint64, nowNanos int64, rate, burst float64) bool {
	b := sh.buckets[clientID]
	if b == nil {
		b = &bucket{tokens: burst}
		b.lastNanos.Raise(nowNanos)
		sh.buckets[clientID] = b
	} else if elapsed := nowNanos - b.lastNanos.Load(); elapsed > 0 {
		b.tokens += rate * float64(elapsed) / 1e9
		if b.tokens > burst {
			b.tokens = burst
		}
		b.lastNanos.Raise(nowNanos)
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Drain serves one batch from shard i alone; see DrainShards.
//
//triad:hotpath
func (s *Server[T]) Drain(i int, nowNanos int64, out []Delivery[T]) []Delivery[T] {
	one := [1]int{i}
	return s.DrainShards(one[:], nowNanos, out)
}

// DrainShards serves one batch from every listed shard: it pops up to
// BatchMax queued requests per shard, reads trusted time ONCE for all
// of them, and appends the finished responses to out in shard order
// (reused scratch; the call allocates nothing when out has capacity).
// nowNanos is the binding's monotonic clock, used for queue-wait
// accounting. When the trusted clock cannot serve, every popped
// request is answered StatusUnavailable — the read would not have
// succeeded for any of them. With nothing queued the clock is not read.
//
// DrainShards may run concurrently with Submit and with drains of
// other shards, but not with another drain of a listed shard: each
// shard has one batch scratch, so the binding must give every shard
// one drainer at a time.
//
//triad:hotpath
func (s *Server[T]) DrainShards(shards []int, nowNanos int64, out []Delivery[T]) []Delivery[T] {
	popped := 0
	for _, i := range shards {
		popped += s.pop(s.shards[i])
	}
	if popped == 0 {
		return out
	}
	nanos, err := s.cfg.Clock.TrustedNow()
	s.batches.Add(1)
	for _, i := range shards {
		out = s.answer(s.shards[i].batch, nanos, err, nowNanos, out)
	}
	return out
}

// pop moves up to BatchMax queued requests from sh's ring into its
// batch scratch and reports how many.
//
//triad:hotpath
func (s *Server[T]) pop(sh *shard[T]) int {
	sh.mu.Lock()
	n := sh.n
	if n > s.cfg.BatchMax {
		n = s.cfg.BatchMax
	}
	batch := sh.batch[:0]
	for k := 0; k < n; k++ {
		batch = append(batch, sh.ring[sh.head])
		var none T
		sh.ring[sh.head].to = none // drop any reply-address reference
		sh.head++
		if sh.head == len(sh.ring) {
			sh.head = 0
		}
	}
	sh.n -= n
	sh.batch = batch
	sh.mu.Unlock()
	return n
}

// answer builds the responses for one popped batch against the trusted
// read (nanos, err) its drain took.
//
//triad:hotpath
func (s *Server[T]) answer(batch []pending[T], nanos int64, err error, nowNanos int64, out []Delivery[T]) []Delivery[T] {
	for k := range batch {
		p := &batch[k]
		if s.cfg.QueueWait != nil {
			s.cfg.QueueWait.Record(nowNanos - p.enqueuedNanos)
		}
		// Each response is built in its delivery slot, not copied in.
		out = append(out, Delivery[T]{To: p.to})
		d := &out[len(out)-1]
		if p.op >= wire.KindCommitLock {
			// Commit operations are decided by the vault, which reads
			// the clock itself: an unlock must see the vault's
			// high-water rollback checks, so the drain's read does not
			// apply.
			d.IsCommit = true
			s.serveCommit(p, &d.Commit)
			continue
		}
		resp := &d.Resp
		resp.ClientID, resp.Seq = p.clientID, p.seq
		if err != nil {
			resp.Status = wire.StatusUnavailable
			s.unavailable.Add(1)
		} else {
			resp.Status = wire.StatusOK
			resp.Nanos = nanos
			if p.flags&wire.FlagWantToken != 0 && s.cfg.Stamper != nil {
				if tok, terr := s.cfg.Stamper.IssueAt(p.hash, nanos); terr == nil {
					tok.MarshalInto(resp.Token[:])
					resp.HasToken = true
					s.tokens.Add(1)
				}
			}
			s.served.Add(1)
		}
	}
	return out
}

// serveCommit answers one drained commit operation against the vault,
// into resp (a zeroed delivery slot).
// Verdict-specific fields follow the wire contract: an OK lock carries
// the minted token; unlock/status answers echo the token's unlock time
// and report the deciding trusted now; every answer carries the
// vault's current epoch. Decided operations count as Served,
// clock-undecidable ones as Unavailable.
//
//triad:hotpath
func (s *Server[T]) serveCommit(p *pending[T], resp *wire.CommitResponse) {
	v := s.cfg.Vault
	resp.Kind, resp.ClientID, resp.Seq = p.op, p.clientID, p.seq
	switch p.op {
	case wire.KindCommitLock:
		tok, vd := v.Lock(p.hash, p.unlockNanos, p.flags)
		resp.Verdict = wire.CommitVerdict(vd)
		if vd == commit.OK {
			tok.MarshalInto(resp.Token[:])
			resp.Nanos = tok.IssuedNanos
			resp.UnlockNanos = tok.UnlockNanos
		}
	case wire.KindCommitUnlock:
		now, vd := v.Unlock(p.ctok)
		resp.Verdict = wire.CommitVerdict(vd)
		resp.Nanos = now
		resp.UnlockNanos = p.ctok.UnlockNanos
	case wire.KindCommitStatus:
		now, vd := v.Status(p.ctok)
		resp.Verdict = wire.CommitVerdict(vd)
		resp.Nanos = now
		resp.UnlockNanos = p.ctok.UnlockNanos
	default:
		// Unreachable: SubmitCommit only queues decoded commit kinds.
		resp.Verdict = wire.CommitBadToken
	}
	resp.Epoch = v.Epoch()
	if resp.Verdict == wire.CommitUnavailable {
		s.unavailable.Add(1)
	} else {
		s.served.Add(1)
	}
}

// Pending reports shard i's current queue length.
func (s *Server[T]) Pending(i int) int {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.n
}

// Counters snapshots the cumulative tallies.
func (s *Server[T]) Counters() Counters {
	return Counters{
		Received:        s.received.Load(),
		Queued:          s.queued.Load(),
		Served:          s.served.Load(),
		ShedQueueFull:   s.shedQueue.Load(),
		ShedRateLimited: s.shedRate.Load(),
		Unavailable:     s.unavailable.Load(),
		TokensIssued:    s.tokens.Load(),
		Batches:         s.batches.Load(),
	}
}
