package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
	"time"

	"triadtime/internal/wire"
)

// Wire identities of the generator's sealers. AES-GCM nonces are
// partitioned by sender identity, so every sealer under one key needs
// its own; the subject's endpoint reserves [1, 1+shards+sockets).
const (
	honestSender uint32 = 9001
	abuseSender  uint32 = 9002
	replaySender uint32 = 9003
)

// Client IDs (carried inside the sealed payload): the honest population
// is honestClientBase+0..clients-1; the abuse socket speaks as one
// authenticated hot client, forges as another, and replays as a third,
// so a reply that should never have been sent names its cause.
const (
	honestClientBase uint64 = 0x1000
	hotClient        uint64 = 0x2000
	forgedClient     uint64 = 0x2001
	replayClient     uint64 = 0x3000
)

// opKind is what an honest request asks for, and so what its answer
// must look like.
type opKind uint8

const (
	opStamp opKind = iota
	opStampToken
	opLock
	opUnlockRipe   // token past its unlock time: CommitOK
	opUnlockUnripe // token an hour short of it: CommitSealed
	opStatusRipe
	opStatusUnripe
	numOpKinds
)

func (k opKind) isCommit() bool { return k >= opLock }

// liveSpec is one live workload: who sends what, how fast, to a node
// configured how. Rates are per second; mix is percent per opKind.
type liveSpec struct {
	name          string
	honestRate    int
	clients       int
	abuseRate     int     // datagrams/s from the second socket (0 = none)
	ratePerClient float64 // node's per-client admission limit (0 = off)
	tsa, vault    bool
	mix           [numOpKinds]int
}

var liveSpecs = []liveSpec{
	{name: "stamp_steady", honestRate: 40000, clients: 64,
		mix: [numOpKinds]int{opStamp: 100}},
	{name: "ops_mixed", honestRate: 20000, clients: 64, tsa: true, vault: true,
		mix: [numOpKinds]int{opStampToken: 60, opLock: 25, opUnlockRipe: 5, opUnlockUnripe: 5, opStatusRipe: 3, opStatusUnripe: 2}},
	{name: "stamp_abuse", honestRate: 10000, clients: 64, abuseRate: 40000, ratePerClient: 1000,
		mix: [numOpKinds]int{opStamp: 100}},
}

func findLiveSpec(name string) *liveSpec {
	for i := range liveSpecs {
		if liveSpecs[i].name == name {
			return &liveSpecs[i]
		}
	}
	return nil
}

// maxRequest is the largest legal sealed request for the spec's node;
// anything longer is dropped before authentication.
func (s *liveSpec) maxRequest() int {
	if s.vault {
		return wire.CommitRequestSize + wire.SealedOverhead
	}
	return wire.TimeRequestSize + wire.SealedOverhead
}

func (s *liveSpec) maxResponse() int {
	if s.vault {
		return wire.CommitResponseSize + wire.SealedOverhead
	}
	return wire.TimeResponseSize + wire.SealedOverhead
}

// tickPeriod is the open-loop send schedule: tick k is due at
// k*tickPeriod plus a jitter that is a function of the seed and k. Two
// ticks per drain tick of the node (1 ms), and deliberately not half of
// it: against a 500 us grid the drain timers keep, for as long as the
// node lives, the phase they happened to start in, and the jitter below
// covers only half of the phases. One boot in four then answered a
// fifth faster at the tail than the rest (p99 0.93-1.19 ms against
// 1.23-1.58 ms, README.md). Five microseconds more per tick walk the
// schedule through every phase twice in each 100 ms segment, so that all
// segments, and all boots, see the same mix.
const tickPeriod = 505 * time.Microsecond

// tickDue is when tick k of a stream is due, in ns after the
// schedule's origin. Without the jitter the schedule and the node's
// 1 ms drain tick lock phase: the node sleeps in epoll between bursts,
// wakes on the burst itself, and whether its drain timers fire just
// before or just after it admits the burst — 0.3 ms or 1.2 ms of
// median latency, and a third more CPU per request — is decided once
// per run by the phase the two happened to start in. Ticks that fall
// anywhere in half a period, on a period that drifts against the drain
// tick (see tickPeriod), visit every phase many times a second, as the
// arrivals of independent clients would.
func tickDue(seed uint64, k int) int64 {
	// splitmix64 of (seed, k): no state, so any tick can be asked for.
	z := seed + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(k)*int64(tickPeriod) + int64(z%uint64(tickPeriod/2))
}

// perTick is how many requests of rate/s are due at each tick: a whole
// part and a fraction that share carries from tick to tick.
func perTick(rate int) float64 { return float64(rate) * tickPeriod.Seconds() }

// share returns how many datagrams of a rate/s stream are due this tick.
func share(rate int, carry *float64) int {
	*carry += perTick(rate)
	n := int(*carry)
	*carry -= float64(n)
	return n
}

// docFor is the document an honest request with this seq stamps or
// locks; its hash goes on the wire and the driver re-derives it to
// verify the answer.
func docFor(seq uint64) (doc [8]byte, hash [wire.StampHashSize]byte) {
	binary.BigEndian.PutUint64(doc[:], seq)
	return doc, sha256.Sum256(doc[:])
}

// lockHorizon is how far ahead honest locks and unripe tokens seal.
const lockHorizon = time.Hour

// reqMeta is what the driver remembers about an honest request.
type reqMeta struct {
	seq    uint64
	client uint16 // index into the honest population
	kind   opKind
}

// honestGen produces the honest request stream of a spec from a seed.
// The stream (kinds, clients, seqs) is a function of the seed alone;
// only lock times and nonces depend on when it is consumed.
type honestGen struct {
	spec   *liveSpec
	rng    *rand.Rand
	sealer *wire.Sealer
	seq    uint64
	table  [100]opKind
	plain  [wire.CommitRequestSize]byte
	// ripe/unripe are commitment tokens minted during set-up that
	// unlock and status operations present.
	ripe, unripe [][wire.CommitTokenSize]byte
}

func newHonestGen(spec *liveSpec, key []byte, seed uint64) (*honestGen, error) {
	sealer, err := wire.NewSealer(key, honestSender)
	if err != nil {
		return nil, err
	}
	g := &honestGen{spec: spec, rng: rand.New(rand.NewPCG(seed, 1)), sealer: sealer}
	i := 0
	for k, pct := range spec.mix {
		for ; pct > 0; pct-- {
			g.table[i] = opKind(k)
			i++
		}
	}
	return g, nil
}

// next seals the stream's next request onto dst. wallNanos is the
// generator's reading of real time, which the authority follows, so
// wallNanos+lockHorizon is a valid future unlock time.
func (g *honestGen) next(dst []byte, wallNanos int64) ([]byte, reqMeta) {
	kind := g.table[g.rng.IntN(100)]
	return g.make(dst, kind, wallNanos+int64(lockHorizon))
}

// make seals one request of the given kind; locks seal until unlockNanos.
func (g *honestGen) make(dst []byte, kind opKind, unlockNanos int64) ([]byte, reqMeta) {
	g.seq++
	m := reqMeta{seq: g.seq, client: uint16(g.rng.IntN(g.spec.clients)), kind: kind}
	clientID := honestClientBase + uint64(m.client)
	if !kind.isCommit() {
		req := wire.TimeRequest{ClientID: clientID, Seq: m.seq}
		if kind == opStampToken {
			req.Flags = wire.FlagWantToken
			_, req.Hash = docFor(m.seq)
		}
		req.MarshalInto(g.plain[:])
		return g.sealer.SealDatagramAppend(dst, g.plain[:wire.TimeRequestSize]), m
	}
	req := wire.CommitRequest{ClientID: clientID, Seq: m.seq}
	switch kind {
	case opLock:
		req.Kind = wire.KindCommitLock
		_, req.Hash = docFor(m.seq)
		req.UnlockNanos = unlockNanos
	case opUnlockRipe:
		req.Kind = wire.KindCommitUnlock
		req.Token = g.ripe[g.rng.IntN(len(g.ripe))]
	case opUnlockUnripe:
		req.Kind = wire.KindCommitUnlock
		req.Token = g.unripe[g.rng.IntN(len(g.unripe))]
	case opStatusRipe:
		req.Kind = wire.KindCommitStatus
		req.Token = g.ripe[g.rng.IntN(len(g.ripe))]
	case opStatusUnripe:
		req.Kind = wire.KindCommitStatus
		req.Token = g.unripe[g.rng.IntN(len(g.unripe))]
	}
	req.MarshalInto(g.plain[:])
	return g.sealer.SealDatagramAppend(dst, g.plain[:wire.CommitRequestSize]), m
}

// abuseClass is one kind of hostile datagram.
type abuseClass uint8

const (
	abForged   abuseClass = iota // authentic datagram, last tag byte flipped
	abReplay                     // byte-identical copy of a datagram already delivered
	abOversize                   // longer than any legal request
	abHot                        // authentic, from one client far over its rate limit
	numAbuseClasses
)

// abuseMix is percent per class.
var abuseMix = [numAbuseClasses]int{abForged: 50, abReplay: 20, abOversize: 10, abHot: 20}

// replaySetSize is how many distinct datagrams the replayer owns: one
// anti-replay window's worth, so every copy is judged by the bitmap
// and none by the cheaper too-old test alone.
const replaySetSize = 64

// abuseGen produces the second socket's stream.
type abuseGen struct {
	rng     *rand.Rand
	sealer  *wire.Sealer
	seq     uint64
	table   [100]abuseClass
	plain   [wire.TimeRequestSize]byte
	replays [][]byte
	junk    []byte
}

func newAbuseGen(spec *liveSpec, key []byte, seed uint64) (*abuseGen, error) {
	sealer, err := wire.NewSealer(key, abuseSender)
	if err != nil {
		return nil, err
	}
	replayer, err := wire.NewSealer(key, replaySender)
	if err != nil {
		return nil, err
	}
	g := &abuseGen{rng: rand.New(rand.NewPCG(seed, 2)), sealer: sealer}
	i := 0
	for c, pct := range abuseMix {
		for ; pct > 0; pct-- {
			g.table[i] = abuseClass(c)
			i++
		}
	}
	for s := uint64(1); s <= replaySetSize; s++ {
		wire.TimeRequest{ClientID: replayClient, Seq: s}.MarshalInto(g.plain[:])
		g.replays = append(g.replays, replayer.SealDatagramAppend(nil, g.plain[:]))
	}
	g.junk = make([]byte, spec.maxRequest()+64)
	for j := range g.junk {
		g.junk[j] = byte(g.rng.Uint32())
	}
	return g, nil
}

// next appends the stream's next datagram to dst. Hot requests carry
// the returned seq; the other classes must never be answered.
func (g *abuseGen) next(dst []byte) ([]byte, abuseClass, uint64) {
	class := g.table[g.rng.IntN(100)]
	switch class {
	case abReplay:
		return append(dst, g.replays[g.rng.IntN(len(g.replays))]...), class, 0
	case abOversize:
		return append(dst, g.junk...), class, 0
	}
	g.seq++
	client := hotClient
	if class == abForged {
		client = forgedClient
	}
	wire.TimeRequest{ClientID: client, Seq: g.seq}.MarshalInto(g.plain[:])
	out := g.sealer.SealDatagramAppend(dst, g.plain[:])
	if class == abForged {
		out[len(out)-1] ^= 0x01
	}
	return out, class, g.seq
}
