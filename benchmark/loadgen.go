package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"triadtime/internal/commit"
	"triadtime/internal/transport"
	"triadtime/internal/wire"
	"triadtime/tsa"
)

// segLen is one measured segment of a live run: the driver marks both
// processes' counters at every segment edge, and latency percentiles
// are taken per segment. Segments are short because the host's quiet
// spells are: the shorter the segment, the more of them pass
// undisturbed from end to end. At the slowest workload's 10k honest
// requests a second a segment's p99 still has ten samples beyond it.
const segLen = 100 * time.Millisecond

// slot remembers one honest request in flight. The sender fills it
// before the datagram leaves and the receiver empties it when the
// answer arrives; the two are different goroutines, hence the atomics.
type slot struct {
	due  atomic.Int64  // ns after t0 the request was due; 0 = empty
	meta atomic.Uint64 // seq<<16 | client<<4 | kind
}

func packMeta(m reqMeta) uint64 { return m.seq<<16 | uint64(m.client)<<4 | uint64(m.kind) }

// segStats is one measured second of honest traffic, attributed by due
// time. sent belongs to the sender goroutine, the rest to the receiver.
type segStats struct {
	sent     int
	answered int      // answers that matched a request, right or wrong
	ok       int      // answers that were what the request must get
	lat      []uint32 // ns from due time to answer, one per ok
	late     []uint32 // ns each of the segment's ticks left late (sender)
}

// loadgen is the open-loop generator of the honest stream: one socket,
// one sending goroutine on a fixed tick schedule that never waits for
// answers, one receiving goroutine that checks every answer.
type loadgen struct {
	spec    *liveSpec
	seed    uint64
	gen     *honestGen
	conn    *net.UDPConn
	bc      *transport.BatchConn
	opener  *wire.Opener
	stamper *tsa.Stamper

	t0        time.Time // due time of tick 0
	warmTicks int       // ticks sent before the first measured segment
	segs      []segStats
	slots     []slot
	mask      uint64

	lastStamp []int64 // per client, receiver only
	bad       int     // answers that failed a check, receiver only
	firstBad  string
	sendErr   error   // sender only
	carry     float64 // fraction of a request the ticks so far still owe, sender only

	recvDone chan struct{} // closed by the receiver when it ends; nil until start
}

func dialBatch(addr string, gsoSeg int) (*net.UDPConn, *transport.BatchConn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, nil, err
	}
	// Answers arrive in drain-tick bursts; default buffers drop them.
	_ = conn.SetReadBuffer(4 << 20)  // best effort: the kernel clamps to rmem_max
	_ = conn.SetWriteBuffer(4 << 20) // likewise
	bc, err := transport.NewBatchConn(conn)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	if gsoSeg > 0 {
		_ = bc.EnableGSO(gsoSeg) // best effort, as the node itself does
	}
	return conn, bc, nil
}

// newLoadgen connects the honest socket. segments is how many measured
// seconds follow the warm-up.
func newLoadgen(spec *liveSpec, addr string, key []byte, seed uint64, warmTicks, segments int) (*loadgen, error) {
	gen, err := newHonestGen(spec, key, seed)
	if err != nil {
		return nil, err
	}
	opener, err := wire.NewOpener(key)
	if err != nil {
		return nil, err
	}
	stamper, err := tsa.New(tsa.ClockFunc(func() (int64, error) { return 0, errors.New("verify only") }), tsaKey())
	if err != nil {
		return nil, err
	}
	conn, bc, err := dialBatch(addr, spec.maxRequest())
	if err != nil {
		return nil, err
	}
	// Two seconds of in-flight requests: an answer later than that is lost.
	size := 1
	for size < 2*spec.honestRate {
		size *= 2
	}
	lg := &loadgen{
		spec: spec, seed: seed, gen: gen, conn: conn, bc: bc, opener: opener, stamper: stamper,
		warmTicks: warmTicks,
		segs:      make([]segStats, segments),
		slots:     make([]slot, size),
		mask:      uint64(size - 1),
		lastStamp: make([]int64, spec.clients),
	}
	for i := range lg.segs {
		lg.segs[i].lat = make([]uint32, 0, int(float64(spec.honestRate)*segLen.Seconds()*1.1)+64)
		lg.segs[i].late = make([]uint32, 0, int(segLen/tickPeriod)+2)
	}
	return lg, nil
}

// measureStart is when the first measured segment begins.
func (lg *loadgen) measureStart() time.Time {
	return lg.t0.Add(time.Duration(lg.warmTicks) * tickPeriod)
}

// totalTicks covers the warm-up and every measured segment.
func (lg *loadgen) totalTicks() int {
	return lg.warmTicks + int((time.Duration(len(lg.segs))*segLen+tickPeriod-1)/tickPeriod)
}

// segmentOf maps a due time (ns after t0) to its measured segment, -1
// for the warm-up.
func (lg *loadgen) segmentOf(dueNs int64) int {
	d := dueNs - int64(time.Duration(lg.warmTicks)*tickPeriod)
	if d < 0 {
		return -1
	}
	if s := int(d / int64(segLen)); s < len(lg.segs) {
		return s
	}
	return -1
}

// exchange sends datagrams and collects up to want answers, before the
// open-loop phase starts. Set-up uses it to mint commitment tokens and
// to deliver the replayer's originals.
func exchange(conn *net.UDPConn, dgrams [][]byte, want int, timeout time.Duration) ([][]byte, error) {
	for _, d := range dgrams {
		if _, err := conn.Write(d); err != nil {
			return nil, err
		}
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	defer conn.SetReadDeadline(time.Time{})
	var out [][]byte
	buf := make([]byte, 2048)
	for len(out) < want {
		n, err := conn.Read(buf)
		if err != nil {
			return out, fmt.Errorf("%d of %d set-up answers: %w", len(out), want, err)
		}
		out = append(out, slices.Clone(buf[:n]))
	}
	return out, nil
}

// tokenPool is how many ripe and how many unripe commitment tokens
// unlock and status operations draw from.
const tokenPool = 32

// mintTokens locks tokenPool documents until now+d and returns the tokens.
func (lg *loadgen) mintTokens(d time.Duration) ([][wire.CommitTokenSize]byte, error) {
	unlock := time.Now().Add(d).UnixNano()
	dgrams := make([][]byte, tokenPool)
	for i := range dgrams {
		dgrams[i], _ = lg.gen.make(nil, opLock, unlock)
	}
	answers, err := exchange(lg.conn, dgrams, tokenPool, 2*time.Second)
	if err != nil {
		return nil, err
	}
	var toks [][wire.CommitTokenSize]byte
	scratch := make([]byte, 0, wire.CommitResponseSize)
	for _, a := range answers {
		pt, _, err := lg.opener.OpenDatagramInto(scratch, a)
		if err != nil {
			return nil, err
		}
		resp, err := wire.UnmarshalCommitResponse(pt)
		if err != nil {
			return nil, err
		}
		if resp.Verdict != wire.CommitOK {
			return nil, fmt.Errorf("set-up lock refused: %v", resp.Verdict)
		}
		toks = append(toks, resp.Token)
	}
	return toks, nil
}

// ripeIn is how long set-up's ripe tokens stay sealed; set-up waits it
// out before the warm-up presents them.
const ripeIn = 100 * time.Millisecond

// prepare does the workload's own set-up traffic: the commitment tokens
// later operations present.
func (lg *loadgen) prepare() error {
	if !lg.spec.vault {
		return nil
	}
	var err error
	if lg.gen.unripe, err = lg.mintTokens(lockHorizon); err != nil {
		return err
	}
	if lg.gen.ripe, err = lg.mintTokens(ripeIn); err != nil {
		return err
	}
	time.Sleep(ripeIn + 20*time.Millisecond)
	return nil
}

// start fixes the schedule's origin and launches the receiver.
func (lg *loadgen) start(t0 time.Time) {
	lg.t0 = t0
	lg.recvDone = make(chan struct{})
	go lg.recvLoop()
}

// sleepUntil blocks the calling thread until t. The Go runtime rounds
// an idle process's timers up to the next millisecond, which would make
// every tick of a 1 ms schedule leave up to a millisecond late;
// nanosleep on a thread of the sender's own is accurate to tens of
// microseconds and uses no CPU while it waits.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just means: look at the clock again
	}
}

// catchUpGap is the least time between two ticks' sends, which is also
// the jittered schedule's own shortest gap. A sender that
// was stalled still sends every tick it owes — each counted from when
// it was due — but at no more than twice the schedule's rate: a
// hundred overdue ticks fired back to back would overflow the node's
// socket buffer and turn one host stall into thousands of lost
// requests that no real client population would have produced.
const catchUpGap = tickPeriod / 2

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// pace calls send for ticks [from, to) of the seed's schedule from t0:
// at each tick's due time, or as soon after as catchUpGap allows, with
// when the tick was due (ns after t0) and when it actually left.
func pace(t0 time.Time, seed uint64, from, to int, send func(dueNs int64, now time.Time)) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var lastSend time.Time
	for k := from; k < to; k++ {
		dueNs := tickDue(seed, k)
		sleepUntil(latest(t0.Add(time.Duration(dueNs)), lastSend.Add(catchUpGap)))
		lastSend = time.Now()
		send(dueNs, lastSend)
	}
}

// sendTicks sends ticks [from, to) of the schedule: at each tick's due
// time, that tick's share of the rate, in one batched send. It never
// looks at answers. A tick that leaves late still counts its requests
// from when they were due, so a stall on either side shows up in the
// latency of every request it delayed.
func (lg *loadgen) sendTicks(from, to int) {
	out := transport.NewBatch(int(perTick(lg.spec.honestRate))+2, lg.spec.maxRequest())
	pace(lg.t0, lg.seed, from, to, func(dueNs int64, now time.Time) {
		seg := lg.segmentOf(dueNs)
		if seg >= 0 {
			late := now.Sub(lg.t0.Add(time.Duration(dueNs)))
			lg.segs[seg].late = append(lg.segs[seg].late, uint32(min(max(late, 0), time.Duration(^uint32(0)))))
		}
		n := share(lg.spec.honestRate, &lg.carry)
		wall := now.UnixNano()
		for i := 0; i < n; i++ {
			sealed, m := lg.gen.next(out.Buffer(i), wall)
			out.Set(i, len(sealed), transport.Sockaddr{})
			s := &lg.slots[m.seq&lg.mask]
			s.meta.Store(packMeta(m))
			s.due.Store(dueNs + 1) // +1 keeps tick 0 distinct from "empty"
		}
		sent, err := lg.bc.SendBatch(out, n)
		if err != nil && lg.sendErr == nil {
			lg.sendErr = err
		}
		if seg >= 0 {
			lg.segs[seg].sent += sent
		}
	})
}

// recvLoop checks every answer until the socket's read deadline ends it.
func (lg *loadgen) recvLoop() {
	defer close(lg.recvDone)
	in := transport.NewBatch(256, lg.spec.maxResponse()+1)
	scratch := make([]byte, 0, wire.CommitResponseSize)
	for {
		n, err := lg.bc.RecvBatch(in)
		if err != nil {
			return
		}
		now := time.Now()
		sinceT0 := int64(now.Sub(lg.t0))
		for i := 0; i < n; i++ {
			lg.handle(in.Payload(i), scratch, sinceT0, now.UnixNano())
		}
	}
}

func (lg *loadgen) fail(format string, args ...any) {
	lg.bad++
	if lg.firstBad == "" {
		lg.firstBad = fmt.Sprintf(format, args...)
	}
}

// wallSlack is how far a served timestamp may sit from this host's
// clock; the authority reads the same clock.
const wallSlack = int64(2 * time.Second)

func offWall(nanos, wall int64) bool { return nanos < wall-wallSlack || nanos > wall+wallSlack }

// handle authenticates one datagram, matches it to its request, and
// checks that it is the answer that request must get.
func (lg *loadgen) handle(dgram, scratch []byte, sinceT0, wall int64) {
	pt, _, err := lg.opener.OpenDatagramInto(scratch, dgram)
	if err != nil {
		lg.fail("answer failed authentication: %v", err)
		return
	}
	var clientID, seq uint64
	var stamp wire.TimeResponse
	var com wire.CommitResponse
	isCommit := len(pt) == wire.CommitResponseSize
	if isCommit {
		if com, err = wire.UnmarshalCommitResponse(pt); err != nil {
			lg.fail("commit answer: %v", err)
			return
		}
		clientID, seq = com.ClientID, com.Seq
	} else {
		if stamp, err = wire.UnmarshalTimeResponse(pt); err != nil {
			lg.fail("stamp answer: %v", err)
			return
		}
		clientID, seq = stamp.ClientID, stamp.Seq
	}
	s := &lg.slots[seq&lg.mask]
	meta := s.meta.Load()
	due := s.due.Swap(0)
	client := meta >> 4 & 0xfff
	kind := opKind(meta & 0xf)
	if due == 0 || meta>>16 != seq || clientID != honestClientBase+client {
		lg.fail("answer (client %#x seq %d) matches no request in flight", clientID, seq)
		return
	}
	due-- // undo the +1 of sendTicks
	seg := lg.segmentOf(due)
	if seg >= 0 {
		lg.segs[seg].answered++
	}
	if kind.isCommit() != isCommit {
		lg.fail("seq %d: answer of the wrong family", seq)
		return
	}
	if isCommit {
		if why := checkCommit(com, kind, seq, wall); why != "" {
			lg.fail("seq %d: %s", seq, why)
			return
		}
	} else {
		if why := lg.checkStamp(stamp, kind, seq, wall); why != "" {
			lg.fail("seq %d: %s", seq, why)
			return
		}
		if stamp.Nanos < lg.lastStamp[client] {
			lg.fail("seq %d: trusted time went backwards for client %d (%d after %d)", seq, client, stamp.Nanos, lg.lastStamp[client])
			return
		}
		lg.lastStamp[client] = stamp.Nanos
	}
	if seg >= 0 {
		st := &lg.segs[seg]
		st.ok++
		st.lat = append(st.lat, uint32(min(max(sinceT0-due, 0), int64(^uint32(0)))))
	}
}

func (lg *loadgen) checkStamp(r wire.TimeResponse, kind opKind, seq uint64, wall int64) string {
	if r.Status != wire.StatusOK {
		return "answered " + r.Status.String()
	}
	if offWall(r.Nanos, wall) {
		return fmt.Sprintf("served time %d is off the wall clock %d", r.Nanos, wall)
	}
	if r.HasToken != (kind == opStampToken) {
		return fmt.Sprintf("token presence %v, asked %v", r.HasToken, kind == opStampToken)
	}
	if kind == opStampToken {
		doc, _ := docFor(seq)
		tok, ok := lg.stamper.VerifyBytes(doc[:], r.Token[:])
		if !ok || tok.Nanos != r.Nanos {
			return "timestamp token does not verify against the request's document"
		}
	}
	return ""
}

func checkCommit(r wire.CommitResponse, kind opKind, seq uint64, wall int64) string {
	wantKind := wire.KindCommitLock
	switch kind {
	case opUnlockRipe, opUnlockUnripe:
		wantKind = wire.KindCommitUnlock
	case opStatusRipe, opStatusUnripe:
		wantKind = wire.KindCommitStatus
	}
	if r.Kind != wantKind {
		return fmt.Sprintf("answer kind %v, asked %v", r.Kind, wantKind)
	}
	want := wire.CommitOK
	if kind == opUnlockUnripe || kind == opStatusUnripe {
		want = wire.CommitSealed
	}
	if r.Verdict != want {
		return fmt.Sprintf("verdict %v, expected %v", r.Verdict, want)
	}
	if offWall(r.Nanos, wall) {
		return fmt.Sprintf("deciding time %d is off the wall clock %d", r.Nanos, wall)
	}
	if kind == opLock {
		tok, err := commit.UnmarshalToken(r.Token[:])
		if err != nil {
			return "lock token: " + err.Error()
		}
		_, hash := docFor(seq)
		if tok.Hash != hash || tok.UnlockNanos != r.UnlockNanos || tok.UnlockNanos <= r.Nanos {
			return "lock token does not bind the request's document and unlock time"
		}
	}
	return ""
}

// lingerAndClose waits out stragglers for linger, until the receiver
// that closes done has seen the read deadline, and closes the socket.
// done is nil when set-up failed before a receiver was started: there
// is nobody to wait for, and waiting would never end.
func lingerAndClose(conn *net.UDPConn, linger time.Duration, done <-chan struct{}) {
	if done != nil {
		_ = conn.SetReadDeadline(time.Now().Add(linger)) // socket is open; cannot fail
		<-done
	}
	conn.Close()
}

func (lg *loadgen) finish(linger time.Duration) { lingerAndClose(lg.conn, linger, lg.recvDone) }

// abuser is the second socket of stamp_abuse: its own sending goroutine
// on the same tick schedule (half a tick out of step with the honest
// one) and a receiver that checks what little may come back.
type abuser struct {
	spec *liveSpec
	seed uint64 // of the tick schedule: not the honest stream's
	gen  *abuseGen
	conn *net.UDPConn
	bc   *transport.BatchConn
	open *wire.Opener

	sent      [numAbuseClasses]int // sender only
	hotOK     int                  // receiver only, as the rest
	forbidden int                  // replies no abuse datagram may draw
	firstBad  string
	recvDone  chan struct{} // as the loadgen's: nil until start
}

func newAbuser(spec *liveSpec, addr string, key []byte, seed uint64) (*abuser, error) {
	gen, err := newAbuseGen(spec, key, seed)
	if err != nil {
		return nil, err
	}
	opener, err := wire.NewOpener(key)
	if err != nil {
		return nil, err
	}
	// No segmentation offload: the stream mixes sizes on purpose.
	conn, bc, err := dialBatch(addr, 0)
	if err != nil {
		return nil, err
	}
	return &abuser{spec: spec, seed: ^seed, gen: gen, conn: conn, bc: bc, open: opener}, nil
}

// prepare delivers the replayer's originals once, so that every later
// copy is a replay. The originals are legitimate and get answered.
func (a *abuser) prepare() error {
	_, err := exchange(a.conn, a.gen.replays, len(a.gen.replays), 2*time.Second)
	return err
}

func (a *abuser) sendTicks(t0 time.Time, from, to int) {
	out := transport.NewBatch(int(perTick(a.spec.abuseRate))+2, a.spec.maxRequest()+64)
	carry := 0.0
	pace(t0, a.seed, from, to, func(int64, time.Time) {
		n := share(a.spec.abuseRate, &carry)
		for i := 0; i < n; i++ {
			d, class, _ := a.gen.next(out.Buffer(i))
			out.Set(i, len(d), transport.Sockaddr{})
			a.sent[class]++
		}
		_, _ = a.bc.SendBatch(out, n) // abuse that the kernel refuses is abuse not delivered
	})
}

// start launches the receiver.
func (a *abuser) start() {
	a.recvDone = make(chan struct{})
	go a.recvLoop()
}

func (a *abuser) recvLoop() {
	defer close(a.recvDone)
	in := transport.NewBatch(256, wire.TimeResponseSize+wire.SealedOverhead+1)
	scratch := make([]byte, 0, wire.TimeResponseSize)
	for {
		n, err := a.bc.RecvBatch(in)
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			pt, _, err := a.open.OpenDatagramInto(scratch, in.Payload(i))
			if err != nil {
				a.forbid("abuse socket got an unauthentic datagram: %v", err)
				continue
			}
			r, err := wire.UnmarshalTimeResponse(pt)
			if err != nil {
				a.forbid("abuse socket got a malformed answer: %v", err)
				continue
			}
			switch {
			case r.ClientID == hotClient && r.Status == wire.StatusOK:
				a.hotOK++
			case r.ClientID == hotClient && r.Status == wire.StatusOverloaded:
				// the shed reply a client over its limit is owed
			default:
				a.forbid("abuse drew a reply: client %#x seq %d status %v", r.ClientID, r.Seq, r.Status)
			}
		}
	}
}

func (a *abuser) forbid(format string, args ...any) {
	a.forbidden++
	if a.firstBad == "" {
		a.firstBad = fmt.Sprintf(format, args...)
	}
}

func (a *abuser) finish(linger time.Duration) { lingerAndClose(a.conn, linger, a.recvDone) }

// runSchedule sends ticks [0, total) from at most two goroutines (the
// honest sender and, if the workload has one, the abuser) and calls
// warm once when the honest sender has finished the warm-up ticks. It
// returns when every tick has been sent.
func runSchedule(lg *loadgen, ab *abuser, total int, warm func()) {
	var wg sync.WaitGroup
	if ab != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ab.sendTicks(lg.t0, 0, total)
		}()
	}
	lg.sendTicks(0, lg.warmTicks)
	warm()
	lg.sendTicks(lg.warmTicks, total)
	wg.Wait()
}
