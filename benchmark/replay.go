package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"triadtime"
	"triadtime/internal/commit"
	"triadtime/internal/serve"
	"triadtime/internal/transport"
	"triadtime/internal/wire"
	"triadtime/tsa"
)

// replayDatagrams is how many of the workload's own datagrams the
// staged replay pushes through the serving path.
const replayDatagrams = 100_000

// replayServerID is the replay endpoint's wire identity base; like the
// live endpoint it reserves one identity per drain shard plus one for
// shed replies.
const replayServerID uint32 = 1

// stagedReplay re-enacts what LiveServer.recvLoop/admitBatch and
// drainLoop/sendDeliveries do (internal/serve/live.go), one stage at a
// time over one tick's burst of datagrams, with a span around each
// stage:
//
//	RecvBatch -> OpenDatagramInto -> Unmarshal* -> Submit/SubmitCommit
//	  -> Drain -> MarshalInto -> SealDatagramAppend -> SendBatch
//
// It runs inside the subject, against the subject's own trusted clock,
// on the public calls of transport, wire and serve — the serving path
// with the goroutines and the waiting taken out, so that what the
// stages sum to can be held against the CPU the live run measured.
type stagedReplay struct {
	spec   *liveSpec
	honest *honestGen
	abuse  *abuseGen

	srv     *serve.Server[transport.Sockaddr]
	vault   *commit.Vault
	opener  *wire.Opener
	sealers []*wire.Sealer // one per shard, then the shed sealer
	rx      *net.UDPConn   // the endpoint's socket
	rxb     *transport.BatchConn
	tx      *net.UDPConn // the clients' socket
	txb     *transport.BatchConn

	in, out, pump, sink *transport.Batch
	reqs                []wire.TimeRequest
	creqs               []wire.CommitRequest
	deliveries          []serve.Delivery[transport.Sockaddr]
	plains              [][wire.CommitResponseSize]byte
	scratch             []byte

	round                   int
	honestCarry, abuseCarry float64
	// Tallies of the traced slices only, to go with the spans.
	recvCalls, units, hotShed int
}

func newStagedReplay(s *liveSubject) (*stagedReplay, error) {
	spec := s.spec
	key := bootKey(s.cfg.Seed, 1<<20) // not a key any live boot used
	r := &stagedReplay{spec: spec}
	var err error
	if r.honest, err = newHonestGen(spec, key, s.cfg.Seed); err != nil {
		return nil, err
	}
	if spec.abuseRate > 0 {
		if r.abuse, err = newAbuseGen(spec, key, s.cfg.Seed); err != nil {
			return nil, err
		}
	}
	clock := s.node.TrustedNanos
	cfg := serve.Config{RatePerClient: spec.ratePerClient, Clock: serve.ClockFunc(clock)}
	if spec.tsa {
		if cfg.Stamper, err = tsa.New(tsa.ClockFunc(clock), tsaKey()); err != nil {
			return nil, err
		}
	}
	if spec.vault {
		if r.vault, err = openVault(s, "replay.anchor"); err != nil {
			return nil, err
		}
		cfg.Vault = r.vault
		if err := r.mintTokens(clock); err != nil {
			return nil, err
		}
	}
	if r.srv, err = serve.New[transport.Sockaddr](cfg); err != nil {
		return nil, err
	}
	if r.opener, err = wire.NewOpener(key); err != nil {
		return nil, err
	}
	idents := r.srv.Shards() + 1
	for i := 0; i < idents; i++ {
		sealer, err := wire.NewSealerShard(key, replayServerID, i, idents)
		if err != nil {
			return nil, err
		}
		r.sealers = append(r.sealers, sealer)
	}

	if r.rx, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		return nil, err
	}
	_ = r.rx.SetReadBuffer(4 << 20)  // best effort, as NewLiveServer
	_ = r.rx.SetWriteBuffer(4 << 20) // likewise
	if r.rxb, err = transport.NewBatchConn(r.rx); err != nil {
		r.close()
		return nil, err
	}
	_ = r.rxb.EnableGSO(spec.maxResponse()) // best effort, as NewLiveServer
	if r.tx, r.txb, err = dialBatch(r.rx.LocalAddr().String(), 0); err != nil {
		r.close()
		return nil, err
	}

	burst := int(perTick(spec.honestRate)+perTick(spec.abuseRate)) + 4
	r.in = transport.NewBatch(256, spec.maxRequest()+1)
	r.out = transport.NewBatch(burst, spec.maxResponse())
	r.pump = transport.NewBatch(burst, spec.maxRequest()+64)
	r.sink = transport.NewBatch(256, spec.maxResponse()+1)
	r.plains = make([][wire.CommitResponseSize]byte, burst)
	r.scratch = make([]byte, 0, wire.CommitRequestSize)

	if r.abuse != nil {
		// Deliver the replayer's originals, as set-up does on the wire.
		for _, d := range r.abuse.replays {
			if _, _, err := r.opener.OpenDatagramInto(r.scratch, d); err != nil {
				r.close()
				return nil, fmt.Errorf("replay original rejected: %w", err)
			}
		}
	}
	return r, nil
}

func openVault(s *liveSubject, file string) (*commit.Vault, error) {
	return commit.Open(commit.Config{
		Clock: commit.ClockFunc(s.node.TrustedNanos),
		Vouch: func() bool { return s.node.State() == triadtime.StateOK },
		Key:   tsaKey(),
		Store: commit.NewFileStore(filepath.Join(s.cfg.Dir, file)),
	})
}

// mintTokens fills the honest generator's token pools from the replay
// vault, as the driver's set-up does over the wire.
func (r *stagedReplay) mintTokens(clock func() (int64, error)) error {
	now, err := clock()
	if err != nil {
		return err
	}
	for i := 0; i < tokenPool; i++ {
		var hash [commit.HashSize]byte
		hash[0] = byte(i)
		for _, pool := range []struct {
			in   time.Duration
			toks *[][wire.CommitTokenSize]byte
		}{{ripeIn, &r.honest.ripe}, {lockHorizon, &r.honest.unripe}} {
			tok, vd := r.vault.Lock(hash, now+int64(pool.in), 0)
			if vd != commit.OK {
				return fmt.Errorf("replay vault refused a lock: %v", vd)
			}
			var b [wire.CommitTokenSize]byte
			tok.MarshalInto(b[:])
			*pool.toks = append(*pool.toks, b)
		}
	}
	time.Sleep(ripeIn + 20*time.Millisecond) // let the ripe pool ripen
	return nil
}

func (r *stagedReplay) close() {
	if r.rx != nil {
		r.rx.Close()
	}
	if r.tx != nil {
		r.tx.Close()
	}
	if r.vault != nil {
		_ = r.vault.Flush() // a scratch anchor, deleted with its directory
	}
}

// tick replays one tick of the schedule: the honest burst, then the
// abuse burst, then one drain of every shard.
func (r *stagedReplay) tick(rec *spanRecorder, parent int) error {
	r.round++
	now := int64(time.Duration(r.round) * tickPeriod)
	wall := time.Now().UnixNano()

	n := share(r.spec.honestRate, &r.honestCarry)
	for i := 0; i < n; i++ {
		d, _ := r.honest.next(r.pump.Buffer(i), wall)
		r.pump.Set(i, len(d), transport.Sockaddr{})
	}
	if err := r.admit(rec, parent, now, n, 0, 0, 0); err != nil {
		return err
	}
	if r.abuse != nil {
		// The abuse burst is laid out class by class so that each class
		// gets its own span; on the wire the classes interleave.
		n = share(r.spec.abuseRate, &r.abuseCarry)
		var byClass [numAbuseClasses][][]byte
		for i := 0; i < n; i++ {
			d, class, _ := r.abuse.next(nil)
			byClass[class] = append(byClass[class], d)
		}
		k := 0
		for _, class := range []abuseClass{abHot, abForged, abReplay, abOversize} {
			for _, d := range byClass[class] {
				r.pump.Set(k, copy(r.pump.Buffer(k)[:len(d)], d), transport.Sockaddr{})
				k++
			}
		}
		hot, over := len(byClass[abHot]), len(byClass[abOversize])
		if err := r.admit(rec, parent, now, 0, hot, n-hot-over, over); err != nil {
			return err
		}
	}
	return r.drain(rec, parent, now)
}

// admit pushes the pump batch's first honest+hot+reject+oversize slots
// through receive, open, decode and submit, in that slot order.
func (r *stagedReplay) admit(rec *spanRecorder, parent int, now int64, honest, hot, reject, oversize int) error {
	n := honest + hot + reject + oversize
	if n == 0 {
		return nil
	}
	if sent, err := r.txb.SendBatch(r.pump, n); err != nil || sent != n {
		return fmt.Errorf("replay pump sent %d of %d: %v", sent, n, err)
	}
	accept := honest + hot
	r.reqs, r.creqs = r.reqs[:0], r.creqs[:0]
	var to transport.Sockaddr
	for got := 0; got < n; {
		// Stage 1: RecvBatch (recvLoop). Loopback delivery is synchronous,
		// so the burst is already queued and the span holds no waiting;
		// it normally arrives in one call.
		sp := rec.begin(parent, "transport.recv")
		m, err := r.rxb.RecvBatch(r.in)
		rec.end(sp, m)
		if err != nil {
			return fmt.Errorf("replay receive: %w", err)
		}
		if rec != nil {
			r.recvCalls++
		}
		to = r.in.Addr(0)
		// Slots [0,a) of this piece are authentic, [a,b) must be
		// rejected, [b,m) are oversize.
		a := min(max(accept-got, 0), m)
		b := min(max(accept+reject-got, 0), m)
		got += m

		// Stage 2: OpenDatagramInto, and stage 3: Unmarshal* (admitBatch).
		if a > 0 {
			sp = rec.begin(parent, "wire.open")
			opened := r.openRange(0, a)
			rec.end(sp, a)
			if opened != a {
				return fmt.Errorf("replay: %d of %d authentic datagrams opened", opened, a)
			}
		}
		if b > a {
			sp = rec.begin(parent, "wire.open_reject")
			opened := 0
			for i := a; i < b; i++ {
				if _, _, err := r.opener.OpenDatagramInto(r.scratch, r.in.Payload(i)); err == nil {
					opened++
				}
			}
			rec.end(sp, b-a)
			if opened > 0 {
				return fmt.Errorf("replay: %d forged or replayed datagrams were accepted", opened)
			}
		}
		for i := b; i < m; i++ {
			if r.in.Len(i) <= r.spec.maxRequest() {
				return fmt.Errorf("replay: oversize datagram arrived %d bytes long", r.in.Len(i))
			}
		}
	}

	// Stage 4: Submit / SubmitCommit. Shed answers are sealed and sent
	// at once, as admitBatch does.
	name := "serve.submit"
	if hot > 0 {
		name = "serve.submit_hot"
	}
	sp := rec.begin(parent, name)
	shed := 0
	for i := range r.reqs {
		if resp, shedNow := r.srv.Submit(now, r.reqs[i], to); shedNow {
			resp.MarshalInto(r.plains[shed][:])
			shed++
		}
	}
	for i := range r.creqs {
		if _, decided := r.srv.SubmitCommit(now, r.creqs[i], to); decided {
			shed = -1
		}
	}
	rec.end(sp, accept)
	if shed < 0 || (hot == 0 && shed > 0) {
		return fmt.Errorf("replay: honest requests were shed")
	}
	if rec != nil {
		r.hotShed += shed
	}
	if shed == 0 {
		return nil
	}
	sp = rec.begin(parent, "serve.shed_reply")
	shedSealer := r.sealers[len(r.sealers)-1]
	for i := 0; i < shed; i++ {
		sealed := shedSealer.SealDatagramAppend(r.out.Buffer(i), r.plains[i][:wire.TimeResponseSize])
		r.out.Set(i, len(sealed), to)
	}
	sent, err := r.rxb.SendBatch(r.out, shed)
	rec.end(sp, shed)
	if err != nil || sent != shed {
		return fmt.Errorf("replay shed reply sent %d of %d: %v", sent, shed, err)
	}
	return r.absorb(shed)
}

// openRange opens and decodes in-batch slots [from, to) into reqs/creqs
// and reports how many were authentic and well-formed. The decode is
// timed with the open it follows: splitting the two would put a clock
// read between every datagram.
func (r *stagedReplay) openRange(from, to int) int {
	ok := 0
	for i := from; i < to; i++ {
		pt, _, err := r.opener.OpenDatagramInto(r.scratch, r.in.Payload(i))
		if err != nil {
			continue
		}
		switch len(pt) {
		case wire.TimeRequestSize:
			if req, err := wire.UnmarshalTimeRequest(pt); err == nil {
				r.reqs = append(r.reqs, req)
				ok++
			}
		case wire.CommitRequestSize:
			if req, err := wire.UnmarshalCommitRequest(pt); err == nil {
				r.creqs = append(r.creqs, req)
				ok++
			}
		}
	}
	return ok
}

// drain serves every shard once, as each drainLoop does on its tick,
// then marshals, seals and sends what was served.
func (r *stagedReplay) drain(rec *spanRecorder, parent int, now int64) error {
	// Stage 5: Drain (one trusted-clock read per shard with work).
	sp := rec.begin(parent, "serve.drain")
	r.deliveries = r.deliveries[:0]
	bounds := make([]int, 0, 8)
	for i := 0; i < r.srv.Shards(); i++ {
		r.deliveries = r.srv.Drain(i, now, r.deliveries)
		bounds = append(bounds, len(r.deliveries))
	}
	k := len(r.deliveries)
	rec.end(sp, k)
	if k == 0 {
		return nil
	}
	for i := range r.deliveries {
		d := &r.deliveries[i]
		if rec != nil && (d.IsCommit || d.Resp.ClientID != hotClient) {
			r.units++
		}
		if !d.IsCommit && d.Resp.Status != wire.StatusOK {
			return fmt.Errorf("replay: drained request answered %v", d.Resp.Status)
		}
	}

	// Stage 6: MarshalInto (sendDeliveries).
	sp = rec.begin(parent, "wire.marshal")
	for i := range r.deliveries {
		if d := &r.deliveries[i]; d.IsCommit {
			d.Commit.MarshalInto(r.plains[i][:])
		} else {
			d.Resp.MarshalInto(r.plains[i][:])
		}
	}
	rec.end(sp, k)

	// Stage 7: SealDatagramAppend, each shard under its own identity.
	sp = rec.begin(parent, "wire.seal")
	shard := 0
	for i := range r.deliveries {
		for i >= bounds[shard] {
			shard++
		}
		size := wire.TimeResponseSize
		if r.deliveries[i].IsCommit {
			size = wire.CommitResponseSize
		}
		sealed := r.sealers[shard].SealDatagramAppend(r.out.Buffer(i), r.plains[i][:size])
		r.out.Set(i, len(sealed), r.deliveries[i].To)
	}
	rec.end(sp, k)

	// Stage 8: SendBatch (flush).
	sp = rec.begin(parent, "transport.send")
	sent, err := r.rxb.SendBatch(r.out, k)
	rec.end(sp, k)
	if err != nil || sent != k {
		return fmt.Errorf("replay send %d of %d: %v", sent, k, err)
	}
	return r.absorb(k)
}

// absorb reads n answers off the clients' socket, untimed, so that its
// buffer never fills.
func (r *stagedReplay) absorb(n int) error {
	for n > 0 {
		m, err := r.txb.RecvBatch(r.sink)
		if err != nil {
			return fmt.Errorf("replay sink: %w", err)
		}
		n -= m
	}
	return nil
}

// run replays ticks until at least datagrams have gone through, under
// one root span, and returns the wall time it took.
func (r *stagedReplay) run(rec *spanRecorder, datagrams int) (time.Duration, error) {
	deadline := time.Now().Add(30 * time.Second)
	if err := r.rx.SetReadDeadline(deadline); err != nil {
		return 0, err
	}
	if err := r.tx.SetReadDeadline(deadline); err != nil {
		return 0, err
	}
	perRound := perTick(r.spec.honestRate) + perTick(r.spec.abuseRate)
	rounds := int(float64(datagrams)/perRound) + 1
	root := rec.begin(0, "replay")
	start := time.Now()
	for i := 0; i < rounds; i++ {
		parent := rec.begin(root, "replay.tick")
		if err := r.tick(rec, parent); err != nil {
			return 0, err
		}
		rec.end(parent, 1)
	}
	took := time.Since(start)
	rec.end(root, rounds)
	return took, nil
}

// replayStages are the leaf spans whose durations make up the budget.
var replayStages = []string{
	"transport.recv", "wire.open", "wire.open_reject", "serve.submit", "serve.submit_hot",
	"serve.shed_reply", "serve.drain", "wire.marshal", "wire.seal", "transport.send",
}

// trace answers the driver's "trace" command for a live workload: the
// staged replay, the unit-cost loops, and what the node's own status
// endpoint says about queue wait.
func (s *liveSubject) trace(rec *spanRecorder) (subjectReply, error) {
	layers := map[string]float64{}
	if err := s.queueWait(layers); err != nil {
		return subjectReply{}, err
	}

	r, err := newStagedReplay(s)
	if err != nil {
		return subjectReply{}, err
	}
	defer r.close()
	// A warm-up fills buckets, windows and caches. Then the replay runs
	// in alternating slices without a recorder — no clock reads inside —
	// and with one: the difference is what tracing costs the thing it
	// measures, and alternating keeps a change in host speed out of it.
	const slices = 4
	if _, err := r.run(nil, replayDatagrams/slices); err != nil {
		return subjectReply{}, err
	}
	var plain, traced time.Duration
	for i := 0; i < slices; i++ {
		d, err := r.run(nil, replayDatagrams/slices)
		if err != nil {
			return subjectReply{}, err
		}
		plain += d
		if d, err = r.run(rec, replayDatagrams/slices); err != nil {
			return subjectReply{}, err
		}
		traced += d
	}
	layers["trace.overhead_ratio"] = traced.Seconds()/plain.Seconds() - 1

	_, recvN := rec.total("transport.recv")
	layers["transport.recv_ns_per_dgram"] = rec.perItem("transport.recv")
	layers["transport.recv_dgrams_per_call"] = float64(recvN) / float64(max(r.recvCalls, 1))
	layers["transport.send_ns_per_dgram"] = rec.perItem("transport.send")
	layers["wire.open_ns"] = rec.perItem("wire.open")
	layers["wire.open_reject_ns"] = rec.perItem("wire.open_reject")
	layers["wire.seal_ns"] = rec.perItem("wire.seal")
	layers["wire.codec_ns"] = rec.perItem("wire.marshal")
	layers["serve.submit_ns"] = rec.perItem("serve.submit")
	layers["serve.drain_ns_per_req"] = rec.perItem("serve.drain")
	var sum int64
	for _, name := range replayStages {
		ns, _ := rec.total(name)
		sum += ns
	}
	layers["budget.stage_sum_ns_per_unit"] = float64(sum) / float64(max(r.units, 1))

	// What a shed costs: on stamp_abuse, the hot client's submits beyond
	// the honest per-submit cost; elsewhere (nothing is shed) a loop
	// against an engine whose one client is always over its limit.
	hotNs, hotN := rec.total("serve.submit_hot")
	if r.hotShed > 0 {
		layers["serve.submit_shed_ns"] = max(0, (float64(hotNs)-float64(hotN-r.hotShed)*layers["serve.submit_ns"])/float64(r.hotShed))
	} else if layers["serve.submit_shed_ns"], err = shedUnitCost(s.node.TrustedNanos); err != nil {
		return subjectReply{}, err
	}
	if err := s.unitCosts(layers); err != nil {
		return subjectReply{}, err
	}
	return subjectReply{Layers: layers, Spans: rec.spans}, nil
}

const unitLoop = 20_000

// perCall times n calls of f, in a few slices, and returns the fastest
// slice's nanoseconds per call: a unit cost is read from the quiet
// moments like every other timing.
func perCall(n int, f func(i int)) float64 {
	const slices = 8
	best := math.Inf(1)
	for s, i := 0, 0; s < slices; s++ {
		end := n * (s + 1) / slices
		if end == i {
			continue
		}
		from, start := i, time.Now()
		for ; i < end; i++ {
			f(i)
		}
		best = min(best, float64(time.Since(start))/float64(end-from))
	}
	return best
}

func shedUnitCost(clock func() (int64, error)) (float64, error) {
	srv, err := serve.New[transport.Sockaddr](serve.Config{RatePerClient: 1, Clock: serve.ClockFunc(clock)})
	if err != nil {
		return 0, err
	}
	req := wire.TimeRequest{ClientID: hotClient}
	srv.Submit(0, req, transport.Sockaddr{}) // takes the bucket's one token
	return perCall(unitLoop, func(i int) {
		req.Seq = uint64(i)
		srv.Submit(0, req, transport.Sockaddr{})
	}), nil
}

// unitCosts times the calls the serving path makes into engine, tsa and
// commit, on their own, against the subject's real trusted clock.
func (s *liveSubject) unitCosts(layers map[string]float64) error {
	clock := s.node.TrustedNanos
	var clockErr error
	layers["engine.trusted_now_ns"] = perCall(unitLoop, func(int) {
		if _, err := clock(); err != nil {
			clockErr = err
		}
	})
	if clockErr != nil {
		return fmt.Errorf("trusted clock: %w", clockErr)
	}
	now, _ := clock()

	stamper, err := tsa.New(tsa.ClockFunc(clock), tsaKey())
	if err != nil {
		return err
	}
	var hash [tsa.HashSize]byte
	layers["tsa.issue_ns"] = perCall(unitLoop, func(i int) {
		hash[0] = byte(i)
		if _, err := stamper.IssueAt(hash, now); err != nil {
			clockErr = err
		}
	})
	if clockErr != nil {
		return fmt.Errorf("tsa: %w", clockErr)
	}

	vault, err := openVault(s, "unit.anchor")
	if err != nil {
		return err
	}
	var tok commit.Token
	verdicts := map[commit.Verdict]int{}
	layers["commit.lock_ns"] = perCall(unitLoop/4, func(i int) {
		var vd commit.Verdict
		tok, vd = vault.Lock(hash, now+int64(lockHorizon), 0)
		verdicts[vd]++
	})
	layers["commit.unlock_ns"] = perCall(unitLoop/4, func(int) {
		_, vd := vault.Unlock(tok)
		verdicts[vd]++
	})
	layers["commit.status_ns"] = perCall(unitLoop/4, func(int) {
		_, vd := vault.Status(tok)
		verdicts[vd]++
	})
	if verdicts[commit.OK] != unitLoop/4 || verdicts[commit.Sealed] != unitLoop/2 {
		return fmt.Errorf("commit unit loop verdicts: %v", verdicts)
	}
	var flushErr error
	layers["commit.flush_ns"] = perCall(20, func(int) {
		if err := vault.Flush(); err != nil {
			flushErr = err
		}
	})
	if flushErr != nil {
		return fmt.Errorf("commit flush: %w", flushErr)
	}
	layers["wire.protocol_seal_open_ns"], err = protocolSealOpen()
	return err
}

// protocolSealOpen times one SealAppend + OpenInto of a protocol
// Message: what every simulated (and live) protocol exchange pays.
func protocolSealOpen() (float64, error) {
	sealer, err := wire.NewSealer(clusterKey(), 7)
	if err != nil {
		return 0, err
	}
	opener, err := wire.NewOpener(clusterKey())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 0, wire.SealedSize)
	scratch := make([]byte, 0, wire.MarshaledSize)
	var openErr error
	ns := perCall(unitLoop, func(i int) {
		b := sealer.SealAppend(buf, wire.Message{Kind: wire.KindTimeRequest, Seq: uint64(i)})
		if _, _, err := opener.OpenInto(scratch, b); err != nil {
			openErr = err
		}
	})
	return ns, openErr
}

// queueWait reads the queue-wait quantiles the node publishes on its
// own /metrics endpoint — the only place they are public.
func (s *liveSubject) queueWait(layers map[string]float64) error {
	resp, err := http.Get("http://" + s.status + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		for q, name := range map[string]string{`"0.5"`: "serve.queue_wait_p50_us", `"0.99"`: "serve.queue_wait_p99_us"} {
			prefix := "triad_serve_queue_wait_nanos{quantile=" + q + "} "
			if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				ns, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					return fmt.Errorf("metrics line %q: %w", sc.Text(), err)
				}
				layers[name] = ns / 1e3
			}
		}
	}
	return sc.Err()
}
