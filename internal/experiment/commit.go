package experiment

import (
	"context"
	"fmt"
	"time"

	"triadtime/internal/commit"
	"triadtime/internal/experiment/runner"
	"triadtime/internal/serve"
	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
	"triadtime/internal/wire"
)

// This file holds the time-locked commitment attack suite: an attacker
// holding valid client credentials tries to open commitments before
// their trusted unlock time — by simply asking early and often, by
// forging tokens, by exploiting Degraded holdover, by rolling the
// node's clock back, and by restarting the vault against a replayed
// (rolled-back) anchor file. Each scenario is an independent
// deterministic simulation driving the sealed serving path end to end
// (client datagrams through the sharded Server and its vault), so the
// table is byte-identical across runs and worker counts.

// CommitServeAddr is the commitment endpoint's base address. Restart
// scenarios bring each vault incarnation up one address higher, the
// way a restarted node returns under the same name but with fresh
// sockets.
const CommitServeAddr simnet.Addr = 170

// commitAttackerAddr is the attacking client's address.
const commitAttackerAddr simnet.Addr = 1200

// CommitRow reports one attack scenario: the client-observed verdict
// tallies over its unlock and status attempts, the vault's detection
// counters, and the final lease epoch.
type CommitRow struct {
	Name string
	// Ops counts unlock and status attempts (locks are setup, not
	// attempts). Granted counts OK verdicts among them; the refusal
	// columns split the rest by verdict.
	Ops, Granted, Early, Fenced, Forged, Unavailable int
	// AnchorRollbacks and ClockRollbacks are the vault's detections,
	// summed across incarnations.
	AnchorRollbacks, ClockRollbacks uint64
	// FinalEpoch is the last incarnation's lease epoch.
	FinalEpoch uint64
}

// Summary renders the row.
func (r CommitRow) Summary() string {
	return fmt.Sprintf("%-22s ops=%2d granted=%d early=%2d fenced=%d forged=%d unavail=%d anchor_rb=%d clock_rb=%d epoch=%d",
		r.Name, r.Ops, r.Granted, r.Early, r.Fenced, r.Forged, r.Unavailable,
		r.AnchorRollbacks, r.ClockRollbacks, r.FinalEpoch)
}

// CommitVaultKey is the commitment vault's token/anchor key in the
// attack scenarios — distinct from ClientKey, as a deployment would
// keep transport and token credentials separate.
func CommitVaultKey() []byte {
	key := make([]byte, wire.KeySize)
	for i := range key {
		key[i] = byte(0xC3 ^ i*5)
	}
	return key
}

// commitRig is one scenario's world: the scheduler and network, a
// scripted trusted clock (offset and vouch hooks model clock attacks
// and Degraded holdover), and a MemStore anchor that persists across
// vault incarnations — the restartable piece the rollback scenarios
// attack.
type commitRig struct {
	sched *sim.Scheduler
	net   *simnet.Network
	store *commit.MemStore
	vault *commit.Vault
	addr  simnet.Addr // current incarnation's endpoint

	// clockOffset shifts the trusted clock (a rollback attack sets it
	// negative); vouch=false models Degraded holdover, where the node
	// serves timestamps but must not vouch.
	clockOffset int64
	vouch       bool

	incarnation int
	randCounter uint64
	// Detection counters accumulated from closed incarnations.
	anchorRB, clockRB uint64
}

// trustedNow is the rig's scripted trusted clock.
func (r *commitRig) trustedNow() (int64, error) {
	return int64(r.sched.Now()) + r.clockOffset, nil
}

// at schedules fn at simulated time d.
func (r *commitRig) at(d time.Duration, fn func()) {
	r.sched.At(simtime.FromDuration(d), fn)
}

// restart closes the books on the current incarnation (its detection
// counters roll into the rig's) and opens a fresh vault from the
// persisted anchor behind a fresh serving binding — the simulated
// process restart. The anchor's epoch bump on Open is the restart
// fence the lease scenarios measure.
func (r *commitRig) restart() error {
	if r.vault != nil {
		c := r.vault.Counters()
		r.anchorRB += c.AnchorRollbacks
		r.clockRB += c.ClockRollbacks
	}
	vault, err := commit.Open(commit.Config{
		Clock: commit.ClockFunc(r.trustedNow),
		Vouch: func() bool { return r.vouch },
		Key:   CommitVaultKey(),
		Store: r.store,
		Rand: func(b []byte) (int, error) {
			// Deterministic nonce source: the suite's tables must be
			// byte-identical across runs.
			r.randCounter++
			for i := range b {
				b[i] = byte(r.randCounter + uint64(i)*13)
			}
			return len(b), nil
		},
	})
	if err != nil {
		return err
	}
	r.incarnation++
	binding, err := serve.NewSimBinding(r.sched, r.net, serve.SimConfig{
		Addr: CommitServeAddr + simnet.Addr(r.incarnation),
		Key:  ClientKey(),
		Tick: time.Millisecond,
		Server: serve.Config{
			Clock: serve.ClockFunc(r.trustedNow),
			Vault: vault,
		},
	})
	if err != nil {
		return err
	}
	binding.Start()
	r.vault = vault
	r.addr = binding.Addr()
	return nil
}

// commitAttacker is the scripted client: it locks named documents and
// fires unlock/status attempts, tallying the node's verdicts. It holds
// valid transport credentials — the threat model is a compromised
// client (or the relying party itself) trying to shortcut time, not a
// network outsider.
type commitAttacker struct {
	rig    *commitRig
	sealer *wire.Sealer
	opener *wire.Opener
	row    *CommitRow

	seq     uint64
	sent    map[uint64]sentOp
	tokens  map[string][wire.CommitTokenSize]byte
	scratch [wire.CommitRequestSize]byte
	sealBuf []byte
}

// sentOp remembers what an in-flight seq asked for.
type sentOp struct {
	kind wire.Kind
	name string
}

func newCommitAttacker(rig *commitRig, row *CommitRow) (*commitAttacker, error) {
	sealer, err := wire.NewSealer(ClientKey(), uint32(commitAttackerAddr))
	if err != nil {
		return nil, err
	}
	opener, err := wire.NewOpener(ClientKey())
	if err != nil {
		return nil, err
	}
	a := &commitAttacker{
		rig:    rig,
		sealer: sealer,
		opener: opener,
		row:    row,
		sent:   make(map[uint64]sentOp),
		tokens: make(map[string][wire.CommitTokenSize]byte),
	}
	rig.net.Register(commitAttackerAddr, a.handle)
	return a, nil
}

func (a *commitAttacker) send(req wire.CommitRequest, name string) {
	a.seq++
	req.ClientID = uint64(commitAttackerAddr)
	req.Seq = a.seq
	a.sent[a.seq] = sentOp{kind: req.Kind, name: name}
	req.MarshalInto(a.scratch[:])
	a.sealBuf = a.sealer.SealDatagramAppend(a.sealBuf[:0], a.scratch[:wire.CommitRequestSize])
	// The rig's current address is read at send time, so attempts
	// scheduled before a restart land on whichever incarnation is
	// serving when they fire.
	a.rig.net.Send(commitAttackerAddr, a.rig.addr, a.sealBuf)
}

// lock seals the named document for unlockIn of trusted time.
func (a *commitAttacker) lock(name string, unlockIn time.Duration, flags uint8) {
	var req wire.CommitRequest
	req.Kind = wire.KindCommitLock
	req.Flags = flags
	for i := range req.Hash {
		req.Hash[i] = byte(len(name) + i)
	}
	copy(req.Hash[:], name)
	now, _ := a.rig.trustedNow()
	req.UnlockNanos = now + int64(unlockIn)
	a.send(req, name)
}

// unlock and status fire one attempt against the named token.
func (a *commitAttacker) unlock(name string) { a.query(wire.KindCommitUnlock, name, false) }
func (a *commitAttacker) status(name string) { a.query(wire.KindCommitStatus, name, false) }

// unlockForged flips a byte of the named token's MAC first.
func (a *commitAttacker) unlockForged(name string) { a.query(wire.KindCommitUnlock, name, true) }

func (a *commitAttacker) query(kind wire.Kind, name string, forge bool) {
	tok, ok := a.tokens[name]
	if !ok {
		return // the lock itself was refused; nothing to attempt
	}
	if forge {
		tok[len(tok)-1] ^= 0x80
	}
	var req wire.CommitRequest
	req.Kind = kind
	req.Token = tok
	a.send(req, name)
}

func (a *commitAttacker) handle(pkt simnet.Packet) {
	plain, _, err := a.opener.OpenDatagramInto(nil, pkt.Payload)
	if err != nil || len(plain) != wire.CommitResponseSize {
		return
	}
	resp, err := wire.UnmarshalCommitResponse(plain)
	if err != nil || resp.ClientID != uint64(commitAttackerAddr) {
		return
	}
	op, ok := a.sent[resp.Seq]
	if !ok {
		return
	}
	delete(a.sent, resp.Seq)
	if op.kind == wire.KindCommitLock {
		if resp.Verdict == wire.CommitOK {
			a.tokens[op.name] = resp.Token
		}
		return
	}
	a.row.Ops++
	switch resp.Verdict {
	case wire.CommitOK:
		a.row.Granted++
	case wire.CommitSealed:
		a.row.Early++
	case wire.CommitFenced:
		a.row.Fenced++
	case wire.CommitBadToken:
		a.row.Forged++
	case wire.CommitUnavailable:
		a.row.Unavailable++
	case wire.CommitOverloaded:
		// Admission control never sheds at the suite's request rates; a
		// shed here would break the ops-partition invariant the tests
		// pin, so count it where the audit's zero-range assertion
		// (ops − granted − early) will catch it.
	}
}

// commitScenario scripts one attack.
type commitScenario struct {
	name string
	dur  time.Duration
	// script schedules the attack's events on the rig's scheduler.
	script func(r *commitRig, a *commitAttacker)
}

// commitScenarios is the suite.
func commitScenarios() []commitScenario {
	return []commitScenario{
		{
			// The control: a sealed status query is refused, the ripe
			// unlock is vouched.
			name: "honest-ripe-unlock",
			dur:  40 * time.Second,
			script: func(r *commitRig, a *commitAttacker) {
				r.at(1*time.Second, func() { a.lock("doc", 30*time.Second, 0) })
				r.at(10*time.Second, func() { a.status("doc") })
				r.at(32*time.Second, func() { a.unlock("doc") })
			},
		},
		{
			// Ask early and often: every pre-ripe attempt must come back
			// Sealed; only attempts after the 60s mark are granted.
			name: "early-unlock-storm",
			dur:  80 * time.Second,
			script: func(r *commitRig, a *commitAttacker) {
				r.at(1*time.Second, func() { a.lock("doc", 60*time.Second, 0) })
				for t := 5 * time.Second; t < 78*time.Second; t += 4 * time.Second {
					r.at(t, func() { a.unlock("doc") })
				}
			},
		},
		{
			// Token forgery: flipped MACs are rejected as BadToken, and
			// the genuine token still unlocks on time.
			name: "forged-token",
			dur:  20 * time.Second,
			script: func(r *commitRig, a *commitAttacker) {
				r.at(1*time.Second, func() { a.lock("doc", 10*time.Second, 0) })
				r.at(3*time.Second, func() { a.unlockForged("doc") })
				r.at(5*time.Second, func() { a.unlockForged("doc") })
				r.at(7*time.Second, func() { a.unlockForged("doc") })
				r.at(13*time.Second, func() { a.unlock("doc") })
			},
		},
		{
			// Degraded holdover: the clock still answers (timestamps
			// keep flowing) but the node must not vouch that the unlock
			// time has truly passed (paper §VI). Attempts during the
			// holdover window are refused Unavailable even though the
			// token is ripe; vouching resumes with calibration.
			name: "degraded-holdover",
			dur:  25 * time.Second,
			script: func(r *commitRig, a *commitAttacker) {
				r.at(1*time.Second, func() { a.lock("doc", 10*time.Second, 0) })
				r.at(14*time.Second, func() { r.vouch = false })
				r.at(15*time.Second, func() { a.unlock("doc") })
				r.at(17*time.Second, func() { a.unlock("doc") })
				r.at(19*time.Second, func() { r.vouch = true })
				r.at(20*time.Second, func() { a.unlock("doc") })
			},
		},
		{
			// Clock rollback: after the vault has vouched against
			// trusted time t, the clock is stepped 8s backwards. Reads
			// below the persisted high-water mark refuse to vouch and
			// are counted; service resumes once the clock passes the
			// mark again.
			name: "clock-rollback",
			dur:  25 * time.Second,
			script: func(r *commitRig, a *commitAttacker) {
				r.at(1*time.Second, func() { a.lock("doc", 10*time.Second, 0) })
				r.at(12*time.Second, func() { a.status("doc") }) // ripe: OK, high-water ~12s
				r.at(13*time.Second, func() { r.clockOffset = -int64(8 * time.Second) })
				r.at(14*time.Second, func() { a.unlock("doc") })
				r.at(16*time.Second, func() { a.unlock("doc") })
				r.at(17*time.Second, func() { r.clockOffset = 0 })
				r.at(18*time.Second, func() { a.unlock("doc") })
			},
		},
		{
			// Restart fencing (T-Lease): a lease-mode token minted in
			// epoch 1 is fenced after the restart bumps the epoch; a
			// durable (non-lease) commitment survives the same restart.
			name: "restart-lease-fence",
			dur:  20 * time.Second,
			script: func(r *commitRig, a *commitAttacker) {
				r.at(1*time.Second, func() { a.lock("lease", 10*time.Second, wire.FlagLease) })
				r.at(2*time.Second, func() { a.lock("durable", 10*time.Second, 0) })
				r.at(5*time.Second, func() { _ = r.restart() })
				r.at(13*time.Second, func() { a.unlock("lease") })
				r.at(15*time.Second, func() { a.unlock("durable") })
			},
		},
		{
			// Anchor rollback: the attacker snapshots the anchor file in
			// epoch 1, lets the vault restart twice (epoch 3), then
			// restores the stale anchor and restarts again. The replayed
			// incarnation reopens at epoch 2 — but the attacker's own
			// epoch-3 token is authentic proof of the rollback, so the
			// vault re-fences past it (epoch 4) and refuses. A fresh
			// lock/unlock cycle then works at the re-fenced epoch.
			name: "anchor-rollback",
			dur:  25 * time.Second,
			script: func(r *commitRig, a *commitAttacker) {
				var stale []byte
				r.at(1*time.Second, func() { a.lock("warm", 5*time.Second, 0) })
				r.at(2*time.Second, func() { stale, _ = r.store.Snapshot() })
				r.at(3*time.Second, func() { _ = r.restart() })
				r.at(4*time.Second, func() { _ = r.restart() })
				r.at(5*time.Second, func() { a.lock("fresh", 5*time.Second, 0) })
				r.at(7*time.Second, func() {
					r.store.Restore(stale)
					_ = r.restart()
				})
				r.at(11*time.Second, func() { a.unlock("fresh") })
				r.at(13*time.Second, func() { a.lock("post", 3*time.Second, 0) })
				r.at(17*time.Second, func() { a.unlock("post") })
			},
		},
	}
}

// runCommitScenario executes one scenario and reduces it to a row.
func runCommitScenario(seed uint64, sc commitScenario) (CommitRow, error) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	network := simnet.New(sched, rng.Fork(1), simnet.DefaultLink())
	rig := &commitRig{
		sched: sched,
		net:   network,
		store: &commit.MemStore{},
		vouch: true,
	}
	if err := rig.restart(); err != nil {
		return CommitRow{}, fmt.Errorf("experiment: %w", err)
	}
	row := CommitRow{Name: sc.name}
	attacker, err := newCommitAttacker(rig, &row)
	if err != nil {
		return CommitRow{}, fmt.Errorf("experiment: %w", err)
	}
	sc.script(rig, attacker)
	sched.RunUntil(simtime.FromDuration(sc.dur))

	final := rig.vault.Counters()
	row.AnchorRollbacks = rig.anchorRB + final.AnchorRollbacks
	row.ClockRollbacks = rig.clockRB + final.ClockRollbacks
	row.FinalEpoch = rig.vault.Epoch()
	return row, nil
}

// RunCommitAttacks runs the commitment attack suite. Rows come back in
// scenario order; each scenario is an independent simulation, so they
// fan across the runner's worker pool with byte-identical output.
// Cancelling ctx abandons unstarted scenarios and returns its error.
func RunCommitAttacks(ctx context.Context, seed uint64) ([]CommitRow, error) {
	scenarios := commitScenarios()
	tasks := make([]runner.Task[CommitRow], len(scenarios))
	for i, sc := range scenarios {
		sc := sc
		tasks[i] = runner.Task[CommitRow]{
			Name: "commit " + sc.name,
			Run: func(context.Context) (CommitRow, error) {
				return runCommitScenario(seed, sc)
			},
		}
	}
	return runner.Run(ctx, runner.Config{}, tasks).Values()
}
